(** Conflict-component decomposition of the repair search.

    Repairs are local: every repair action either deletes a tuple matched
    by some violation or inserts a consequent witness for one, and the
    cascade a fix can trigger stays inside the set of atoms reachable from
    the original violations through shared antecedent matches.  The repair
    set therefore factorizes — [Rep(D, IC)] is the cross product of the
    repairs of independent {e conflict components} over the fixed untouched
    core, and its cost collapses from the product of per-component search
    spaces to their sum.

    The conflict graph's nodes are ground atoms: the tuples matched by the
    violations of [D] plus every insertion candidate of their fixes.  Its
    edges come from a closure over {e potential violations} (antecedent
    matches that could fire in some search state): a potential violation
    linked to an active atom — through its antecedent, a deletable
    consequent witness, or an insertion candidate — merges all its atoms
    into one class.  This covers the two cascade directions: an inserted
    atom joining core tuples into a fresh violation, and a deletion
    orphaning core tuples that relied on the deleted atom as a witness.
    Connected components are computed by union-find.

    Caveats mirrored from the semantics: under a {e conflicting} NNC
    (Example 20) insertion candidates range over the whole non-null
    universe, which can merge otherwise unrelated components — [Rep_d]
    ({!Repd}) avoids this by preferring deletions, and decomposition keeps
    the same universe so either reading stays exact.  When a null-carrying
    atom of one component can cover an atom of another under condition (b)
    of [<=_D] ([product_exact = false]), per-component minimality no longer
    implies global minimality and callers must fall back to filtering the
    recombined product. *)

type component = {
  atoms : Relational.Atom.Set.t;
      (** every atom the component's search can touch (present tuples and
          insertion candidates) *)
  sub : Relational.Instance.t;  (** [atoms ∩ D]: the component's slice *)
  support : Relational.Instance.t;
      (** inert core witnesses that must be present in this component's
          search instance so permanently-satisfied constraints stay
          satisfied: the support atoms whose region this component pulled
          in (a potential violation over its own atoms and support).  The
          components' supports together are the plan's support fixpoint;
          an atom is shared only when several regions reach it. *)
  ics : Ic.Constr.t list;  (** constraints whose predicates meet the component *)
}

type plan = {
  core : Relational.Instance.t;  (** tuples no repair action can touch *)
  components : component list;   (** deterministic order; [[]] iff [D] is consistent *)
  universe : Relational.Value.t list;
      (** the universe insertion candidates range over
          ({!Actions.insertion_universe}): Proposition 1's universe of the
          {e full} instance under a conflicting NNC (Example 20), [[]]
          elsewhere, where every candidate is null at its existential
          positions.  Per-component searches must use it, not their
          slice's, so conflicting-NNC insertions range identically to the
          monolithic search *)
  nnc_positions : (string * int) list;
  product_exact : bool;
      (** no cross-component [<=_D] covering is possible: products of
          locally minimal repairs are exactly the globally minimal ones *)
}

val plan : ?budget:Budget.ctl -> Relational.Instance.t -> Ic.Constr.t list -> plan
(** One check of [D] finds the violations; the closure and support
    fixpoints are then worklists of newly active and newly supported atoms,
    each step a join seeded on one atom, so planning costs the check plus
    work proportional to the conflicts.  An atom of [D] seeds no join of a
    constraint without consequent atoms (a denial, an FD): such a potential
    violation over atoms of [D] alone is an actual violation — the check
    applies the same null escape and built-in test, with no consequent to
    probe — so the seeds already merged it; one with an insertion
    candidate among its atoms is found when the candidate activated last
    is popped.  The core is [D] under a deletion overlay of the component
    atoms, sharing [D]'s storage, and the universe is built only where an
    insertion reads it.

    [budget] contributes its wall-clock deadline, polled once per worklist
    step (planning has no decision/state counter of its own).
    @raise Budget.Exhausted on deadline; engine APIs convert it to
    [Error]. *)

val fingerprint :
  ?universe:Relational.Value.t list ->
  ?nnc_positions:(string * int) list ->
  component ->
  string
(** Content mode of the solve key: a digest of everything a per-component
    solve depends on — the component's tuples ([sub] and [support];
    order-independent, instances are sets), its constraint list
    (order-sensitive: the searches traverse it in order), and optionally
    the plan-global [universe] and [nnc_positions] (pass them for the
    model-theoretic search, whose insertion candidates range over them;
    the logic-program engine regenerates its candidates from the slice and
    does not take them).  The rendering is injective: every value carries
    its type ([Int 1], [Str "1"], [Null] and [Str "null"] differ) and
    every string its length, so equal fingerprints mean equal inputs, and
    the solve would produce identical results. *)

type key = {
  id : string;  (** the digest *)
  constants : Relational.Value.t array;
      (** the renamed constants, in order of first occurrence *)
}

val shape_key : plan -> component -> key option
(** Shape mode of the solve key: the rendering of {!fingerprint} with
    every constant renamed to the index of its first occurrence (tagged
    with its type) — every constant except [null], [Str "null"] (the
    repair program's null) and the constants of the component's
    constraints.  Equal ids therefore mean isomorphic components: the
    renaming [constants.(i)] of one to [constants.(i)] of the other maps
    one onto the other, constraints and all, whether or not the traversal
    labels them canonically.  Repairs are defined through symmetric
    differences and [<=_D] (Definitions 6–7), both invariant under such a
    renaming, so isomorphic components have repair sets that differ by the
    same renaming.

    [None] where that argument does not apply and the component must be
    keyed by content, with the universe: when its constraints use an order
    comparison or an offset (a renaming need not preserve [x < y] or
    [x = y + 1]), or when its search reads the universe
    ({!Actions.reads_universe}: insertions under a conflicting NNC). *)

val renaming :
  from:Relational.Value.t array ->
  into:Relational.Value.t array ->
  (Relational.Instance.t -> Relational.Instance.t) option
(** [renaming ~from:k.constants ~into:k'.constants] for two keys with the
    same id: the map of every instance of the first component to the
    second's, constant [from.(i)] to [into.(i)], every other value fixed.
    [None] when it is the identity.
    @raise Invalid_argument on arrays of different lengths. *)

val refresh :
  plan ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  inserted:Relational.Atom.t list ->
  deleted:Relational.Atom.t list ->
  violations_unchanged:bool ->
  plan option
(** [refresh p d' ics ~inserted ~deleted ~violations_unchanged] reuses the
    plan [p] (computed for the pre-update instance) for the updated
    instance [d'] when the update provably cannot change the partition:
    the violation set is unchanged, no delta atom lies in any component's
    atoms or support, no delta predicate is mentioned by a constraint
    touching the active/support region, and the universe insertions read
    ({!Actions.insertion_universe}) is unchanged.  Under those conditions the cold plan of [d'] is [p]
    with the delta folded into the untouched core — returned as [Some];
    [None] means the caller must re-plan.  [inserted]/[deleted] are the
    net effect as in {!Semantics.Nullsat.check_delta}. *)

val product :
  Relational.Instance.t ->
  Relational.Instance.t list list ->
  Relational.Instance.t Seq.t
(** [product base choices] lazily enumerates [base ∪ c1 ∪ ... ∪ cn] for
    every way of picking one instance per choice list — the cross-product
    recombination of per-component repairs over the core. *)

val count_product : int list -> int
(** Product of per-component repair counts (the factored [repair_count]). *)

(** {1 Solving the components} *)

val base : component -> Relational.Instance.t
(** [sub ∪ support]: the instance a component's search starts from, and
    the unrepaired stand-in of a component a budget trip left unsolved. *)

type 'a solved =
  | Solved of 'a
  | Tripped of Budget.exhausted  (** a budget limit was hit mid-solve *)
  | Failed of string
      (** a genuine error, e.g. a repair program that cannot be generated *)

val map_solved : ('a -> 'b) -> 'a solved -> 'b solved

val solve :
  ?budget:Budget.ctl ->
  ?jobs:int ->
  filler:(component -> 'a) ->
  (component -> 'a solved) ->
  component list ->
  ('a list * int * Budget.exhausted option, string) result
(** [solve ~filler f components] solves every component with [f] and
    merges the results by the {e prefix rule}: scanned in order, the
    solved results before the first trip are kept, and from the first trip
    on every component — solved or not — is replaced by [filler c], the
    trip's marker returned beside them (a partial answer, the work already
    done preserved).  A failure before the first trip fails the whole run.
    [Ok (results, kept, exhausted)] lists one result per component, in
    order, with [kept] the length of the solved prefix.

    With [jobs] (default [1]) at most 1, or a single component, the
    components are solved in order and solving stops at the first trip or
    failure, so no budget is spent past it.  Otherwise one
    {!Parallel.Pool.map} solves them all on [jobs] worker domains, and the
    same in-order scan makes the result identical to the sequential one
    whenever no limit trips; when a shared limit trips, which component
    trips first can differ.  [budget] counts each kept result once, here
    in the merge ({!Budget.note_component}), and attributes every solved
    result to the domain that produced it
    ({!Budget.note_worker_component}); [f] counts neither.

    Every decomposed request merges here once, in {!Query.Cqa}'s
    pipeline, whose [f] is the method's solver
    ({!Enumerate.solve_component}, [Core.Engine.solve_component] or a
    routed tier) behind an optional store.
    [Core.Engine.solve_components] runs the program solver alone through
    it for the stage benchmark and the tests. *)
