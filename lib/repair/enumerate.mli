(** Exact computation of [Rep(D, IC)] (Definition 7) by conflict-driven
    search.

    Starting from [D], every inconsistent state branches on the local fixes
    of {e all} of its violations: deleting one of the matched antecedent
    tuples, or inserting one consequent witness with [null] at the
    existentially quantified positions (the repair actions of the logic
    programs of Definition 9).  Branching on every violation (not just the
    first) matters for completeness: an insertion made for one constraint
    can be the only witness resolving another constraint's violation in
    some repair.  When a NOT NULL-constraint forbids [null] at an
    existential position (a {e conflicting} NNC, Example 20), the insertion
    instead ranges over the non-null universe of Proposition 1 — recovering
    the arbitrary-constant repairs of [2] restricted to that finite
    universe.  Consistent states are collected and filtered by
    [<=_D]-minimality.

    The search space is finite (states are sets of atoms over the universe
    of Proposition 1) so the procedure terminates even for RIC-cyclic
    constraint sets (Example 18).  Worst-case exponential, as CQA is
    Pi^p_2-complete (Theorem 3).  [repairs] is the monolithic search, the
    Definition 7 oracle.  The decomposed pipeline of {!Query.Cqa} fights
    the exponent with {!solve_component}: it splits the search along the
    conflict components of {!Decompose} and recombines the per-component
    repairs by cross product, so k independent conflict clusters cost the
    {e sum} of their searches instead of the product. *)

type action = Actions.action =
  | Delete of Relational.Atom.t
  | Insert of Relational.Atom.t

val pp_action : action Fmt.t

val fixes :
  universe:Relational.Value.t list ->
  nnc_positions:(string * int) list ->
  Relational.Instance.t ->
  Semantics.Nullsat.violation ->
  action list
(** The local fixes of one violation (exposed for tests and for the
    explanation CLI); see {!Actions.fixes}. *)

val search :
  ?budget:Budget.ctl ->
  ?universe:Relational.Value.t list ->
  ?nnc_positions:(string * int) list ->
  ?explored:int ref ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Relational.Instance.t list
(** All consistent states reached from [D], before minimality filtering.
    [universe] and [nnc_positions] default to the instance's own
    (Proposition 1; the universe only where an insertion reads it,
    {!Actions.insertion_universe}); per-component searches pass the
    {e global} ones from a {!Decompose.plan} so insertion candidates match
    the monolithic search.
    [explored] is reset to [0] and then counts distinct visited states.
    [budget] is the run-global budget: every state also ticks it, so a
    shared state limit and the wall-clock deadline are enforced across the
    per-component searches of one run.
    @raise Budget.Exhausted when [budget] trips, or with
    [States Budget.search_states] when more distinct states than that are
    explored; public engine APIs catch it and return [Error] — see
    {!Budget}. *)

val repairs :
  ?budget:Budget.ctl ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Relational.Instance.t list
(** [Rep(D, IC)]: the [<=_D]-minimal states of {!search}.  Deterministic
    order.  A consistent [D] yields [[D]].
    @raise Budget.Exhausted as {!search} does; this function promises the
    full repair set and cannot degrade gracefully — the engines of
    {!Query.Cqa} return partial outcomes. *)

val solve_component :
  ?budget:Budget.ctl ->
  Decompose.plan ->
  Decompose.component ->
  (Relational.Instance.t list * Relational.Instance.t list * int)
  Decompose.solved
(** One component's search from its {!Decompose.base}, over the plan's
    universe and NNC positions: its locally [<=_D]-minimal repairs, all its
    consistent states and the number of states explored, or the budget
    trip ({!Budget.search_states} applies to this one search).  It counts no
    component: {!Decompose.solve} does, for the results it keeps.  The
    model-theoretic solver of {!Query.Cqa}'s decomposed pipeline. *)
