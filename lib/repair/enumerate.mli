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
    Pi^p_2-complete (Theorem 3).  [repairs ~decompose:true] fights the
    exponent by splitting the search along the conflict components of
    {!Decompose} and recombining per-component repairs by cross product:
    k independent conflict clusters cost the {e sum} of their searches
    instead of the product. *)

exception Budget_exceeded of int

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
  ?max_states:int ->
  ?universe:Relational.Value.t list ->
  ?nnc_positions:(string * int) list ->
  ?explored:int ref ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Relational.Instance.t list
(** All consistent states reached from [D], before minimality filtering.
    [universe] and [nnc_positions] default to the instance's own
    (Proposition 1); per-component searches pass the {e global} ones from a
    {!Decompose.plan} so insertion candidates match the monolithic search.
    [explored] is reset to [0] and then counts distinct visited states.
    [budget] is the run-global budget: every state also ticks it, so a
    shared state limit and the wall-clock deadline are enforced across the
    per-component searches of one run.
    @raise Budget_exceeded when more than [max_states] (default [200_000])
    distinct states are explored.
    @raise Budget.Exhausted when [budget] trips; public engine APIs catch
    both and return [Error] — see {!Budget}. *)

val repairs :
  ?budget:Budget.ctl ->
  ?max_states:int ->
  ?decompose:bool ->
  ?jobs:int ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Relational.Instance.t list
(** [Rep(D, IC)].  Deterministic order.  A consistent [D] yields [[D]].
    With [~decompose:true] (default [false]) the search runs independently
    per conflict component and the results are recombined — same repair
    set, per {!Decompose}'s exactness analysis.  [jobs] (default [1])
    solves the components on that many {!Parallel.Pool} worker domains;
    the recombination is a deterministic ordered merge, so the repair list
    is byte-identical across [jobs] settings (it only applies with
    [~decompose:true]).
    @raise Budget_exceeded when more than [max_states] (default [200_000])
    distinct states are explored (per component when decomposing).
    @raise Budget.Exhausted when [budget] trips; this function promises the
    full repair set and cannot degrade gracefully — use {!decomposed} (or
    the engines of {!Query.Cqa}) for partial outcomes. *)

val consistent_states :
  ?budget:Budget.ctl ->
  ?max_states:int ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Relational.Instance.t list
(** [search] under its historical name (exposed for the <=_D property
    tests). *)

val solve_component :
  ?budget:Budget.ctl ->
  ?max_states:int ->
  Decompose.plan ->
  Decompose.component ->
  (Relational.Instance.t list * Relational.Instance.t list * int)
  Decompose.solved
(** One component's search from its {!Decompose.base}, over the plan's
    universe and NNC positions: its locally [<=_D]-minimal repairs, all its
    consistent states and the number of states explored, or the budget
    trip ([max_states] applies to this one search).  It counts no
    component: {!Decompose.solve} does, for the results it keeps. *)

type decomposed = {
  plan : Decompose.plan;
  minimal : Relational.Instance.t list list;
      (** locally [<=_D]-minimal repairs per component, in [plan.components]
          order, each relative to the component's [sub ∪ support] *)
  states : Relational.Instance.t list list;
      (** all consistent states per component *)
  explored : int list;  (** states explored per component *)
  exhausted : Budget.exhausted option;
      (** [Some _] when a budget tripped mid-run: the longest fully-solved
          prefix (in plan order) carries its true repairs, the remaining
          components degrade to their unrepaired base slice
          ([sub ∪ support]) as sole entry — partial, but the work already
          done is preserved *)
}

val decomposed :
  ?budget:Budget.ctl ->
  ?max_states:int ->
  ?jobs:int ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  decomposed
(** Plan and run {!solve_component} on every conflict component through
    {!Decompose.solve}, without recombining — the building block of
    [repairs ~decompose:true] and of the benchmark's decomposition
    counters.  Never raises on exhaustion during the solves: budget trips
    (state limit, decision limit, deadline — including the legacy
    [max_states] bound) are reported through the [exhausted] marker with
    the solved prefix intact, by {!Decompose.solve}'s prefix rule, which
    also makes [jobs > 1] (solving on a {!Parallel.Pool}) bit-identical to
    [jobs = 1] whenever no limit trips. *)
