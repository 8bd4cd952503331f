(** Consistent query answering (Definition 8).

    A tuple is a {e consistent answer} to a query on [D] wrt [IC] iff it is
    an answer in {e every} repair of [D]; a boolean query is consistently
    [yes] iff it holds in every repair.  Repairs can come from the
    model-theoretic enumerator of Section 4 ({!Repair.Enumerate}) or from
    the stable models of the repair program of Section 5 ({!Core.Engine}) —
    Theorem 4 makes them interchangeable, which is property-tested.  Every
    method that materializes repairs solves each conflict component of
    {!Repair.Decompose} on its own, through the one pipeline of this module,
    with the engine as a parameter.

    CQA for first-order queries under this semantics is decidable
    (Theorem 2) and Pi^p_2-complete (Theorem 3); both engines are
    worst-case exponential accordingly. *)

type method_ =
  | ModelTheoretic
      (** materialize [Rep(D, IC)] with {!Repair.Enumerate} and evaluate the
          query in every repair *)
  | LogicProgram
      (** materialize the repairs from the stable models of [Pi(D, IC)]
          ({!Core.Engine}) and evaluate the query in every repair *)
  | CautiousProgram
      (** no materialization: compile the query into the program and take
          cautious/brave consequences ({!Progcqa}); requires RIC-acyclic
          constraints and the Datalog-with-negation query fragment, and
          fixes the query semantics to [NullAsConstant] *)
  | Auto
      (** route every conflict component to the cheapest sound engine
          ({!Route.Tier}): the repair-less direct computation
          ({!Route.Direct}) for deletion-only null-free components, the
          repair program (run shifted when statically HCF — Theorem 5 /
          Corollary 1) where Definition 9 applies, and model-theoretic
          enumeration as last resort.  Answers are identical to the other
          materializing methods.  The tiers of the components the outcome keeps land in
          the budget's {!Budget.stats} ([routed]), degradations (e.g. an
          inexact component product forcing whole-plan enumeration) in
          its [degradations] notes. *)

type outcome = {
  consistent : Relational.Tuple.Set.t;  (** answers in every repair *)
  possible : Relational.Tuple.Set.t;    (** answers in some repair *)
  standard : Relational.Tuple.Set.t;    (** answers in D itself *)
  repair_count : int;
      (** number of repairs, or of stable models for [CautiousProgram] *)
  exhausted : Budget.exhausted option;
      (** [Some _] only on a materializing run whose budget tripped after
          at least one component was solved: the answer sets recombine the
          true repairs of the solved components with the {e unrepaired}
          base slice of the remaining ones — a partial outcome, preserved
          rather than discarded.  [None] everywhere else; exhaustion before
          any useful work is an [Error]. *)
}

val consistent_answers :
  ?method_:method_ ->
  ?semantics:Qeval.semantics ->
  ?budget:Budget.ctl ->
  ?decompose:bool ->
  ?jobs:int ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Qsyntax.t ->
  (outcome, string) result
(** [budget] is the shared run budget ({!Budget.start}): its limits and
    wall-clock deadline are enforced across grounding, solving and state
    search, and its [stats] record the per-stage counters.  Exhaustion,
    of it or of a search's per-search cap, never escapes as an exception:
    it is an [Error], or on a materializing method a partial outcome (see
    [exhausted]).

    [Auto], [ModelTheoretic] and [LogicProgram] are {!outcome_of_plan} over
    a fresh plan: each conflict component of {!Repair.Decompose} is repaired
    on its own and the answer computation factorizes.  For positive
    existential conjunctive queries whose variables all occur in database
    atoms, single-atom bodies take per-component intersections/unions
    (answers are additive over components) and join bodies recombine only
    the components mentioning a query predicate; other queries are
    evaluated over the recombined repair list, which still profits from the
    per-component search.  [repair_count] is the product of per-component
    counts.  The outcome is the one a search over the whole instance gives.
    [Auto] solves each shape of component once.  [CautiousProgram] is
    {!Progcqa} over the whole instance.

    [decompose] is ignored; perfbench's stage oracle still passes it.

    [jobs] (default [1]) solves the conflict components — and, on the
    factorized single-atom path, evaluates their answer sets — on that
    many {!Parallel.Pool} worker domains.  The merge is deterministic, so
    the outcome is identical across [jobs] settings (see
    {!Repair.Decompose.solve} for the contract under exhaustion). *)

val factorized_outcome :
  ?semantics:Qeval.semantics ->
  ?jobs:int ->
  ?states:Relational.Instance.t list list ->
  ?exhausted:Budget.exhausted ->
  plan:Repair.Decompose.plan ->
  minimal:Relational.Instance.t list list ->
  standard:Relational.Tuple.Set.t ->
  Qsyntax.t ->
  outcome
(** The factorized answer combination over already-solved components:
    [minimal] lists each component's minimal repairs in [plan] order
    (non-empty — a budget-tripped component contributes its unrepaired
    base slice, with [exhausted] set).  [states] must carry the full
    consistent state lists when [plan.product_exact] is [false] (the
    recombined product is re-filtered globally).  This is the last step of
    {!outcome_of_plan}.

    [standard] must be [Qeval.answers ?semantics d q] for the instance [d]
    the plan was built from (or refreshed to): the single-atom path
    derives the core's answers from it.  A single-atom query is never
    evaluated over [plan.core]: [d] is the core plus the components'
    slices and answers are additive, so a standard answer is missing from
    the core's only if every witness of it is a component atom.  The heads
    of the components' atoms matching the query atom that are standard
    answers are each tested with one join over the core seeded on them
    ({!Qeval.witnessed}), and each result is one [diff] of [standard], by
    the unwitnessed heads the components do not give back, and one
    [union] with what the components add beyond it; either returns
    [standard] itself when it changes nothing, and otherwise copies it
    once.  Each repair is evaluated alone.  The seeded join probes the
    index of one column the query atom binds (a constant's or a head
    variable's) over the segment the core shares with [d]: the first
    request on a column no join has probed yet builds that index once,
    kept for every later request.  Apart from it and the copies of
    [standard], no step grows with the core: the cost follows the
    conflict. *)

(** {1 The decomposed pipeline}

    [consistent_answers] (for every method but [CautiousProgram]) and the
    session engine ({!Session}) both answer through {!outcome_of_plan},
    and {!repairs} and the session's repairs go through {!repairs_of_plan}:
    one solver per component, whose strategy follows from the method and
    the plan, merged by {!Repair.Decompose.solve}'s prefix rule.  This is
    the only place repairs are computed for a request; the engines' own
    [repairs] solve the whole instance, as Definitions 7 and 9 state them.
    A session passes its cache as the [store] of the solve step; that is
    the only difference between a session request and a cold one. *)

type solved = {
  minimal : Relational.Instance.t list;
      (** the locally [<=_D]-minimal repairs, relative to the component's
          {!Repair.Decompose.base}, sorted by [Instance.compare] *)
  states : Relational.Instance.t list option;
      (** every consistent state, when the component was enumerated *)
  tier : Budget.tier option;
      (** the tier that solved it: [Enumerated] for every enumeration, the
          routed tier for [Auto]'s other tiers, [None] for the logic-program
          method *)
}
(** One component solved. *)

type store = {
  find : string -> (solved * Relational.Value.t array) option;
  add : string -> solved * Relational.Value.t array -> unit;
}
(** A store of solved components behind the solve step, probed and filled
    by key.  An entry carries, next to the results, the constants its key
    renamed ({!Repair.Decompose.key}); content-keyed entries carry none.
    [find] and [add] may run on pool workers.

    Keys name the strategy ([auto], [enum], [prog], or [mono] for the
    monolithic program), then digest everything the solve reads.  An
    exact [Auto] plan keys a component by its shape
    ({!Repair.Decompose.shape_key}), falling back to its content with the
    universe; [ModelTheoretic], and [Auto] on an inexact plan, by content
    with the universe; [LogicProgram] by content alone.  A hit on a shape
    key carries the stored results over to the asking component through
    {!Repair.Decompose.renaming} and re-sorts them, so it returns exactly
    what the asking component's own solve would. *)

val outcome_of_plan :
  ?semantics:Qeval.semantics ->
  ?budget:Budget.ctl ->
  ?jobs:int ->
  ?store:store ->
  method_:method_ ->
  standard:Relational.Tuple.Set.t ->
  plan:Repair.Decompose.plan ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Qsyntax.t ->
  (outcome, string) result
(** A CQA request over [plan], the plan of [D] (the instance) and [IC]:

    - a consistent [D] answers [standard] with one repair;
    - [LogicProgram] on an inexact plan ([product_exact = false]) runs the
      monolithic repair program, since stable models yield only minimal
      repairs, with a [decompose] degradation note in the budget's stats;
    - otherwise every component is solved and the results merged by
      {!Repair.Decompose.solve}: an exact [Auto] plan routes each component
      ({!Route.Tier}), an inexact [Auto] plan (with a [route] degradation
      note) and [ModelTheoretic] enumerate, [LogicProgram] runs each
      component's repair program.  A budget trip before any component was
      solved is an [Error]; after, the outcome is partial ([exhausted]).
      [factorized_outcome] recombines.

    Every solve step goes through [store] when one is given (a session
    passes its cache).  Without one, an exact [Auto] plan solves through a
    request-local store keyed by shape only, so each shape of component is
    solved once per request and nothing outlives the call; the other
    methods solve every component.
    [budget] counts each kept component once ([components_solved]) and,
    for [Auto], its tier ([routed]), whether solved or carried over.
    [CautiousProgram] materializes no repairs: each of its components
    [Failed]. *)

val repairs_of_plan :
  ?budget:Budget.ctl ->
  ?jobs:int ->
  ?store:store ->
  method_:method_ ->
  plan:Repair.Decompose.plan ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  (Relational.Instance.t list, string) result
(** [Rep(D, IC)] over [plan], by the steps of {!outcome_of_plan}, the
    component repairs recombined by cross product over the core (or, on an
    inexact plan, the consistent states filtered globally), sorted by
    [Instance.compare].  The full set cannot degrade: any budget trip is an
    [Error]. *)

val repairs :
  ?budget:Budget.ctl ->
  ?jobs:int ->
  method_:method_ ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  (Relational.Instance.t list, string) result
(** [Rep(D, IC)]: plans [D] and runs {!repairs_of_plan}, as
    [consistent_answers] does for answers; a budget trip while planning is
    an [Error] too.  [ModelTheoretic] and [LogicProgram] give the lists of
    the whole-instance engines ({!Repair.Enumerate.repairs},
    {!Core.Engine.repairs}), in their order, and [jobs] changes nothing in
    them.  On an inexact plan [LogicProgram] runs the program over the
    whole instance, with a [decompose] degradation note in the budget's
    stats. *)

val certain :
  ?method_:method_ ->
  ?semantics:Qeval.semantics ->
  ?budget:Budget.ctl ->
  ?jobs:int ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Qsyntax.t ->
  (bool, string) result
(** Definition 8 for boolean queries: [yes] iff the query holds in every
    repair. *)

val pp_outcome : outcome Fmt.t
(** Four lines, [consistent:], [possible:], [standard:] and [repairs:],
    and a fifth, [partial:], for an exhausted run.  Each distinct answer
    set is written once: equal sets share one string, tested by physical
    equality, then length, then the elements. *)

val pp_repairs : Relational.Instance.t -> Relational.Instance.t list Fmt.t
(** [pp_repairs d] lists repairs of [d] as the [repairs] command and
    request print them: each with its symmetric difference with [d], then
    their number. *)
