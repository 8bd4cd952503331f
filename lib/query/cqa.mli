(** Consistent query answering (Definition 8).

    A tuple is a {e consistent answer} to a query on [D] wrt [IC] iff it is
    an answer in {e every} repair of [D]; a boolean query is consistently
    [yes] iff it holds in every repair.  Repairs can come from the
    model-theoretic enumerator of Section 4 ({!Repair.Enumerate}) or from
    the stable models of the repair program of Section 5 ({!Core.Engine}) —
    Theorem 4 makes them interchangeable, which is property-tested.

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
          enumeration as last resort.  Always decomposes ([~decompose] is
          implied); answers are identical to the other materializing
          methods.  Per-tier dispatch counters land in the budget's
          {!Budget.stats} ([routed]), degradations (e.g. an inexact
          component product forcing whole-plan enumeration) in its
          [degradations] notes. *)

type outcome = {
  consistent : Relational.Tuple.Set.t;  (** answers in every repair *)
  possible : Relational.Tuple.Set.t;    (** answers in some repair *)
  standard : Relational.Tuple.Set.t;    (** answers in D itself *)
  repair_count : int;
      (** number of repairs, or of stable models for [CautiousProgram] *)
  exhausted : Budget.exhausted option;
      (** [Some _] only on a decomposed run whose budget tripped after at
          least one component was solved: the answer sets recombine the
          true repairs of the solved components with the {e unrepaired}
          base slice of the remaining ones — a partial outcome, preserved
          rather than discarded.  [None] everywhere else; exhaustion before
          any useful work is an [Error]. *)
}

val consistent_answers :
  ?method_:method_ ->
  ?semantics:Qeval.semantics ->
  ?budget:Budget.ctl ->
  ?max_effort:int ->
  ?decompose:bool ->
  ?jobs:int ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Qsyntax.t ->
  (outcome, string) result
(** [max_effort] bounds the repair search (states for the model-theoretic
    engine, solver decisions for the logic-program and cautious engines;
    per component when decomposing).  [budget] is the shared run budget
    ({!Budget.start}): its limits and wall-clock deadline are enforced
    across grounding, solving and state search, and its [stats] record the
    per-stage counters.  Exhaustion never escapes as an exception: it is an
    [Error], or on decomposed runs a partial outcome (see [exhausted]).

    [decompose] (default [false]) repairs each conflict component of
    {!Repair.Decompose} independently and factorizes the answer
    computation: for positive existential conjunctive queries whose
    variables all occur in database atoms, single-atom bodies take
    per-component intersections/unions (answers are additive over
    components) and join bodies recombine only the components mentioning a
    query predicate; other queries are evaluated over the recombined repair
    list, which still profits from the per-component search.
    [repair_count] is the product of per-component counts.  The result is
    the same outcome as the monolithic computation.  [CautiousProgram]
    materializes no per-component repairs, so [~decompose:true] with it is
    a (clearly worded) [Error], not a silent fallback.

    [jobs] (default [1]) solves the conflict components — and, on the
    factorized single-atom path, evaluates their answer sets — on that
    many {!Parallel.Pool} worker domains.  Only decomposed runs
    parallelize; the recombination is a deterministic ordered merge, so
    the outcome is identical across [jobs] settings (see
    {!Repair.Enumerate.decomposed} for the contract under exhaustion). *)

val outcome_of_repairs :
  ?semantics:Qeval.semantics ->
  standard:Relational.Tuple.Set.t ->
  Qsyntax.t ->
  Relational.Instance.t list ->
  outcome
(** Evaluate the query in every repair of a materialized list and fold the
    answer sets: [consistent] is their intersection, [possible] their
    union.  The monolithic tail of both materializing methods, exposed for
    the session engine's whole-instance fallback. *)

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
    consistent state lists when [plan.product_exact] is [false] and the
    repairs came from the model-theoretic search (the recombined product
    is re-filtered globally).  This is the exact answer algebra of
    [consistent_answers ~decompose:true] after its per-component solves;
    the session engine calls it on cached solves, which is what makes
    session answers byte-identical to a cold run.  A single-atom query is
    evaluated once over [plan.core] and once per repair over the repair
    alone (answers are additive), so the core's size is paid once, not
    once per repair. *)

val certain :
  ?method_:method_ ->
  ?semantics:Qeval.semantics ->
  ?budget:Budget.ctl ->
  ?max_effort:int ->
  ?decompose:bool ->
  ?jobs:int ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Qsyntax.t ->
  (bool, string) result
(** Definition 8 for boolean queries: [yes] iff the query holds in every
    repair. *)

val pp_outcome : outcome Fmt.t
