(** The logic-programming repair engine: generate [Pi(D, IC)], ground it,
    shift it when head-cycle-free, enumerate its stable models and read the
    repairs off them (Theorem 4).

    [run] and [repairs] solve the whole instance: the Definition 9 oracle,
    which Theorem 4 makes interchangeable with {!Repair.Enumerate.repairs}.
    {!solve_component} is the logic-program solver of {!Query.Cqa}'s
    decomposed pipeline, which plans, merges and recombines.

    Every entry point returns [Error] on budget exhaustion — the grounder's
    and solver's {!Budget.Exhausted} is caught here and never escapes. *)

type report = {
  repairs : Relational.Instance.t list;
  stable_model_count : int;  (** may exceed [List.length repairs] *)
  ground_atoms : int;
  ground_rules : int;
  hcf : bool;          (** ground-level head-cycle-freeness *)
  static_hcf : bool;   (** Theorem 5's static sufficient condition *)
  shifted : bool;      (** solved as a shifted normal program *)
  ric_acyclic : bool;  (** Definition 1 (Theorem 4's hypothesis) *)
  solver : Asp.Solver.stats;
}

val run :
  ?variant:Proggen.variant ->
  ?shift:bool ->
  ?budget:Budget.ctl ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  (report, string) result
(** [shift] defaults to true: the ground program is shifted to a normal one
    whenever it is HCF (Section 6, {!Asp.Shift.if_hcf}); pass false to
    always solve the disjunctive program directly (used by bench table
    E4).  The stable models come from {!Asp.Solver.stable_models}.
    [budget] bounds grounding and solving under the shared run budget
    (decision limit and wall-clock deadline); exhaustion of it or of the
    solver's per-search cap yields [Error], never an exception. *)

val solve_component :
  ?budget:Budget.ctl ->
  Repair.Decompose.component ->
  Relational.Instance.t list Repair.Decompose.solved
(** Generate, ground and solve one component's repair program
    ([Repair.Decompose.base] against the component's constraints): its
    minimal repairs, the budget trip, or a program-generation [Failed].
    It counts no component: {!Repair.Decompose.solve} does, for the results
    it keeps. *)

type components_result = {
  solved : Relational.Instance.t list list;
      (** per-component repair lists, in plan order; after an exhaustion the
          unsolved suffix degrades to the component's unrepaired base slice
          ([sub ∪ support]) as sole entry *)
  exhausted : Budget.exhausted option;
}

val solve_components :
  ?budget:Budget.ctl ->
  ?jobs:int ->
  Repair.Decompose.plan ->
  (components_result, string) result
(** {!solve_component} on every conflict component of the plan, merged by
    {!Repair.Decompose.solve}'s prefix rule: budget trips keep the solved
    prefix and set [exhausted]; program-generation failures are genuine
    [Error]s.  [jobs > 1] solves on a {!Parallel.Pool}, bit-identical to
    [jobs = 1] whenever no limit trips.  A harness for the stage benchmark
    ([perfbench/]) and the tests; it recombines nothing. *)

val repairs :
  ?variant:Proggen.variant ->
  ?budget:Budget.ctl ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  (Relational.Instance.t list, string) result
(** Just the repairs of {!run}.  This function promises the full repair
    set, so exhaustion is an [Error]; partial outcomes, and per-component
    solving, live in {!Query.Cqa}. *)
