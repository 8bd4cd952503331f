type report = {
  repairs : Relational.Instance.t list;
  stable_model_count : int;
  ground_atoms : int;
  ground_rules : int;
  hcf : bool;
  static_hcf : bool;
  shifted : bool;
  ric_acyclic : bool;
  solver : Asp.Solver.stats;
}

(* Ground and solve one repair program.  Raises the budget exceptions of
   the grounder/solver; [run] and [solve_component] below are the
   conversion boundaries — no exception escapes a public Engine API. *)
let run_exn ?budget ?(shift = true) ?max_decisions d ics (pg : Proggen.t) =
  let ground = Asp.Grounder.ground ?budget pg.Proggen.program in
  let hcf = Asp.Hcf.is_hcf ground in
  let shifted = shift && hcf in
  let solvable = if shifted then Asp.Shift.ground ground else ground in
  let stats = Asp.Solver.new_stats () in
  let models =
    Asp.Solver.stable_models_atoms ?budget ?max_decisions ~stats solvable
  in
  let extracted = Extract.databases_of_models pg.Proggen.names models in
  (* For RIC-acyclic IC the stable models are exactly the repairs
     (Theorem 4) and this filter is a no-op.  For cyclic sets the
     disjunctive rules can support deletion cascades circularly (a
     delete-advice on the RIC side firing the UIC rule and vice versa),
     producing stable models whose databases are consistent but not
     <=_D-minimal; filtering recovers Rep(D, IC). *)
  let repairs = Repair.Order.minimal_among ~d extracted in
  {
    repairs;
    stable_model_count = List.length models;
    ground_atoms = Asp.Ground.atom_count ground;
    ground_rules = Asp.Ground.rule_count ground;
    hcf;
    static_hcf = Hcfcheck.static_hcf ics;
    shifted;
    ric_acyclic = Ic.Depgraph.is_ric_acyclic ics;
    solver = stats;
  }

let run ?variant ?shift ?budget ?max_decisions d ics =
  Result.bind (Proggen.repair_program ?variant d ics) (fun pg ->
      match run_exn ?budget ?shift ?max_decisions d ics pg with
      | report -> Ok report
      | exception Asp.Solver.Budget_exceeded n ->
          Error (Budget.message (Budget.Decisions n))
      | exception Budget.Exhausted e -> Error (Budget.message e))

type components_result = {
  solved : Relational.Instance.t list list;
  exhausted : Budget.exhausted option;
}

let solve_component ?budget ?max_decisions (c : Repair.Decompose.component) =
  let base = Repair.Decompose.base c in
  let ics = c.Repair.Decompose.ics in
  match
    Result.map
      (run_exn ?budget ?max_decisions base ics)
      (Proggen.repair_program base ics)
  with
  | Ok report -> Repair.Decompose.Solved report.repairs
  | Error msg -> Repair.Decompose.Failed msg
  | exception Asp.Solver.Budget_exceeded n ->
      Repair.Decompose.Tripped (Budget.Decisions n)
  | exception Budget.Exhausted e -> Repair.Decompose.Tripped e

let solve_components ?budget ?max_decisions ?jobs
    (plan : Repair.Decompose.plan) =
  Result.map
    (fun (solved, _, exhausted) -> { solved; exhausted })
    (Repair.Decompose.solve ?budget ?jobs
       ~filler:(fun c -> [ Repair.Decompose.base c ])
       (solve_component ?budget ?max_decisions)
       plan.Repair.Decompose.components)

let repairs ?variant ?budget ?max_decisions d ics =
  Result.map (fun r -> r.repairs) (run ?variant ?budget ?max_decisions d ics)
