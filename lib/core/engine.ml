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

(* Ground and solve one repair program.  Raises the grounder's and the
   solver's [Budget.Exhausted]; [run] and [solve_component] below are the
   conversion boundaries — no exception escapes a public Engine API. *)
let run_exn ?budget ?(shift = true) d ics (pg : Proggen.t) =
  let ground = Asp.Grounder.ground ?budget pg.Proggen.program in
  let solvable, shifted =
    if shift then Asp.Shift.if_hcf ground else (ground, false)
  in
  (* [if_hcf] shifts exactly the head-cycle-free programs *)
  let hcf = if shift then shifted else Asp.Hcf.is_hcf ground in
  let stats = Asp.Solver.new_stats () in
  let models = Asp.Solver.stable_models_atoms ?budget ~stats solvable in
  let extracted = Extract.databases_of_models pg.Proggen.names models in
  (* For RIC-acyclic IC the stable models are exactly the repairs
     (Theorem 4) and this filter is a no-op.  For cyclic sets the
     disjunctive rules can support deletion cascades circularly (a
     delete-advice on the RIC side firing the UIC rule and vice versa),
     producing stable models whose databases are consistent but not
     <=_D-minimal; filtering recovers Rep(D, IC). *)
  let repairs = Repair.Order.minimal_among ?budget ~d extracted in
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

let run ?variant ?shift ?budget d ics =
  Result.bind (Proggen.repair_program ?variant d ics) (fun pg ->
      Budget.guard (fun () -> Ok (run_exn ?budget ?shift d ics pg)))

type components_result = {
  solved : Relational.Instance.t list list;
  exhausted : Budget.exhausted option;
}

let solve_component ?budget (c : Repair.Decompose.component) =
  let base = Repair.Decompose.base c in
  let ics = c.Repair.Decompose.ics in
  match
    Result.map
      (run_exn ?budget base ics)
      (Proggen.repair_program base ics)
  with
  | Ok report -> Repair.Decompose.Solved report.repairs
  | Error msg -> Repair.Decompose.Failed msg
  | exception Budget.Exhausted e -> Repair.Decompose.Tripped e

let solve_components ?budget ?jobs
    (plan : Repair.Decompose.plan) =
  Result.map
    (fun (solved, _, exhausted) -> { solved; exhausted })
    (Repair.Decompose.solve ?budget ?jobs
       ~filler:(fun c -> [ Repair.Decompose.base c ])
       (solve_component ?budget)
       plan.Repair.Decompose.components)

let repairs ?variant ?budget d ics =
  Result.map (fun r -> r.repairs) (run ?variant ?budget d ics)
