(* The decomposed enumeration before its recombination: the model-theoretic
   search of every conflict component of [d]'s plan
   (Repair.Enumerate.solve_component), merged by Repair.Decompose.solve's
   prefix rule.  Tests read the per-component results that the recombined
   repair list of Query.Cqa.repairs hides: each component's minimal
   repairs and explored states, and the budget trip. *)

module Decompose = Repair.Decompose

type t = {
  plan : Decompose.plan;
  minimal : Relational.Instance.t list list;
      (** per component, in plan order; from the first trip on, the
          component's unrepaired base slice as sole entry *)
  explored : int list;  (** states explored per component, [0] past a trip *)
  exhausted : Budget.exhausted option;
}

let enumerate ?budget ?jobs d ics =
  let plan = Decompose.plan ?budget d ics in
  let filler c = ([ Decompose.base c ], [], 0) in
  match
    Decompose.solve ?budget ?jobs ~filler
      (Repair.Enumerate.solve_component ?budget plan)
      plan.Decompose.components
  with
  | Error msg -> failwith msg (* the search trips, it never fails *)
  | Ok (solved, _, exhausted) ->
      {
        plan;
        minimal = List.map (fun (m, _, _) -> m) solved;
        explored = List.map (fun (_, _, e) -> e) solved;
        exhausted;
      }
