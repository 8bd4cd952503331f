let generic_violations d g ic =
  let matches = Assign.join_with_witness d Assign.empty g.Ic.Constr.ante in
  let consequent_holds = Nullsat.consequent_holds d g in
  List.filter_map
    (fun (theta, witness) ->
      if consequent_holds theta then None
      else Some { Nullsat.ic; theta; matched = witness })
    matches

let violations d ic =
  match ic with
  | Ic.Constr.Generic g -> generic_violations d g ic
  | Ic.Constr.NotNull _ -> Nullsat.violations d ic

let satisfies d ic = violations d ic = []
let consistent d ics = List.for_all (satisfies d) ics
