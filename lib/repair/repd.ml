let conflicting_nncs ics =
  List.filter
    (fun nnc ->
      match nnc with
      | Ic.Constr.Generic _ -> false
      | Ic.Constr.NotNull n ->
          List.exists
            (fun ic ->
              match ic with
              | Ic.Constr.NotNull _ -> false
              | Ic.Constr.Generic g ->
                  let zs = Ic.Constr.existential_vars g in
                  List.exists
                    (fun a ->
                      String.equal (Ic.Patom.pred a) n.pred
                      &&
                      match List.nth_opt (Ic.Patom.terms a) (n.pos - 1) with
                      | Some (Ic.Term.Var x) -> List.mem x zs
                      | Some (Ic.Term.Const _) | None -> false)
                    g.Ic.Constr.cons)
            ics)
    ics

let repairs_d ?budget d ics =
  let reps = Enumerate.repairs ?budget d ics in
  match conflicting_nncs ics with
  | [] -> reps
  | conflicting ->
      let ic' =
        List.filter
          (fun ic -> not (List.exists (Ic.Constr.equal ic) conflicting))
          ics
      in
      let reps' = Enumerate.repairs ?budget d ic' in
      List.filter
        (fun r -> not (List.exists (fun r' -> Order.lt ~d r' r) reps'))
        reps
