(* The factorized answer algebra of a single-atom query with the core's
   answers evaluated: [Qeval.answers ?semantics plan.core q] is the base,
   and every component mentioning the query's predicate adds the
   intersection (consistent) and the union (possible) of its repairs'
   answers.  [Query.Cqa.factorized_outcome] derives the base from the
   standard answers instead; the differential in test_decompose.ml holds
   it to this formula on exact plans. *)

module Tuple = Relational.Tuple
module Decompose = Repair.Decompose
module Qeval = Query.Qeval
module Qsyntax = Query.Qsyntax
module Cqa = Query.Cqa

let single_atom_outcome ?semantics ?exhausted ~(plan : Decompose.plan) ~minimal
    ~standard (q : Qsyntax.t) =
  let eval r = Qeval.answers ?semantics r q in
  let qpreds = Qsyntax.preds q in
  let relevant =
    List.filter
      (fun ((c : Decompose.component), _) ->
        Relational.Atom.Set.exists
          (fun a -> List.mem (Relational.Atom.pred a) qpreds)
          c.Decompose.atoms)
      (List.combine plan.Decompose.components minimal)
  in
  let repair_count = Decompose.count_product (List.map List.length minimal) in
  match relevant with
  | [] ->
      { Cqa.consistent = standard; possible = standard; standard; repair_count;
        exhausted }
  | _ ->
      let base = eval plan.Decompose.core in
      let per_component =
        List.map
          (fun (_, reps) ->
            let sets = List.map eval reps in
            ( List.fold_left Tuple.Set.inter (List.hd sets) (List.tl sets),
              List.fold_left Tuple.Set.union Tuple.Set.empty sets ))
          relevant
      in
      {
        Cqa.consistent =
          List.fold_left (fun acc (i, _) -> Tuple.Set.union acc i) base per_component;
        possible =
          List.fold_left (fun acc (_, u) -> Tuple.Set.union acc u) base per_component;
        standard;
        repair_count;
        exhausted;
      }
