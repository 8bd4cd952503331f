(* Reference CQA for the decomposed pipeline of Query.Cqa. *)

module Tuple = Relational.Tuple
module Decompose = Repair.Decompose
module Qeval = Query.Qeval
module Qsyntax = Query.Qsyntax
module Cqa = Query.Cqa

(* Definition 8 over the whole instance: every repair of D materialized by
   one search, the search of Definition 7 ([ModelTheoretic]) or the stable
   models of the program of Definition 9 ([LogicProgram]), and the query
   evaluated in each.  No plan, no component, no factorization: the
   pipeline must give the same outcome. *)
let monolithic ?semantics ?budget ~method_ d ics q =
  let repairs =
    match (method_ : Cqa.method_) with
    | Cqa.ModelTheoretic ->
        Budget.guard (fun () -> Ok (Repair.Enumerate.repairs ?budget d ics))
    | Cqa.LogicProgram -> Core.Engine.repairs ?budget d ics
    | Cqa.CautiousProgram | Cqa.Auto ->
        invalid_arg "Cqa_oracle.monolithic: a materializing method"
  in
  Result.map
    (fun repairs ->
      let sets = List.map (fun r -> Qeval.answers ?semantics r q) repairs in
      {
        Cqa.consistent =
          (match sets with
          | [] -> Tuple.Set.empty
          | s :: rest -> List.fold_left Tuple.Set.inter s rest);
        possible = List.fold_left Tuple.Set.union Tuple.Set.empty sets;
        standard = Qeval.answers ?semantics d q;
        repair_count = List.length repairs;
        exhausted = None;
      })
    repairs

(* The factorized answer algebra of a single-atom query with the core's
   answers evaluated: [Qeval.answers ?semantics plan.core q] is the base,
   and every component mentioning the query's predicate adds the
   intersection (consistent) and the union (possible) of its repairs'
   answers.  [Query.Cqa.factorized_outcome] derives the base from the
   standard answers instead; the differential in test_decompose.ml holds
   it to this formula on exact plans. *)

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
