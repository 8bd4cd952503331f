module Value = Relational.Value

type fk = {
  child : string;
  child_cols : int list;
  parent : string;
  parent_cols : int list;
}

let fk_of_ric ic =
  match ic with
  | Ic.Constr.NotNull _ -> None
  | Ic.Constr.Generic g -> (
      match g.Ic.Constr.ante, g.Ic.Constr.cons, g.Ic.Constr.phi with
      | [ p ], [ q ], [] ->
          let shared =
            List.filter (fun x -> List.mem x (Ic.Patom.vars q)) (Ic.Patom.vars p)
          in
          let positions_in atom x =
            Ic.Patom.positions_of atom (Ic.Term.var x)
          in
          let exception Not_fk in
          (try
             let pairs =
               List.map
                 (fun x ->
                   match positions_in p x, positions_in q x with
                   | [ i ], [ j ] -> (i, j)
                   | _ -> raise Not_fk)
                 shared
             in
             if pairs = [] then None
             else
               Some
                 {
                   child = Ic.Patom.pred p;
                   child_cols = List.map fst pairs;
                   parent = Ic.Patom.pred q;
                   parent_cols = List.map snd pairs;
                 }
           with Not_fk -> None)
      | _ -> None)

type mode = Simple | Partial | Full

let child_values fk t = List.map (fun i -> t.(i - 1)) fk.child_cols

(* Is there a parent row agreeing with the child's values (a null child
   value agrees with anything unless [match_null])?  One probe of the
   parent's postings on a value every such row holds: the first one under
   [match_null], since nulls match only nulls, the first non-null one
   otherwise.  The other values are compared on the rows of that group.
   A child of nulls only, without [match_null], agrees with any parent
   row. *)
let parent_matches d fk ~match_null vals =
  let pairs = List.combine (List.map (fun j -> j - 1) fk.parent_cols) vals in
  let agrees pt (j, v) =
    (Value.is_null v && not match_null) || (j < Array.length pt && Value.equal pt.(j) v)
  in
  match List.find_opt (fun (_, v) -> match_null || not (Value.is_null v)) pairs with
  | None -> Relational.Instance.rel_cardinal d fk.parent > 0
  | Some (pos, v) -> (
      let exception Found in
      match
        Relational.Instance.iter_matching d fk.parent ~pos v (fun pt ->
            if List.for_all (agrees pt) pairs then raise_notrace Found)
      with
      | () -> false
      | exception Found -> true)

let tuple_ok mode d fk t =
  let vals = child_values fk t in
  match mode with
  | Simple -> List.exists Value.is_null vals || parent_matches d fk ~match_null:true vals
  | Partial ->
      List.for_all Value.is_null vals || parent_matches d fk ~match_null:false vals
  | Full ->
      (not (List.exists Value.is_null vals)) && parent_matches d fk ~match_null:true vals

let violations mode d fk =
  Relational.Tuple.Set.fold
    (fun t acc -> if tuple_ok mode d fk t then acc else t :: acc)
    (Relational.Instance.tuples d fk.child)
    []

let satisfies mode d fk = violations mode d fk = []

let pp_mode ppf m =
  Fmt.string ppf
    (match m with Simple -> "simple" | Partial -> "partial" | Full -> "full")
