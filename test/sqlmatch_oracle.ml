(* The SQL match semantics as [Semantics.Sqlmatch] first defined them,
   kept as the differential oracle of its index probes: every child tuple
   is compared with every parent tuple of the decoded relation. *)

module Value = Relational.Value
module Sqlmatch = Semantics.Sqlmatch

let parent_matches d (fk : Sqlmatch.fk) ~match_null vals =
  let parents = Relational.Instance.tuples d fk.parent in
  Relational.Tuple.Set.exists
    (fun pt ->
      List.for_all2
        (fun j v ->
          if Value.is_null v && not match_null then true
          else Value.equal pt.(j - 1) v)
        fk.parent_cols vals)
    parents

let tuple_ok (mode : Sqlmatch.mode) d (fk : Sqlmatch.fk) t =
  let vals = List.map (fun i -> t.(i - 1)) fk.child_cols in
  let any_null = List.exists Value.is_null vals in
  let all_null_match = parent_matches d fk ~match_null:true vals in
  let all_null = List.for_all Value.is_null vals in
  match mode with
  | Simple -> any_null || all_null_match
  | Partial -> all_null || parent_matches d fk ~match_null:false vals
  | Full -> (not any_null) && all_null_match

let violations mode d (fk : Sqlmatch.fk) =
  Relational.Tuple.Set.fold
    (fun t acc -> if tuple_ok mode d fk t then acc else t :: acc)
    (Relational.Instance.tuples d fk.child)
    []
