module Value = Relational.Value
module Vset = Set.Make (Value)

let constants_of_term acc = function
  | Ic.Term.Const v -> Vset.add v acc
  | Ic.Term.Var _ -> acc

let constants_of_expr acc (e : Ic.Builtin.expr) =
  constants_of_term acc e.Ic.Builtin.base

let constants_of_builtin acc = function
  | Ic.Builtin.False -> acc
  | Ic.Builtin.Cmp (_, a, b) -> constants_of_expr (constants_of_expr acc a) b

let constants_of_ic acc = function
  | Ic.Constr.NotNull _ -> acc
  | Ic.Constr.Generic g ->
      let acc =
        List.fold_left
          (fun acc atom ->
            List.fold_left constants_of_term acc (Ic.Patom.terms atom))
          acc
          (g.Ic.Constr.ante @ g.Ic.Constr.cons)
      in
      List.fold_left constants_of_builtin acc g.Ic.Constr.phi

let constants_of_ics ics =
  Vset.elements (List.fold_left constants_of_ic Vset.empty ics)

(* [adom(D)] is memoized, sorted and deduplicated, so the few constants of
   the constraints and [null] merge into it in one linear pass.  When it
   already holds all of them (no constraint constant, a null present) the
   memoized list itself is the universe. *)
let universe d ics =
  let adom = Relational.Instance.active_domain d in
  let extra = List.sort_uniq Value.compare (Value.null :: constants_of_ics ics) in
  let rec covers xs ys =
    match (xs, ys) with
    | _, [] -> true
    | [], _ :: _ -> false
    | x :: xs', y :: ys' ->
        let c = Value.compare x y in
        if c < 0 then covers xs' ys else c = 0 && covers xs' ys'
  in
  let rec merge acc xs ys =
    match (xs, ys) with
    | rest, [] | [], rest -> List.rev_append acc rest
    | x :: xs', y :: ys' ->
        let c = Value.compare x y in
        if c < 0 then merge (x :: acc) xs' ys
        else if c > 0 then merge (y :: acc) xs ys'
        else merge (x :: acc) xs' ys'
  in
  if covers adom extra then adom else merge [] adom extra

let universe_non_null d ics =
  List.filter (fun v -> not (Value.is_null v)) (universe d ics)
