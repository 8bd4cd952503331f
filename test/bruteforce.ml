(* Brute-force reference implementation of Definition 7, the oracle the
   conflict-driven enumerator is cross-checked against on tiny instances.

   Enumerates every instance over the Proposition-1 universe (all subsets
   of all ground atoms over [schema], which lists every predicate with its
   arity, since insertions may involve predicates absent from [D]), keeps
   the consistent ones and filters by [<=_D]-minimality.  Doubly
   exponential in practice, so [max_base_atoms] (default 20) guards the
   ground-atom base. *)

module Instance = Relational.Instance

exception Too_large of int

(* every ground atom over the predicates/arities of [schema] and [values] *)
let all_atoms ~schema values =
  let rec tuples n =
    if n = 0 then [ [] ]
    else
      let rest = tuples (n - 1) in
      List.concat_map (fun v -> List.map (fun t -> v :: t) rest) values
  in
  List.concat_map
    (fun (pred, arity) ->
      List.map (fun t -> Relational.Atom.make pred t) (tuples arity))
    schema

let repairs ?(max_base_atoms = 20) ~schema d ics =
  let universe = Repair.Candidates.universe d ics in
  let base = all_atoms ~schema universe in
  (* the original atoms must be part of the base even if their predicate is
     missing from [schema] *)
  let base =
    List.fold_left
      (fun acc a -> if List.exists (Relational.Atom.equal a) acc then acc else a :: acc)
      base (Instance.atoms d)
  in
  let n = List.length base in
  if n > max_base_atoms then raise (Too_large n);
  let arr = Array.of_list base in
  let consistent = ref [] in
  let total = 1 lsl n in
  for mask = 0 to total - 1 do
    let inst = ref Instance.empty in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then inst := Instance.add arr.(i) !inst
    done;
    if Semantics.Nullsat.consistent !inst ics then
      consistent := !inst :: !consistent
  done;
  Repair.Order.minimal_among ~d (List.rev !consistent)
