module Atom = Relational.Atom
module Instance = Relational.Instance
module Value = Relational.Value

let delta = Instance.symdiff

(* Does [b] agree with [a] on every non-null position of [a]?  Same
   predicate and arity are required. *)
let matches_non_null_positions a b =
  String.equal (Atom.pred a) (Atom.pred b)
  && Atom.arity a = Atom.arity b
  &&
  let ta = Atom.args a and tb = Atom.args b in
  let rec go i =
    i >= Array.length ta
    || ((Value.is_null ta.(i) || Value.equal ta.(i) tb.(i)) && go (i + 1))
  in
  go 0

(* Definition 6 on the deltas [Delta(D, D')] and [Delta(D, D'')]. *)
let leq_deltas delta' delta'' =
  Atom.Set.for_all
    (fun a ->
      Atom.Set.mem a delta''
      || Atom.has_null a
         && Atom.Set.exists
              (fun b -> matches_non_null_positions a b && not (Atom.Set.mem b delta'))
              delta'')
    delta'

let delta_set d d' = Instance.atom_set (delta d d')
let leq ~d d' d'' = leq_deltas (delta_set d d') (delta_set d d'')
let lt ~d d' d'' = leq ~d d' d'' && not (leq ~d d'' d')

let minimal_among ?budget ~d candidates =
  (* Dedup through the ordered comparator instead of pairwise [equal] scans:
     [Instance.compare] is a cheap map comparison, and sorting keeps the
     result deterministic for callers that print repair lists.  Each
     candidate's delta is computed once, not once per pair it takes part
     in.  Thousands of candidates take seconds (the filter is quadratic),
     so both passes poll the deadline once per candidate. *)
  let poll () = Option.iter Budget.check_deadline budget in
  let uniq = List.sort_uniq Instance.compare candidates in
  let deltas = List.map (fun c -> poll (); (c, delta_set d c)) uniq in
  let lt_deltas x y = leq_deltas x y && not (leq_deltas y x) in
  List.filter_map
    (fun (c, dc) ->
      poll ();
      if List.exists (fun (_, dy) -> lt_deltas dy dc) deltas then None else Some c)
    deltas
