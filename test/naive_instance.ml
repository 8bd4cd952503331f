(* The representation [Relational.Instance] had before it went columnar:
   a functional map of tuple sets, kept as the differential oracle of
   test_relational's "columnar = Naive oracle" properties.  Its operational
   semantics (iteration order, comparison order, printed form) is the
   contract the columnar code must reproduce byte for byte. *)

open Relational
module Smap = Map.Make (String)
module Vset = Set.Make (Value)
module Tset = Set.Make (Tuple)

type t = Tset.t Smap.t

let empty = Smap.empty
let is_empty d = Smap.for_all (fun _ ts -> Tset.is_empty ts) d

let add a d =
  let p = Atom.pred a and t = Atom.args a in
  let prev = Option.value ~default:Tset.empty (Smap.find_opt p d) in
  Smap.add p (Tset.add t prev) d

let remove a d =
  let p = Atom.pred a and t = Atom.args a in
  match Smap.find_opt p d with
  | None -> d
  | Some ts ->
      let ts = Tset.remove t ts in
      if Tset.is_empty ts then Smap.remove p d else Smap.add p ts d

let mem a d =
  match Smap.find_opt (Atom.pred a) d with
  | None -> false
  | Some ts -> Tset.mem (Atom.args a) ts

let of_atoms atoms = List.fold_left (fun d a -> add a d) empty atoms

let fold f d acc =
  Smap.fold
    (fun p ts acc ->
      Tset.fold (fun t acc -> f (Atom.of_tuple p t) acc) ts acc)
    d acc

let atoms d = List.rev (fold (fun a acc -> a :: acc) d [])
let atom_set d = fold Atom.Set.add d Atom.Set.empty

let filter f d =
  Smap.filter_map
    (fun p ts ->
      let ts = Tset.filter (fun t -> f (Atom.of_tuple p t)) ts in
      if Tset.is_empty ts then None else Some ts)
    d

let cardinal d = Smap.fold (fun _ ts n -> n + Tset.cardinal ts) d 0

let preds d =
  Smap.fold
    (fun p ts acc -> if Tset.is_empty ts then acc else p :: acc)
    d []
  |> List.rev

let tuple_set d p = Option.value ~default:Tset.empty (Smap.find_opt p d)
let tuples d p = Tuple.Set.of_list (Tset.elements (tuple_set d p))

let merge_with op a b =
  Smap.merge
    (fun _ x y ->
      let x = Option.value ~default:Tset.empty x in
      let y = Option.value ~default:Tset.empty y in
      let r = op x y in
      if Tset.is_empty r then None else Some r)
    a b

let union = merge_with Tset.union
let diff = merge_with Tset.diff
let inter = merge_with Tset.inter
let symdiff a b = union (diff a b) (diff b a)
let subset a b = Smap.for_all (fun p ts -> Tset.subset ts (tuple_set b p)) a
let compare a b = Smap.compare Tset.compare a b
let equal a b = compare a b = 0

let active_domain d =
  let vs =
    fold
      (fun a acc ->
        Array.fold_left (fun acc v -> Vset.add v acc) acc (Atom.args a))
      d Vset.empty
  in
  Vset.elements vs

let active_domain_non_null d =
  List.filter (fun v -> not (Value.is_null v)) (active_domain d)

let null_count d =
  fold
    (fun a n ->
      Array.fold_left
        (fun n v -> if Value.is_null v then n + 1 else n)
        n (Atom.args a))
    d 0

let pp ppf d = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Atom.pp) (atoms d)

let pp_inline ppf d =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Atom.pp) (atoms d)
