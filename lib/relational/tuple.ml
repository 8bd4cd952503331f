type t = Value.t array

let make vs = Array.of_list vs
let of_array a = a
let to_list = Array.to_list
let arity = Array.length

(* Top-level recursions, not local closures: a local [go] captured [a]
   and [b] and allocated per call, and every set of tuples sorts through
   these. *)
let rec equal_from (a : t) (b : t) i =
  i >= Array.length a || (Value.equal a.(i) b.(i) && equal_from a b (i + 1))

let equal a b = Array.length a = Array.length b && equal_from a b 0

let rec compare_from (a : t) (b : t) i =
  if i >= Array.length a then 0
  else
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_from a b (i + 1)

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b 0

let hash t = Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) 17 t

let has_null t = Array.exists Value.is_null t
let all_non_null t = not (has_null t)

let project positions t =
  let n = Array.length t in
  let pick i =
    if i < 1 || i > n then
      invalid_arg
        (Printf.sprintf "Tuple.project: position %d out of range 1..%d" i n)
    else t.(i - 1)
  in
  Array.of_list (List.map pick positions)

let pp ppf t =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") Value.pp) t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
