type t = { pred : string; args : Tuple.t }

let make pred vs = { pred; args = Tuple.make vs }
let of_tuple pred args = { pred; args }
let pred a = a.pred
let args a = a.args
let arity a = Tuple.arity a.args

let equal a b = String.equal a.pred b.pred && Tuple.equal a.args b.args

let compare a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c else Tuple.compare a.args b.args

let has_null a = Tuple.has_null a.args

let pp ppf a =
  Fmt.pf ppf "%s(%a)" a.pred Fmt.(array ~sep:(any ", ") Value.pp) a.args

let to_string a = Fmt.str "%a" pp a

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
