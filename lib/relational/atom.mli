(** Ground database atoms [P(c1, ..., cn)]. *)

type t = { pred : string; args : Tuple.t }

val make : string -> Value.t list -> t
val of_tuple : string -> Tuple.t -> t
val pred : t -> string
val args : t -> Tuple.t
val arity : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val has_null : t -> bool

val pp : t Fmt.t
val to_string : t -> string

module Set : Set.S with type elt = t
