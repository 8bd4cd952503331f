(** Database tuples: finite sequences of constants in [U]. *)

type t = Value.t array

val make : Value.t list -> t
val of_array : Value.t array -> t
val to_list : t -> Value.t list
val arity : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val has_null : t -> bool
(** True iff some position holds [null]. *)

val all_non_null : t -> bool

val project : int list -> t -> t
(** [project positions t] keeps the 1-based [positions], in the given order.
    This is the projection [Pi_A(t)] of Definition 3.
    @raise Invalid_argument if a position is out of range. *)

val pp : t Fmt.t

(** Answer sets: immutable arrays of tuples, sorted by {!compare} and
    pairwise distinct.  They are built in bulk and combined by merges, so
    there is no [add] and no [remove] (an instance's overlay, which needs
    them, keeps a tree of its own).  [fold] and [elements] go in {!compare}
    order.

    A combination that changes nothing returns an input physically: a
    [union] that adds nothing its larger side, an [inter] that keeps all of
    its smaller side that side, a [diff] that removes nothing its left
    side.  The merges search each element of one side in the other from
    the previous element's place, by probes of growing stride, so
    combining [m] elements with [n >= m] costs [O(m log (n / m + 1))]
    compares, plus the copy of a result that differs from both sides. *)
module Set : sig
  type elt = t
  type t

  val empty : t
  val singleton : elt -> t

  val of_array : elt array -> t
  (** The set of the array's tuples, made in place: the array is the
      set's, and the caller must not use it afterwards.  One pass checks
      the order and drops duplicates; the array is sorted first only when
      it is out of order, so a walk already in {!compare} order costs
      [n - 1] compares. *)

  val of_list : elt list -> t
  val is_empty : t -> bool
  val cardinal : t -> int

  val mem : elt -> t -> bool
  (** A binary search. *)

  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val subset : t -> t -> bool

  val equal : t -> t -> bool
  (** Physical equality, then the lengths, then the elements. *)

  val exists : (elt -> bool) -> t -> bool
  val fold : (elt -> 'a -> 'a) -> t -> 'a -> 'a
  val elements : t -> elt list
end
