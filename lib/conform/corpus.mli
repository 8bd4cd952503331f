(** Generated scenario families: parameterized generators that emit both
    the surface scenario and its closed-form expectations (repair counts
    from the independent-choice structure, certain/possible sets from
    which tuples survive every/some repair) — the engines are checked
    against combinatorics derived without running any engine. *)

val fk_chain :
  name:string ->
  parents:int ->
  children:int ->
  orphan_children:int ->
  orphan_grandchildren:int ->
  unit ->
  Case.t
(** Binary FK chain P <- C <- G; [2^(oc+og)] repairs (delete the orphan
    or insert the null-padded, |=_N-vacuous parent). *)

val fd_cluster :
  name:string -> rows:int -> conflicts:int -> width:int -> unit -> Case.t
(** [conflicts] clusters of [width] FD-conflicting rows:
    [width^conflicts] repairs, each keeping one row per cluster. *)

val cyclic_ric : name:string -> complete:int -> dangling:int -> unit -> Case.t
(** RIC cycle A -> B -> C -> A; each dangling A is a two-way choice
    (delete, or insert the B/C cascade around the cycle). *)

val nnc_ric :
  name:string -> staff:int -> unassigned:int -> unaudited:int -> unit -> Case.t
(** The Example 20 conflict shape: the NNC on the RIC's existential
    attribute makes the constraint set conflicting, so [Rep(D, IC)]
    recovers the arbitrary-constant insertion repairs
    ([(|dom| + 1)^unassigned * 2^unaudited] of them) while the
    deletion-preferring [Rep_d(D, IC)] keeps only [2^unaudited].  Both
    cardinalities are pinned; the program tier (sound only for
    non-conflicting sets) is skipped by the runner. *)

val session_stream :
  name:string ->
  base:int ->
  added:int ->
  dangling:int ->
  revoked:int ->
  unit ->
  Case.t
(** A consistent base plus an insert/delete statement stream; the session
    and serve tiers replay the stream through the incremental engine. *)

val families : (string * Case.t list) list
(** The committed corpus: five families, three parameterizations each. *)

val all : Case.t list

val write_corpus : string -> string list
(** Materialize the corpus under [dir/<family>/<name>.cqa]; returns the
    written paths (in family order). *)
