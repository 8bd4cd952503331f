(** Process-global symbol table interning {!Value.t} into dense int codes.

    The columnar instance representation ({!Instance}) stores tuples as int
    arrays of codes; the table is the single source of truth for the
    code <-> value bijection.  Interning is idempotent — equal values always
    receive the same code — and codes are never recycled, so a code obtained
    from any instance stays valid for the life of the process.

    The table is domain-safe: {!intern} and {!find} serialize on a private
    mutex, {!value} is a lock-free read of an atomically published array
    (the parallel repair workers of [lib/parallel] decode rows concurrently
    while the main domain may still be interning). *)

val null_id : int
(** The code of {!Value.null}, always [0] — null probes and per-segment
    null counters test codes against this constant without a lookup. *)

val intern : Value.t -> int
(** The code of the value, allocating a fresh one on first sight. *)

val intern_all : Value.t array -> int array
(** {!intern} on every value, under one acquisition of the lock. *)

val find : Value.t -> int option
(** The code of the value if it has ever been interned, without allocating
    one — membership probes use this so that looking up a tuple built from
    never-seen constants is a cheap miss. *)

val value : int -> Value.t
(** Decode.  @raise Invalid_argument on a code never handed out. *)

val is_null : int -> bool
val size : unit -> int
(** Number of interned values (monotone). *)
