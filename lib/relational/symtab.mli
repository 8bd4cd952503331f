(** Process-global symbol table interning {!Value.t} into dense int codes.

    The columnar instance representation ({!Instance}) stores tuples as int
    arrays of codes; the table is the single source of truth for the
    code <-> value bijection.  Interning is idempotent — equal values always
    receive the same code — and codes are never recycled, so a code obtained
    from any instance stays valid for the life of the process.

    The table is domain-safe: {!intern}, {!intern_row} and {!find}
    serialize on a private mutex, {!value} is a lock-free read of an
    atomically published array (the parallel repair workers of
    [lib/parallel] decode rows concurrently while the main domain may
    still be interning).  The index from values to codes is int arrays
    only (an int value is its own key; a string is keyed by its hash and
    confirmed against its decoded value), so it holds no pointer for the
    collector to scan. *)

val null_id : int
(** The code of {!Value.null}, always [0] — null probes and per-segment
    null counters test codes against this constant without a lookup. *)

val intern : Value.t -> int
(** The code of the value, allocating a fresh one on first sight. *)

val intern_all : Value.t array -> int array
(** {!intern} on every value, under one acquisition of the lock. *)

val intern_row : Value.t array -> int -> int array -> int -> unit
(** [intern_row vs n dst off] writes the codes of [vs.(0) .. vs.(n-1)] to
    [dst.(off) .. dst.(off + n - 1)] under one acquisition of the lock.
    Bulk builders take the lock once per row this way, never for a whole
    load: other domains (a server's live sessions) intern between rows. *)

val find : Value.t -> int option
(** The code of the value if it has ever been interned, without allocating
    one — joins use this so that a seed holding a never-seen constant is a
    cheap miss. *)

val value : int -> Value.t
(** Decode.  @raise Invalid_argument on a code never handed out. *)

val is_null : int -> bool
val size : unit -> int
(** Number of interned values (monotone). *)
