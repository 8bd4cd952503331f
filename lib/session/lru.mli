(** A bounded least-recently-used cache with hit/miss/evict telemetry.

    The session engine ({!Session}) keys per-component repair solves by
    content or shape; this cache bounds how many solved components stay
    resident.  [find] promotes, [add] inserts at the front and evicts from
    the back once [capacity] is exceeded.  Every probe is counted, so the
    serving loop can surface hit rates without instrumenting call sites.

    Thread-safe: every operation (including the counter reads) takes an
    internal mutex, so the cache can be shared process-globally across
    server connection threads and worker domains.  Counters stay coherent
    under concurrency — [hits + misses] always equals the number of
    completed probes.  Note that [find]-then-[add] is still two separate
    critical sections: two sessions can both miss the same key and both
    solve it; the second [add] harmlessly overwrites the first with an
    equal value (component solves are deterministic). *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
(** [capacity <= 0] disables storage: every [find] misses and [add] is a
    no-op — useful to measure the cache's benefit by switching it off. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** [Some] promotes the entry to most-recently-used and counts a hit;
    [None] counts a miss. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert (or overwrite, promoting) as most-recently-used; evicts the
    least-recently-used entry when the cache would exceed its capacity. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership probe without promotion and without touching the counters
    (for tests). *)

val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int
val evictions : ('k, 'v) t -> int

val clear : ('k, 'v) t -> unit
(** Drop every entry; the counters survive (they describe the session, not
    the current residency). *)
