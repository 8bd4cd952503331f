(** Parallel-execution configuration, threaded as [~jobs] through the
    decomposed engines.

    [jobs = 1] (the default everywhere) is the sequential path: no pool,
    no domains, bit-for-bit the pre-parallel engine.  [jobs = 0] on the
    CLI means "auto": [Domain.recommended_domain_count ()]. *)

val resolve : int -> int
(** [resolve 0] is [Domain.recommended_domain_count ()]; any other value
    is clamped to at least [1]. *)
