(** First-UIP conflict analysis, VSIDS branching activities and the Luby
    restart sequence — the learning half of the CDCL search of {!Solver}
    (the propagation half is {!Watch}). *)

type t
(** Analysis state over a fixed atom universe: per-atom activities and the
    resolution scratch marks. *)

val create : int -> t

val activity : t -> int -> float
(** Current VSIDS activity of an atom; the branching heuristic picks the
    unassigned atom maximizing it. *)

val save_phase : t -> int -> bool -> unit
(** Remember the polarity an atom held when it was unassigned (phase
    saving): the next VSIDS decision on it re-tries that polarity, so work
    proven about a subtree survives restarts and long backjumps. *)

val phase : t -> int -> bool
(** The saved polarity (false until {!save_phase} stores true). *)

val bump : t -> int -> unit
(** Add the current increment to an atom's activity (rescaling everything
    near overflow). *)

val decay : t -> unit
(** Age all activities by growing the increment — one float op per
    conflict. *)

val luby : int -> int
(** The reluctant-doubling sequence [1 1 2 1 1 2 4 ...], 1-indexed;
    restart [i] fires after [base * luby i] conflicts. *)

val analyze : t -> Watch.t -> int array -> int array * int
(** [analyze t w conflict] — 1UIP resolution of [conflict], a clause whose
    literals are all false under [w]'s assignment with at least one at the
    current decision level (which must be positive).  Returns the learned
    clause (asserting literal at index 0, a deepest remaining literal at
    index 1, level-0 literals dropped) and the backjump level.  Bumps every
    resolved-over atom. *)
