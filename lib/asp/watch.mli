(** Two-watched-literal clause database with a level-tagged trail — the
    propagation core of the CDCL search of {!Solver}.

    Literals are ints: atom [a] is [2a] positive, [2a + 1] negative;
    complementation is [lxor 1].  The database owns the assignment (value,
    decision level and reason clause per atom), the trail of assigned-true
    literals, and the watch lists; {!Solver} layers branching, support
    propagation and model enumeration on top, {!Learn} the 1UIP conflict
    analysis.

    Unlike per-rule occurrence counters, assigning an atom costs O(1) here
    and only {!propagate} walks clauses — and only the clauses watching a
    literal that actually became false.  Clauses added mid-search (learned
    nogoods, materialized support reasons) are watched on their asserting
    literal and one currently-false literal; after deep backjumps their unit
    detection can weaken until re-touched, which the CDCL driver
    compensates with its support re-scan — full falsifications are always
    caught, so no spurious model can slip through. *)

type t

val unk : int
val tru : int
val fls : int

val create : int -> t
(** [create n] — a database over atoms [0 .. n-1], no clauses, level 0. *)

val atom_count : t -> int

val atom_value : t -> int -> int
(** Current value of an atom: {!unk}, {!tru} or {!fls}. *)

val lit_value : t -> int -> int
val lit_is_true : t -> int -> bool
val lit_is_false : t -> int -> bool

val level_of : t -> int -> int
(** Decision level at which the atom was assigned (meaningful only while
    assigned). *)

val reason_of : t -> int -> int
(** Reason clause id of the atom's assignment, or [-1] for decisions and
    unassigned atoms. *)

val decision_level : t -> int
val trail_size : t -> int

val trail_lit : t -> int -> int
(** [trail_lit t i] — the [i]-th assigned-true literal, assignment order. *)

val clause_lits : t -> int -> int array
(** The literal array of a clause id.  Shared, mutated by {!propagate}
    (watch reordering); the literal at index 0 of a reason clause is the
    literal it propagated, stable while that literal stays assigned. *)

val add_clause : t -> int array -> int
(** Store a clause and watch its first two literals; returns its id.  The
    caller guarantees the array is non-empty, duplicate-free and not
    tautological.  Length-1 clauses get no watches — enqueue their literal
    explicitly.  Mid-search additions must place the literal about to be
    enqueued at index 0 and a currently-false literal at index 1. *)

val push_level : t -> unit
(** Open a new decision level (call before enqueueing the decision). *)

val enqueue : t -> reason:int -> int -> bool
(** Make a literal true at the current level with the given reason clause
    ([-1] for a decision).  Returns [false] iff the literal is already
    false — the caller turns that into a conflict.  Already-true is a
    no-op. *)

val propagate : t -> int
(** Run watched-literal unit propagation to fixpoint from the trail
    frontier.  Returns a conflict clause id, or [-1]. *)

val backjump : t -> int -> on_undo:(int -> unit) -> unit
(** [backjump t lvl ~on_undo] pops the trail down to (and keeping) level
    [lvl]; [on_undo] sees each popped literal before its atom is cleared,
    newest first.  Resets the propagation frontier. *)

val touched : t -> int
(** Cumulative clauses visited by {!propagate} — the CDCL side of the
    [rules_touched] statistic. *)
