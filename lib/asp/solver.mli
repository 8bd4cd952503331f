(** Stable-model enumeration for ground disjunctive programs
    (Gelfond-Lifschitz semantics [18]).

    {!stable_models} is the one search: conflict-driven clause learning
    over the classical clause view of the rules — two-watched-literal
    propagation ({!Watch}), first-UIP learned nogoods with
    non-chronological backjumping ({!Learn}), VSIDS branching and Luby
    restarts.  The tests and the bench compare it against a sweep-based
    reference search, a chronological DPLL that lives with the other
    oracles under [test/oracle/].

    The search enumerates every total model of the program, completing
    each all-rules-satisfied partial assignment with false (sound: an
    unassigned atom set to true in a stable model would be unsupported).
    Every candidate model [M] is then verified stable:

    - for a {e normal} candidate program (every head a singleton) the
      Gelfond-Lifschitz reduct [P^M] is definite and [M] is stable iff it
      equals the least model of [P^M] (computed by Dowling-Gallier
      counting);
    - for a disjunctive program the reduct is positive-disjunctive, and
      stability means [<=]-minimality: a secondary search looks for a model
      of the reduct properly contained in [M] (this sub-problem is the
      coNP-hard part of the Pi^p_2-completeness of the semantics [16]).

    Support propagation is {e counter-based}: every rule keeps a count of
    the body literals the assignment falsifies, every atom a count of its
    live supporters (head occurrences in rules whose body is not yet
    classically false), and both are updated from the occurrence index of
    the ground program ({!Ground.index}) as literals are assigned and
    undone.  A true atom with no live supporter is a conflict; with one,
    that supporter's body is forced.  Each such inference is materialized
    as a clause, so conflict analysis resolves over it.  See DESIGN.md,
    "Solver architecture".

    Atoms that occur in no rule head are fixed to false up front — they are
    unsupported in every stable model. *)

type stats = {
  mutable decisions : int;       (** branch points explored *)
  mutable propagations : int;    (** literals forced by unit propagation *)
  mutable candidates : int;      (** total models reaching the stability check *)
  mutable minimality_checks : int;  (** disjunctive minimality sub-searches *)
  mutable queue_pushes : int;
      (** support-check worklist insertions; always 0 for the sweep-based
          reference search of the tests *)
  mutable rules_touched : int;
      (** rules examined by support propagation: supporter-list scans for
          {!stable_models}; the reference search counts one per rule per
          sweep, plus supporter-list lengths *)
  mutable conflicts : int;
      (** falsified clauses hit by the search (0 for the reference) *)
  mutable learned : int;  (** nogoods added by conflict analysis *)
  mutable restarts : int;  (** Luby restarts taken *)
  mutable backjump_len : int;
      (** total decision levels undone by non-chronological backjumps —
          divide by [learned] for the mean jump length *)
  mutable phase_saved : int;
      (** VSIDS decisions that re-used a saved true polarity (phase
          saving): each counted decision re-tried the polarity the atom
          held when a backjump or restart unassigned it, instead of the
          engine's default false *)
}

val stable_models :
  ?budget:Budget.ctl -> ?limit:int ->
  ?support_propagation:bool -> ?stats:stats -> Ground.t -> int list list
(** All stable models as sorted lists of atom ids; [limit] caps how many are
    returned ([limit <= 0] returns [[]] without searching).  [budget] is
    the run-global budget: every decision also ticks it and every conflict
    checks the deadline, so a shared decision limit and the wall-clock
    deadline are enforced across the stages of an engine run; the
    per-search cap {!Budget.search_decisions} bounds this search alone.
    [support_propagation] (default true) enables the supportedness
    propagation described above; disabling it is only useful for the
    ablation bench (table E12) — the result is identical, the search
    exponentially wider.
    @raise Budget.Exhausted when [budget] trips or the search makes more
    than {!Budget.search_decisions} decisions; public engine APIs catch it
    and return [Error] — see {!Budget}. *)

val stable_models_atoms :
  ?budget:Budget.ctl -> ?limit:int -> ?stats:stats -> Ground.t ->
  Ground.gatom list list
(** {!stable_models} with atoms resolved, each model sorted. *)

val is_stable_model : ?stats:stats -> Ground.t -> int list -> bool
(** Is the given set of atom ids a stable model?  A disjunctive
    minimality sub-search counts in [stats.minimality_checks].  (Used by
    the tests and by the reference search of the tests, which verifies
    its candidates with it.) *)

val new_stats : unit -> stats
val pp_stats : stats Fmt.t

val pp_search_stats : stats Fmt.t
(** The CDCL counters:
    [conflicts=… learned=… restarts=… backjump_len=… phase_saved=…]
    (all zero after a run of the reference search of the tests). *)

val cautious :
  ?budget:Budget.ctl -> ?stats:stats -> Ground.t -> int list option
(** Atoms true in every stable model, ascending; [None] if there is no
    stable model (by convention of cautious reasoning over an inconsistent
    program every atom is a consequence, so the caller decides what that
    means). *)

val brave : ?budget:Budget.ctl -> ?stats:stats -> Ground.t -> int list option
(** Atoms true in at least one stable model, ascending; [None] if there is
    no stable model. *)
