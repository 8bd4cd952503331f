(** Unified resource budgets for the CQA engines.

    CQA under null-based repairs is Pi^p_2-complete (Theorem 3), so every
    engine in this repository runs under a budget.  This module is the one
    place those budgets are defined: a {!limits} record combines the state
    limit of the model-theoretic repair search ({!Repair.Enumerate}), the
    decision limit of the stable-model solver ({!Asp.Solver}) and a
    wall-clock deadline, and a running {!ctl} carries the limits together
    with per-stage consumption counters ({!stats}).  Two fixed per-search
    caps ({!search_states}, {!search_decisions}) stop a single search
    that no limit bounds.

    The contract with the engines is:

    - budget-checked loops (solver decisions, grounder instantiation,
      repair-search states, per-component solves) call the [tick_*]
      checkpoints, which raise {!Exhausted} the moment a limit is hit;
    - {e no public engine API lets that exception escape} — every engine
      converts it to [Error (message e)] or, on the decomposed paths, to a
      partial result carrying the {!exhausted} marker for the components
      already solved (the polynomial-fallback shape of Laurent & Spyratos:
      when the full problem is too expensive, return the certified part).

    A [ctl] is shared across the stages of one engine run (and across the
    per-component solves of a decomposed run), so the limits are global to
    the run while each stage's consumption accumulates into one {!stats}
    record.

    The counters are {e domain-safe}: all consumption fields are
    [Atomic.t], so the per-component solves of a decomposed run may tick
    the same [ctl] concurrently from the worker domains of a
    {!Parallel.Pool} ([--jobs N]).  Exhaustion on a worker raises
    {!Exhausted} on that worker; the engines catch it inside the worker
    task, turn it into a value, and merge deterministically — the
    no-exception-escape contract is unchanged.  Optional per-worker
    consumption slots ({!set_workers}) attribute the ticks to the domain
    that made them for [--stats]. *)

type limits = {
  max_decisions : int option;  (** solver branch points, across the run *)
  max_states : int option;     (** repair-search states, across the run *)
  timeout_ms : int option;     (** wall-clock deadline, from {!start} *)
}

val unlimited : limits

val make :
  ?max_decisions:int -> ?max_states:int -> ?timeout_ms:int -> unit -> limits
(** Omitted fields are unlimited. *)

val search_states : int
(** [200_000] states: the cap of one repair search
    ({!Repair.Enumerate.search}), budget or not.  Per search, so a
    decomposed run caps each component alone and [--jobs] cannot move
    where it trips.  Not settable: {!limits} is the only limit a caller
    sets. *)

val search_decisions : int
(** [10_000_000] decisions: the cap of one stable-model search
    ({!Asp.Solver.stable_models}), per search like {!search_states}. *)

type exhausted =
  | Decisions of int  (** the decision limit that was hit *)
  | States of int     (** the state limit that was hit *)
  | Deadline of int   (** the deadline ([timeout_ms]) that passed *)

val message : exhausted -> string
(** The user-facing error string, matching the engines' historical
    formats: ["solver budget (%d decisions) exceeded"],
    ["repair search budget (%d states) exceeded"],
    ["deadline (%d ms) exceeded"]. *)

val pp_exhausted : exhausted Fmt.t

type tier =
  | Direct
      (** repair-less polynomial computation ({!Route.Direct}): deletion-only
          constraint slice with null-free, complete-multipartite conflicts *)
  | Shifted
      (** repair program statically head-cycle-free (Theorem 5), solved as a
          shifted normal program (Corollary 1 regime) *)
  | Disjunctive
      (** repair program without the static HCF guarantee: full disjunctive
          stable-model search *)
  | Enumerated
      (** outside Definition 9's program classes: model-theoretic
          state-space enumeration ({!Repair.Enumerate}) *)
(** The routing tiers of the [Auto] CQA method, cheapest first.  The type
    lives here (not in [lib/route]) so the per-tier consumption counters
    below need no dependency on the routing layer. *)

val tier_name : tier -> string
(** ["direct"], ["shifted"], ["disjunctive"], ["enumerate"]. *)

val pp_tier : tier Fmt.t

type worker = {
  w_decisions : int Atomic.t;
  w_states : int Atomic.t;
  w_components : int Atomic.t;
}
(** One per-worker consumption slot (see {!set_workers}). *)

type stats = {
  decisions : int Atomic.t;         (** solver branch points explored *)
  states : int Atomic.t;            (** repair-search states visited *)
  components_solved : int Atomic.t; (** decomposed components completed *)
  elapsed_ms : int Atomic.t;
      (** wall-clock of the run, rounded up to a started millisecond;
          written by {!finish} (and on exhaustion), [0] while running *)
  conflicts : int Atomic.t;
      (** falsified clauses hit by the CDCL solver ({!tick_conflict});
          all five CDCL counters stay 0 when no stable-model search ran *)
  learned : int Atomic.t;   (** nogoods added by conflict analysis *)
  restarts : int Atomic.t;  (** Luby restarts taken *)
  backjump_len : int Atomic.t;
      (** total decision levels undone by non-chronological backjumps *)
  phase_saved : int Atomic.t;
      (** VSIDS decisions that re-tried a saved true polarity
          ({!note_phase_saved}) *)
  routed : int Atomic.t array;
      (** components kept in the outcome per routing {!tier} (read
          through {!routed}); all zero outside the [Auto] method *)
  mutable degradations : (string * string) list;
      (** routed-degradation notes, in reverse emission order (read through
          {!degradations}); written by coordinator-side fallback steps only *)
  mutable workers : worker array;
      (** per-worker slots, [[||]] unless {!set_workers} installed them;
          slot 0 is the coordinating domain, slots 1..jobs the pool
          workers *)
}

val new_stats : unit -> stats

val set_workers : stats -> int -> unit
(** [set_workers s jobs] installs [jobs + 1] per-worker slots (slot 0 for
    the coordinating domain).  Must be called before any worker domain is
    spawned — the engines' pool-init hooks then claim slots 1..jobs with
    {!set_worker_slot}. *)

val set_worker_slot : int -> unit
(** Assign the calling domain's stats slot (domain-local; default 0).
    Called from {!Parallel.Pool}'s [init] hook by the decomposed
    engines. *)

val routed : stats -> tier -> int
(** Components dispatched to [tier] by the routing layer and kept in the
    outcome. *)

val pp_routed : stats Fmt.t
(** The routing line: [direct=… shifted=… disjunctive=… enumerate=…]. *)

val pp_degradations : stats Fmt.t
(** One ["degraded[stage]: message"] line per routed-degradation note, in
    emission order — every place an engine substituted a
    cheaper-but-sound strategy for the requested one (nothing when none
    did). *)

type ctl
(** A started budget: limits, the absolute deadline and the stats sink. *)

exception Exhausted of exhausted
(** Raised by the checkpoints below.  Internal to the engines: every
    public API catches it and returns [Error]/a partial outcome. *)

val start : ?stats:stats -> limits -> ctl
(** Start the clock.  [stats] (fresh by default) receives the counters;
    pass an existing record to surface them (e.g. for [--stats]). *)

val stats : ctl -> stats
val limits : ctl -> limits

val elapsed_ms : ctl -> int
(** Milliseconds since {!start}, rounded up (never [0]). *)

val tick_decision : ctl -> unit
(** Count one solver decision; checks the decision limit and the
    deadline.  @raise Exhausted when either is hit. *)

val tick_state : ctl -> unit
(** Count one repair-search state; checks the state limit and the
    deadline.  @raise Exhausted when either is hit. *)

val check_search_states : int -> unit
(** [check_search_states n] for a search that has explored [n] states.
    @raise Exhausted with [States search_states] past the cap. *)

val check_search_decisions : int -> unit
(** The same for a search that has made [n] decisions. *)

val check_deadline : ctl -> unit
(** Deadline check alone — for loops with no natural counter (grounder
    instantiation, decomposition planning).  @raise Exhausted on
    deadline. *)

val tick_conflict : ctl -> unit
(** Count one CDCL conflict and check the deadline — conflicts are the
    natural deadline granularity of the learning search, whose decisions
    can be thousands of conflicts apart under heavy propagation.  No count
    limit: the decision limit stays the only bound on the size of the
    stable-model search.  @raise Exhausted on deadline. *)

val note_learned : ctl -> unit
(** Count one learned nogood.  Never raises. *)

val note_restart : ctl -> unit
(** Count one Luby restart.  Never raises. *)

val note_backjump : ctl -> int -> unit
(** Accumulate the length (decision levels undone) of one
    non-chronological backjump.  Never raises. *)

val note_phase_saved : ctl -> unit
(** Count one VSIDS decision that re-used a saved true polarity (phase
    saving).  Never raises. *)

val remaining_ms : ctl -> int option
(** Milliseconds until the deadline, never negative; [None] without one.
    Lets a serving loop report how much of a per-request deadline a
    request had left. *)

val guard : (unit -> ('a, string) result) -> ('a, string) result
(** [guard f] extends the no-exception-escape contract to callers outside
    the engines: an {!Exhausted} escaping [f] (e.g. from a code path a
    serving loop drives directly) becomes [Error (message e)] instead of
    killing the loop.  Any other exception still propagates — the serving
    loop's own catch-all owns those. *)

val note_component : ctl -> unit
(** Count one decomposed component solved to completion {e and kept in
    the outcome}.  Called by the deterministic merge
    ({!Repair.Decompose.solve}, never by a worker), so the counter is
    identical across [--jobs] settings.  Never raises. *)

val note_worker_component : ctl -> unit
(** Attribute one completed component solve to the calling domain's
    per-worker slot (no-op without {!set_workers}).  Called by the merge's
    task on the domain that ran the solve — under exhaustion a worker may
    complete a component the merge later degrades, so the per-worker
    slots attribute {e work done} while [components_solved] counts
    {e results kept}.  Never raises. *)

val note_route : ctl -> tier -> unit
(** Count one component dispatched to [tier].  Called after the merge for
    each component the outcome keeps (coordinator only), so the counts
    match [components_solved].  Never raises. *)

val note_degraded : ctl -> stage:string -> string -> unit
(** Record a routed-degradation note: [stage] names the engine step that
    degraded, the message says what was substituted and why.  Called by
    the deterministic merge/fallback steps only (never by a pool
    worker).  Never raises. *)

val finish : ctl -> unit
(** Record the elapsed wall-clock into the stats.  Idempotent. *)

(** {1 The budget of one request}

    The one-shot subcommands and the session line protocol start and
    report a request's budget alike. *)

val start_request :
  ?timeout_ms:int -> want_stats:bool -> jobs:int -> unit -> ctl option
(** A started budget with the deadline [timeout_ms] and no count limit, or
    [None] when there is neither a deadline nor stats to print.  With
    [want_stats] and [jobs > 1] it carries [jobs] per-worker slots
    ({!set_workers}). *)

val report : want_stats:bool -> Format.formatter -> ctl option -> unit
(** {!finish} the budget, then, with [want_stats], print the [--stats]
    lines, each ended by a flush: [stats: decisions=… states=…
    components_solved=… elapsed_ms=…]; [routed:] and {!pp_routed} when a
    component was routed; [cdcl: conflicts=… learned=… restarts=…
    backjump_len=… phase_saved=…] when a CDCL search ran;
    {!pp_degradations}; and one ["  worker i: …"] line per pool slot of
    {!set_workers}. *)
