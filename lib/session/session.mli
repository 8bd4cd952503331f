(** The incremental session engine: a long-lived instance served with
    delta updates, incremental violation and plan maintenance, and a
    component-keyed cache in front of the per-component repair solves.

    A session holds one instance and one constraint set.  Updates arrive as
    {!Delta} batches and are folded in incrementally: violations through
    {!Semantics.Nullsat.check_delta} (only constraints whose relations the
    delta touches are re-examined), the conflict-component plan through
    {!Repair.Decompose.refresh} (re-planned only when the delta intersects
    the active/support region).  Requests ([repairs], [cqa]) then solve the
    plan's components through a bounded LRU cache keyed by the solve keys
    of {!Query.Cqa.store} — a component untouched since the last request
    is never solved again, and under the [Auto] engine neither is one
    isomorphic to a component solved before.

    {b Cache keys}: a key names the strategy ([auto], [enum], [prog], or
    [mono] for the monolithic program fallback), then digests everything
    the solve reads, in an injective rendering that keeps the type of
    every value.  [Enumerate] (and
    [Auto] on an inexact plan) keys a component by its content with the
    plan's universe and NNC positions; [Program] by its content alone.
    [Auto] on an exact plan keys it by its shape
    ({!Repair.Decompose.shape_key}) and stores the renamed constants with
    the entry, so a hit is renamed into the asking component; the
    universe enters only the keys of the components whose search reads
    it (enumeration under a conflicting NNC), and those of components
    whose constraints compare by order or offset, which are keyed by
    content.

    {b Correctness contract}: after any delta sequence, [repairs] and
    [cqa] return byte-identical results to a cold one-shot run
    ({!Query.Cqa.repairs} / {!Query.Cqa.consistent_answers} with the
    session's engine, and no store) on the final instance,
    and under a budget a fresh session's request is byte-identical to the
    cold run under the same limits, partial outcomes and [Error] messages
    included.  This holds by construction — the plan is either provably
    the cold plan (refresh) or freshly computed, the cache key covers
    every input of a component solve (up to the renaming a shape entry
    carries, under which repairs are invariant), and a request runs the
    cold
    pipeline itself ({!Query.Cqa.outcome_of_plan} /
    {!Query.Cqa.repairs_of_plan}) with the cache probe and insert as its
    solve step, so the merge, the fallbacks, the degradation notes and
    the budget counters are the cold run's — and is enforced by the
    qcheck differentials in [test_session.ml]. *)

module Lru = Lru
(** Re-exported so library consumers (the facade exposes only this module)
    can reach the cache implementation directly. *)

type engine =
  | Enumerate  (** the model-theoretic search ({!Repair.Enumerate}) *)
  | Program    (** the logic-program engine ({!Core.Engine}) *)
  | Auto
      (** route each component to the cheapest sound tier ({!Route.Tier}):
          the repair-less direct computation, the repair program, or
          enumeration as last resort.  The routing verdict is stored in
          the cache entry, so a cache hit re-counts its tier without
          re-classifying the component.  Components are keyed by shape,
          as in the cold [Auto] method's request-local memo, so
          isomorphic components share one entry.  On an inexact
          component product every component is enumerated, as in the
          cold [Auto] method, sharing the enumerate engine's cache
          entries. *)

type t

(** The component cache, shareable across sessions.  By default every
    session owns a private cache; a server passes one [Cache.t] to every
    {!create} so identical (or, under [Auto], isomorphic) components
    across sessions become cross-session hits: the keys address content
    or shape, never a session.  Thread-safe: the
    underlying {!Lru} is mutex-guarded and the cross-hit/session counters
    are atomic. *)
module Cache : sig
  type t

  type stats = {
    hits : int;         (** probes answered, all sessions *)
    misses : int;
    evictions : int;
    entries : int;      (** current residency *)
    capacity : int;
    cross_hits : int;   (** hits on an entry another session solved *)
    sessions : int;     (** sessions ever attached to this cache *)
  }

  val create : capacity:int -> t
  val stats : t -> stats

  val hit_rate : stats -> float
  (** [hits / (hits + misses)]; [0.] before any probe. *)

  val cross_hit_rate : stats -> float
  (** [cross_hits / hits]; [0.] before any hit.  Strictly positive once
      any session benefits from another's solve. *)

  val pp_stats : stats Fmt.t
end

type stats = {
  deltas : int;          (** update batches applied *)
  requests : int;        (** [repairs] + [cqa] requests served *)
  plan_reuses : int;     (** deltas whose plan was kept by {!Repair.Decompose.refresh} *)
  plan_rebuilds : int;   (** plans computed from scratch (incl. the first) *)
  ics_reused : int;      (** accumulated {!Semantics.Nullsat.delta_stats} *)
  ics_fast : int;
  ics_rescanned : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;   (** current residency *)
  routed : int array;
      (** components served per routing tier (indexed direct, shifted,
          disjunctive, enumerate), across hits and solves — also those a
          budget trip then leaves out of the outcome; all zero outside
          the [Auto] engine *)
}

val create :
  ?engine:engine ->
  ?jobs:int ->
  ?capacity:int ->
  ?cache:Cache.t ->
  ?violations:Semantics.Nullsat.violation list ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  t
(** [engine] defaults to [Program], [jobs] to [1], [capacity] (cache
    entries) to [256].  [cache] shares a process-global component cache
    (then [capacity] is ignored); the per-session [stats] keep counting only
    this session's probes.  [violations] short-circuits the initial
    violation scan with a precomputed canonical set — a server creating
    thousands of sessions over one shared base instance computes it once.
    Otherwise violations of the initial instance are computed here; the
    first plan is computed lazily by the first request. *)

val cache : t -> Cache.t
(** The cache this session probes — its own private one unless [create]
    was given a shared one. *)

val instance : t -> Relational.Instance.t
val constraints : t -> Ic.Constr.t list

val violations : t -> Semantics.Nullsat.violation list
(** Current violation set, canonically ordered
    ({!Semantics.Nullsat.canonical_violations}) — maintained
    incrementally, never recomputed wholesale after [create]. *)

val consistent : t -> bool

val apply : t -> Delta.t -> unit
(** Fold an update batch into the session: instance, violations and (when
    provably unaffected) the plan.  A batch with no net effect only counts
    toward [deltas]. *)

val repairs : ?budget:Budget.ctl -> t -> (Relational.Instance.t list, string) result
(** The full repair set of the current instance
    ({!Query.Cqa.repairs_of_plan} with the cache as the solve step),
    identical to a cold {!Query.Cqa.repairs}.  [budget] is this
    request's budget (one per request); like the cold engines, the full
    set cannot degrade — a budget trip is an [Error].  Cached component
    solves cost nothing against it. *)

val cqa :
  ?budget:Budget.ctl ->
  ?semantics:Query.Qeval.semantics ->
  t ->
  Query.Qsyntax.t ->
  (Query.Cqa.outcome, string) result
(** Consistent answers on the current instance:
    {!Query.Cqa.outcome_of_plan} over the session's plan, with the cache
    as the solve step — so identical to
    [Query.Cqa.consistent_answers ~method_] with the session's engine, including the partial outcome on budget exhaustion,
    every fallback (consistent instance, inexact product with the program
    engine) and the [budget]'s counters and degradation notes. *)

val stats : t -> stats
val hit_rate : stats -> float
(** [cache_hits / (cache_hits + cache_misses)]; [0.] before any probe. *)

val pp_stats : stats Fmt.t
