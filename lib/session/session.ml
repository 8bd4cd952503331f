module Lru = Lru
module Instance = Relational.Instance
module Nullsat = Semantics.Nullsat
module Decompose = Repair.Decompose
module Cqa = Query.Cqa

type engine = Enumerate | Program | Auto

let method_of = function
  | Enumerate -> Cqa.ModelTheoretic
  | Program -> Cqa.LogicProgram
  | Auto -> Cqa.Auto

(* ------------------------------------------------------------------ *)
(* The component cache, shareable across sessions.  Entries are tagged
   with the session id that solved them, so a hit on another session's
   entry — the payoff of promoting the cache process-global — is counted
   separately ([cross_hits]).  The keys are {!Query.Cqa}'s solve keys
   (strategy + shape or content digest): they name everything a
   solve reads, so sharing is sound — two sessions producing the same key
   would solve to the same entry, up to the renaming the entry carries.
   Thread-safety comes from {!Lru} (every operation is mutex-guarded) and
   the atomic cross-hit/session counters. *)

module Cache = struct
  type nonrec t = {
    lru : (string, (Cqa.solved * Relational.Value.t array) * int) Lru.t;
    cross_hits : int Atomic.t;
    sessions : int Atomic.t;  (* sessions ever attached *)
  }

  type stats = {
    hits : int;
    misses : int;
    evictions : int;
    entries : int;
    capacity : int;
    cross_hits : int;
    sessions : int;
  }

  let create ~capacity =
    {
      lru = Lru.create ~capacity;
      cross_hits = Atomic.make 0;
      sessions = Atomic.make 0;
    }

  let attach (t : t) = Atomic.incr t.sessions

  let find (t : t) ~sid key =
    match Lru.find t.lru key with
    | Some (e, owner) ->
        if owner <> sid then Atomic.incr t.cross_hits;
        Some e
    | None -> None

  let add (t : t) ~sid key e = Lru.add t.lru key (e, sid)

  let stats (t : t) =
    {
      hits = Lru.hits t.lru;
      misses = Lru.misses t.lru;
      evictions = Lru.evictions t.lru;
      entries = Lru.length t.lru;
      capacity = Lru.capacity t.lru;
      cross_hits = Atomic.get t.cross_hits;
      sessions = Atomic.get t.sessions;
    }

  let hit_rate (s : stats) =
    let probes = s.hits + s.misses in
    if probes = 0 then 0. else float_of_int s.hits /. float_of_int probes

  let cross_hit_rate (s : stats) =
    if s.hits = 0 then 0.
    else float_of_int s.cross_hits /. float_of_int s.hits

  let pp_stats ppf (s : stats) =
    Fmt.pf ppf
      "@[<h>cache: sessions=%d entries=%d/%d hits=%d misses=%d evictions=%d \
       cross.hits=%d cross.rate=%.2f@]"
      s.sessions s.entries s.capacity s.hits s.misses s.evictions s.cross_hits
      (cross_hit_rate s)
end

(* Session ids are process-global so owner tags stay distinct across every
   cache a session might share. *)
let next_sid = Atomic.make 1

type stats = {
  deltas : int;
  requests : int;
  plan_reuses : int;
  plan_rebuilds : int;
  ics_reused : int;
  ics_fast : int;
  ics_rescanned : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_entries : int;
  routed : int array;
}

type t = {
  engine : engine;
  jobs : int;
  ics : Ic.Constr.t list;
  sid : int;  (* owner tag for cache entries *)
  cache : Cache.t;  (* private by default, shared under a server *)
  routed : int Atomic.t array;  (* components per Budget.tier, [Auto] only *)
  mutable d : Instance.t;
  mutable violations : Nullsat.violation list;  (* canonical order *)
  mutable plan : Decompose.plan option;  (* None = must re-plan *)
  mutable deltas : int;
  mutable requests : int;
  mutable plan_reuses : int;
  mutable plan_rebuilds : int;
  mutable ics_reused : int;
  mutable ics_fast : int;
  mutable ics_rescanned : int;
  (* per-session probe counters: with a shared cache the LRU's totals mix
     every session's traffic, but this session's stats line must keep
     describing this session; atomic, because the probes run on the pool
     workers under [jobs > 1] *)
  s_hits : int Atomic.t;
  s_misses : int Atomic.t;
}

let create ?(engine = Program) ?(jobs = 1) ?(capacity = 256) ?cache
    ?violations d ics =
  let cache =
    match cache with Some c -> c | None -> Cache.create ~capacity
  in
  Cache.attach cache;
  {
    engine;
    jobs;
    ics;
    sid = Atomic.fetch_and_add next_sid 1;
    cache;
    routed = Array.init 4 (fun _ -> Atomic.make 0);
    d;
    violations =
      (match violations with
      | Some vs -> vs
      | None -> Nullsat.canonical_violations (Nullsat.check d ics));
    plan = None;
    deltas = 0;
    requests = 0;
    plan_reuses = 0;
    plan_rebuilds = 0;
    ics_reused = 0;
    ics_fast = 0;
    ics_rescanned = 0;
    s_hits = Atomic.make 0;
    s_misses = Atomic.make 0;
  }

let cache t = t.cache

let instance t = t.d
let constraints t = t.ics
let violations t = t.violations
let consistent t = t.violations = []

(* ------------------------------------------------------------------ *)
(* Delta application: incremental violation maintenance, then plan
   refresh.  The plan is dropped (not eagerly recomputed) when refresh
   cannot prove it survives — the next request re-plans under its own
   budget. *)

let apply t ops =
  t.deltas <- t.deltas + 1;
  let inserted, deleted = Delta.effective ops t.d in
  match (inserted, deleted) with
  | [], [] -> ()
  | _ ->
      let d' = Delta.apply ops t.d in
      let vs, ds =
        Nullsat.check_delta ~before:t.violations ~inserted ~deleted d' t.ics
      in
      t.ics_reused <- t.ics_reused + ds.Nullsat.reused;
      t.ics_fast <- t.ics_fast + ds.Nullsat.fast;
      t.ics_rescanned <- t.ics_rescanned + ds.Nullsat.rescanned;
      let violations_unchanged =
        List.equal
          (fun a b -> Nullsat.compare_violation a b = 0)
          t.violations vs
      in
      (match t.plan with
      | None -> ()
      | Some p -> (
          match
            Decompose.refresh p d' t.ics ~inserted ~deleted
              ~violations_unchanged
          with
          | Some p' ->
              t.plan_reuses <- t.plan_reuses + 1;
              t.plan <- Some p'
          | None -> t.plan <- None));
      t.d <- d';
      t.violations <- vs

(* ------------------------------------------------------------------ *)
(* Plan and cache plumbing *)

(* Budget exhaustion during planning becomes an [Error], exactly as in the
   cold engines. *)
let with_plan ?budget t f =
  match
    match t.plan with
    | Some p -> p
    | None ->
        let p = Decompose.plan ?budget t.d t.ics in
        t.plan_rebuilds <- t.plan_rebuilds + 1;
        t.plan <- Some p;
        p
  with
  | p -> f p
  | exception Budget.Exhausted e -> Error (Budget.message e)

let tier_slot = function
  | Budget.Direct -> 0
  | Budget.Shifted -> 1
  | Budget.Disjunctive -> 2
  | Budget.Enumerated -> 3

(* The session's solve step: the cache as the store of the cold
   pipeline's memo, which keys, probes, carries hits over and fills it —
   past a budget trip too (the work is done; only this request's answer
   may not use it).  The routed counters count every component served,
   hit or solved. *)
let store t =
  let served ((e : Cqa.solved), _) =
    match (t.engine, e.Cqa.tier) with
    | Auto, Some tier -> Atomic.incr t.routed.(tier_slot tier)
    | _ -> ()
  in
  {
    Cqa.find =
      (fun key ->
        match Cache.find t.cache ~sid:t.sid key with
        | Some e ->
            Atomic.incr t.s_hits;
            served e;
            Some e
        | None ->
            Atomic.incr t.s_misses;
            None);
    add =
      (fun key e ->
        served e;
        Cache.add t.cache ~sid:t.sid key e);
  }

(* ------------------------------------------------------------------ *)
(* Requests: the cold pipeline over the session's plan, with the cache as
   its solve step *)

let repairs ?budget t =
  t.requests <- t.requests + 1;
  with_plan ?budget t (fun plan ->
      Cqa.repairs_of_plan ?budget ~jobs:t.jobs ~store:(store t)
        ~method_:(method_of t.engine) ~plan t.d t.ics)

let cqa ?budget ?semantics t q =
  t.requests <- t.requests + 1;
  let standard = Query.Qeval.answers ?semantics t.d q in
  with_plan ?budget t (fun plan ->
      Cqa.outcome_of_plan ?semantics ?budget ~jobs:t.jobs ~store:(store t)
        ~method_:(method_of t.engine) ~standard ~plan t.d t.ics q)

(* ------------------------------------------------------------------ *)
(* Telemetry *)

let stats t =
  {
    deltas = t.deltas;
    requests = t.requests;
    plan_reuses = t.plan_reuses;
    plan_rebuilds = t.plan_rebuilds;
    ics_reused = t.ics_reused;
    ics_fast = t.ics_fast;
    ics_rescanned = t.ics_rescanned;
    cache_hits = Atomic.get t.s_hits;
    cache_misses = Atomic.get t.s_misses;
    cache_evictions = (Cache.stats t.cache).Cache.evictions;
    cache_entries = (Cache.stats t.cache).Cache.entries;
    routed = Array.map Atomic.get t.routed;
  }

let hit_rate (s : stats) =
  let probes = s.cache_hits + s.cache_misses in
  if probes = 0 then 0. else float_of_int s.cache_hits /. float_of_int probes

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "@[<h>session: deltas=%d requests=%d plan.reused=%d plan.rebuilt=%d \
     ics.reused=%d ics.fast=%d ics.rescanned=%d cache.hits=%d \
     cache.misses=%d cache.evictions=%d cache.entries=%d%t@]"
    s.deltas s.requests s.plan_reuses s.plan_rebuilds s.ics_reused s.ics_fast
    s.ics_rescanned s.cache_hits s.cache_misses s.cache_evictions
    s.cache_entries
    (fun ppf ->
      (* the routed segment appears only for the auto engine, so the
         historical stats line is unchanged elsewhere *)
      if Array.exists (fun n -> n > 0) s.routed then
        Fmt.pf ppf
          " routed.direct=%d routed.shifted=%d routed.disjunctive=%d \
           routed.enumerate=%d"
          s.routed.(0) s.routed.(1) s.routed.(2) s.routed.(3))
