type limits = {
  max_decisions : int option;
  max_states : int option;
  timeout_ms : int option;
}

let unlimited = { max_decisions = None; max_states = None; timeout_ms = None }

let make ?max_decisions ?max_states ?timeout_ms () =
  { max_decisions; max_states; timeout_ms }

let search_states = 200_000
let search_decisions = 10_000_000

type exhausted = Decisions of int | States of int | Deadline of int

let message = function
  | Decisions n -> Printf.sprintf "solver budget (%d decisions) exceeded" n
  | States n -> Printf.sprintf "repair search budget (%d states) exceeded" n
  | Deadline ms -> Printf.sprintf "deadline (%d ms) exceeded" ms

let pp_exhausted ppf e = Fmt.string ppf (message e)

type tier = Direct | Shifted | Disjunctive | Enumerated

let tier_name = function
  | Direct -> "direct"
  | Shifted -> "shifted"
  | Disjunctive -> "disjunctive"
  | Enumerated -> "enumerate"

let tier_index = function
  | Direct -> 0
  | Shifted -> 1
  | Disjunctive -> 2
  | Enumerated -> 3

let pp_tier ppf t = Fmt.string ppf (tier_name t)

type worker = {
  w_decisions : int Atomic.t;
  w_states : int Atomic.t;
  w_components : int Atomic.t;
}

type stats = {
  decisions : int Atomic.t;
  states : int Atomic.t;
  components_solved : int Atomic.t;
  elapsed_ms : int Atomic.t;
  conflicts : int Atomic.t;
  learned : int Atomic.t;
  restarts : int Atomic.t;
  backjump_len : int Atomic.t;
  phase_saved : int Atomic.t;
  routed : int Atomic.t array;  (* indexed by [tier_index] *)
  mutable degradations : (string * string) list;  (* reverse emission order *)
  mutable workers : worker array;
}

let new_stats () =
  {
    decisions = Atomic.make 0;
    states = Atomic.make 0;
    components_solved = Atomic.make 0;
    elapsed_ms = Atomic.make 0;
    conflicts = Atomic.make 0;
    learned = Atomic.make 0;
    restarts = Atomic.make 0;
    backjump_len = Atomic.make 0;
    phase_saved = Atomic.make 0;
    routed = Array.init 4 (fun _ -> Atomic.make 0);
    degradations = [];
    workers = [||];
  }

let new_worker () =
  {
    w_decisions = Atomic.make 0;
    w_states = Atomic.make 0;
    w_components = Atomic.make 0;
  }

(* Per-worker slots: slot 0 is the coordinating domain, slots 1..jobs the
   pool workers.  Installed before any pool is created (single-threaded),
   so the non-atomic [workers] field is published to the workers by the
   happens-before edge of Domain.spawn. *)
let set_workers s jobs = s.workers <- Array.init (jobs + 1) (fun _ -> new_worker ())

(* Which slot the current domain ticks into.  Pool workers are assigned
   their slot by the engines' pool-init hook; the coordinating domain keeps
   the default slot 0. *)
let slot_key = Domain.DLS.new_key (fun () -> 0)
let set_worker_slot i = Domain.DLS.set slot_key i

let bump_worker sel s =
  match s.workers with
  | [||] -> ()
  | ws ->
      let i = Domain.DLS.get slot_key in
      if i >= 0 && i < Array.length ws then Atomic.incr (sel ws.(i))

let pp_stats ppf s =
  Fmt.pf ppf "decisions=%d states=%d components_solved=%d elapsed_ms=%d"
    (Atomic.get s.decisions) (Atomic.get s.states)
    (Atomic.get s.components_solved) (Atomic.get s.elapsed_ms)

let routed s t = Atomic.get s.routed.(tier_index t)

let routed_total s =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 s.routed

let degradations s = List.rev s.degradations

let pp_routed ppf s =
  Fmt.pf ppf "direct=%d shifted=%d disjunctive=%d enumerate=%d"
    (routed s Direct) (routed s Shifted) (routed s Disjunctive)
    (routed s Enumerated)

let pp_degradations ppf s =
  List.iter
    (fun (stage, msg) -> Fmt.pf ppf "degraded[%s]: %s@." stage msg)
    (degradations s)

let pp_workers ppf s =
  (* slot 0 (the coordinator) is folded into the global line; the per-pool
     slots 1..jobs get one line each *)
  Array.iteri
    (fun i w ->
      if i > 0 then
        Fmt.pf ppf "  worker %d: decisions=%d states=%d components=%d@." i
          (Atomic.get w.w_decisions) (Atomic.get w.w_states)
          (Atomic.get w.w_components))
    s.workers

type ctl = {
  lim : limits;
  sink : stats;
  started : float;
  deadline : float option;  (* absolute, seconds since the epoch *)
}

exception Exhausted of exhausted

let start ?stats lim =
  let now = Unix.gettimeofday () in
  {
    lim;
    sink = (match stats with Some s -> s | None -> new_stats ());
    started = now;
    deadline =
      Option.map (fun ms -> now +. (float_of_int ms /. 1000.)) lim.timeout_ms;
  }

let stats t = t.sink
let limits t = t.lim

(* Round up to a started millisecond so a finished run never reports 0 —
   the counters in the bench baseline are guarded to be non-zero. *)
let elapsed_ms t =
  let ms = (Unix.gettimeofday () -. t.started) *. 1000. in
  max 1 (int_of_float (Float.ceil ms))

let finish t = Atomic.set t.sink.elapsed_ms (elapsed_ms t)

let exhaust t e =
  finish t;
  raise (Exhausted e)

let check_search_states n =
  if n > search_states then raise (Exhausted (States search_states))

let check_search_decisions n =
  if n > search_decisions then raise (Exhausted (Decisions search_decisions))

let check_deadline t =
  match t.deadline with
  | Some dl when Unix.gettimeofday () > dl ->
      exhaust t (Deadline (Option.value ~default:0 t.lim.timeout_ms))
  | _ -> ()

let remaining_ms t =
  Option.map
    (fun dl ->
      max 0 (int_of_float (Float.ceil ((dl -. Unix.gettimeofday ()) *. 1000.))))
    t.deadline

let guard f = try f () with Exhausted e -> Error (message e)

let tick_decision t =
  let n = Atomic.fetch_and_add t.sink.decisions 1 + 1 in
  bump_worker (fun w -> w.w_decisions) t.sink;
  (match t.lim.max_decisions with
  | Some m when n > m -> exhaust t (Decisions m)
  | _ -> ());
  check_deadline t

let tick_state t =
  let n = Atomic.fetch_and_add t.sink.states 1 + 1 in
  bump_worker (fun w -> w.w_states) t.sink;
  (match t.lim.max_states with
  | Some m when n > m -> exhaust t (States m)
  | _ -> ());
  check_deadline t

(* CDCL checkpoints.  Conflicts are the natural deadline granularity of the
   learning search (decisions can be thousands of conflicts apart under
   heavy propagation); the remaining counters are pure telemetry. *)
let tick_conflict t =
  Atomic.incr t.sink.conflicts;
  check_deadline t

let note_learned t = Atomic.incr t.sink.learned
let note_restart t = Atomic.incr t.sink.restarts

let note_backjump t len =
  ignore (Atomic.fetch_and_add t.sink.backjump_len len)

let note_phase_saved t = Atomic.incr t.sink.phase_saved

let search_total s =
  Atomic.get s.conflicts + Atomic.get s.learned + Atomic.get s.restarts
  + Atomic.get s.backjump_len + Atomic.get s.phase_saved

let pp_search ppf s =
  Fmt.pf ppf "conflicts=%d learned=%d restarts=%d backjump_len=%d phase_saved=%d"
    (Atomic.get s.conflicts) (Atomic.get s.learned) (Atomic.get s.restarts)
    (Atomic.get s.backjump_len) (Atomic.get s.phase_saved)

let note_component t = Atomic.incr t.sink.components_solved

let note_worker_component t = bump_worker (fun w -> w.w_components) t.sink

let note_route t tier = Atomic.incr t.sink.routed.(tier_index tier)

(* Degradation notes are emitted by the deterministic merge/fallback steps
   of the engines (coordinator only, never a pool worker), so the plain
   mutable list needs no synchronization. *)
let note_degraded t ~stage msg =
  t.sink.degradations <- (stage, msg) :: t.sink.degradations
