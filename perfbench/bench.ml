(* The benchmark's measuring program.

     bench.exe gen --workload W --seed N --out FILE [--smoke]
     bench.exe run --workload W --seed N --seconds S --trace 0|1
                   --file FILE --cqanull EXE --work DIR [--smoke]

   [gen] writes the workload's .cqa text; [run] measures it and prints the
   result line (see run.py, which builds, generates and runs). *)

open Metrics
module W = Workloads

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

let args = Array.to_list Sys.argv |> List.tl

let opt key =
  let rec go = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let req key = match opt key with Some v -> v | None -> die "missing %s" key
let smoke = List.mem "--smoke" args
let seed () = int_of_string (req "--seed")

let kind () =
  match W.of_name (req "--workload") with
  | Some k -> k
  | None -> die "unknown workload %s" (req "--workload")

let load text =
  match Lang.Load.of_string text with
  | Ok l ->
      let d = Lang.Load.final_instance l in
      (l, d, List.assoc W.query_name l.Lang.Load.queries)
  | Error e -> die "load: %s" e

let rounds kind ~seed ~d ~client ~n =
  Array.of_list
    (List.concat (List.init n (fun round -> W.round kind ~seed ~d ~client ~round)))

(* Set-ups per run, reported as their median: as many as fit in a few
   seconds (an oneshot_scale set-up loads 50k tuples and answers once). *)
let setups = function W.Oneshot_scale -> 5 | W.Conflict_mix -> 9

(* Kernel passes per calibration (Metrics.calibrate): about a tenth of a
   request. *)
let calib_reps = function W.Oneshot_scale -> 20 | W.Conflict_mix -> 1

(* Rounds per client replayed by the traced run's session/serve layers. *)
let traced_rounds = function W.Oneshot_scale -> 2 | W.Conflict_mix -> 10

let repeat n f = List.init n (fun _ -> f ())

(* Run [f] until [seconds] have passed, at least [min] times. *)
let loop ?(min = 1) seconds f =
  let deadline = now () +. seconds in
  let rec go n acc =
    if n >= min && now () >= deadline then List.rev acc else go (n + 1) (f () :: acc)
  in
  go 0 []

(* ---- the untraced run ---- *)

(* The untimed correctness check: the oracle's outcome, and one traced
   request for the per-component counts, both render as [expected]. *)
let check_oracle d ics q expected =
  match Stages.traced d ics q with
  | t -> t.Stages.text = expected
         && Stages.oracle ~counts:t.Stages.counts d ics q = Ok expected
  | exception Stages.Unmirrored why -> die "trace cannot mirror: %s" why

let oneshot kind ~seconds text =
  let reps = calib_reps kind in
  (* only the last set-up's instance is kept, so the others are garbage
     by the next calibration's collection, as in one CLI process *)
  let last = ref None and n = ref 0 in
  let runs =
    calibrated ~reps ~stop:(fun i -> i >= setups kind) (fun () ->
        incr n;
        let l, d, q = load text in
        match Stages.request d l.Lang.Load.ics q with
        | Ok out -> if !n = setups kind then last := Some (l, d, q, out)
        | Error e -> die "warm-up request: %s" e)
  in
  let setup_s = median (List.map (fun r -> r.scaled_ms /. 1000.) runs) in
  let l, d, q, expected = Option.get !last in
  let ics = l.Lang.Load.ics in
  (* every request starts from a collected heap (calibrate collects), as a
     fresh CLI process's does, so one request's garbage is not charged to
     the next *)
  let deadline = now () +. seconds in
  let samples =
    calibrated ~reps
      ~stop:(fun n -> n >= 1 && now () >= deadline)
      (fun () -> Stages.request d ics q)
  in
  let peak = peak_rss_mb 0 in
  let oracle_ok = check_oracle d ics q expected in
  let failed =
    if not oracle_ok then List.length samples
    else List.length (List.filter (fun r -> r.result <> Ok expected) samples)
  in
  let ms = List.map (fun r -> r.scaled_ms) samples in
  let s = create () in
  add s "setup_s" "s" setup_s;
  add s "request_ms_p50" "ms" (median ms);
  add s "req_per_s" "1/s"
    (float_of_int (List.length samples) /. (List.fold_left ( +. ) 0. ms /. 1000.));
  add s "peak_rss_mb" "MiB" peak;
  (* the unscaled figures, for the reader *)
  Printf.eprintf "bench: unscaled setup_s %.4f, request_ms_p50 %.3f; kernel_ms %.3f\n%!"
    (median (List.map (fun r -> r.raw_ms /. 1000.) runs))
    (median (List.map (fun r -> r.raw_ms) samples))
    (median (List.map (fun r -> r.kernel_ms) samples));
  print_result ~correct:(oracle_ok && failed = 0) ~attempted:(List.length samples)
    ~failed s

(* ---- the traced run, every workload ---- *)

let traced kind ~seconds ~cqanull ~work ~file text =
  let seed = seed () in
  let s = create () in
  let failed = ref 0 and attempted = ref 0 in
  (* lang *)
  let loads = repeat (setups kind) (fun () -> timed (fun () -> load text)) in
  let l, d, q = (List.hd loads).value in
  let ics = l.Lang.Load.ics in
  add s "lang.load_ms" "ms" (median (List.map (fun r -> r.ms) loads));
  add s "lang.load_alloc_words" "words" (median (List.map (fun r -> r.words) loads));
  let expected =
    match Stages.request d ics q with Ok t -> t | Error e -> die "request: %s" e
  in
  (* relational + semantics *)
  let checks = repeat 3 (fun () -> timed (fun () -> Semantics.Nullsat.check d ics)) in
  let fresh = Relational.Instance.of_atoms (Relational.Instance.atoms d) in
  let fresh_ms =
    median
      (repeat 3 (fun () -> (timed (fun () -> Semantics.Nullsat.check fresh ics)).ms))
  in
  let check_ms = median (List.map (fun r -> r.ms) checks) in
  add s "relational.loaded_penalty" "ratio" (check_ms /. fresh_ms);
  add s "check.ms" "ms" check_ms;
  add s "check.alloc_words" "words" (median (List.map (fun r -> r.words) checks));
  count s "check.violations" (List.length (List.hd checks).value);
  (* the CQA pipeline, stage by stage, beside the untraced request *)
  let pairs =
    loop ~min:2 (seconds /. 2.) (fun () ->
        Gc.full_major ();
        let plain = timed (fun () -> Stages.request d ics q) in
        Gc.full_major ();
        let t =
          try Stages.traced d ics q
          with Stages.Unmirrored why -> die "trace cannot mirror: %s" why
        in
        incr attempted;
        if plain.value <> Ok expected || t.Stages.text <> expected then incr failed;
        (plain.ms, t))
  in
  let traces = List.map snd pairs in
  let med f = median (List.map f traces) in
  let last = List.nth traces (List.length traces - 1) in
  let plan = last.Stages.plan.value in
  let comps = plan.Repair.Decompose.components in
  add s "standard.ms" "ms" (med (fun t -> t.Stages.standard.ms));
  count s "standard.answers" (Relational.Tuple.Set.cardinal last.Stages.standard.value);
  add s "plan.ms" "ms" (med (fun t -> t.Stages.plan.ms));
  add s "plan.alloc_words" "words" (med (fun t -> t.Stages.plan.words));
  count s "plan.components" (List.length comps);
  count s "plan.component_atoms"
    (List.fold_left
       (fun n c -> n + Relational.Atom.Set.cardinal c.Repair.Decompose.atoms)
       0 comps);
  count s "plan.core_tuples" (Relational.Instance.cardinal plan.Repair.Decompose.core);
  add s "route.ms" "ms" (med (fun t -> t.Stages.route.ms));
  Array.iteri
    (fun i tier ->
      count s ("route." ^ Stages.tier_label.(i))
        (List.length
           (List.filter
              (fun (v : Route.Tier.verdict) -> v.Route.Tier.tier = tier)
              last.Stages.route.value)))
    Stages.tiers;
  Array.iteri
    (fun i label ->
      add s ("solve." ^ label ^ ".ms") "ms" (med (fun t -> t.Stages.solve_ms.(i))))
    Stages.tier_label;
  add s "solve.alloc_words" "words" (med (fun t -> t.Stages.solve_words));
  let b = last.Stages.budget in
  count s "solve.decisions" (Atomic.get b.Budget.decisions);
  count s "solve.conflicts" (Atomic.get b.Budget.conflicts);
  count s "solve.learned" (Atomic.get b.Budget.learned);
  count s "solve.restarts" (Atomic.get b.Budget.restarts);
  count s "solve.states" (Atomic.get b.Budget.states);
  add s "solve.enumerated.minimal_per_state" "ratio"
    (if last.Stages.enumerated_states = 0 then 0.
     else
       float_of_int last.Stages.enumerated_minimal
       /. float_of_int last.Stages.enumerated_states);
  add s "recombine.ms" "ms" (med (fun t -> t.Stages.recombine.ms));
  add s "recombine.alloc_words" "words" (med (fun t -> t.Stages.recombine.words));
  add s "render.ms" "ms" (med (fun t -> t.Stages.render.ms));
  add s "render.bytes" "bytes" (float_of_int (String.length last.Stages.text));
  let plain_ms = median (List.map fst pairs) in
  add s "trace.coverage" "ratio" (med Stages.stages_ms /. plain_ms);
  add s "trace.overhead" "ratio" (med (fun t -> t.Stages.wall_ms) /. plain_ms);
  (* the machine speed the layer times above were taken at *)
  add s "calib.kernel_ms" "ms"
    (median (repeat 5 (fun () -> calibrate (calib_reps kind))));
  (* session, serve and the session cache, on each client's script *)
  let n = traced_rounds kind in
  let script0 = rounds kind ~seed ~d ~client:0 ~n in
  let script1 = rounds kind ~seed ~d ~client:1 ~n in
  let st, applies, cqas, sfailed =
    Serveload.session_replay l q (Array.to_list script0)
  in
  failed := !failed + sfailed;
  attempted := !attempted + Array.length script0;
  add s "session.apply_ms_p50" "ms" (median applies);
  add s "session.cqa_ms_p50" "ms" (median cqas);
  count s "session.plan_reuses" st.Session.plan_reuses;
  count s "session.plan_rebuilds" st.Session.plan_rebuilds;
  count s "session.ics_reused" st.Session.ics_reused;
  count s "session.ics_fast" st.Session.ics_fast;
  count s "session.ics_rescanned" st.Session.ics_rescanned;
  let replay = Serveload.protocol_replay l (Array.to_list script0) in
  let exec_ms pred =
    median (List.filter_map (fun (line, _, ms) -> if pred line then Some ms else None) replay)
  in
  add s "serve.protocol_ms_p50.cqa" "ms" (exec_ms W.is_read);
  add s "serve.protocol_ms_p50.write" "ms" (exec_ms (fun l -> not (W.is_read l)));
  let server, c = Serveload.spawn ~cqanull ~work ~file () in
  Serve.Client.close c;
  let results = Serveload.run_clients server ~deadline:infinity [| script0; script1 |] in
  let hits, misses, cross, evictions = Serveload.cache_stats server in
  Serveload.stop server;
  let ops0 = results.(0) in
  attempted := !attempted + List.length ops0 + List.length results.(1);
  List.iter2
    (fun op (_, text, _) -> if not (Serveload.ok_reply op text) then incr failed)
    ops0 replay;
  failed := !failed + Serveload.mismatches l results.(1);
  count s "cache.hits" hits;
  count s "cache.misses" misses;
  count s "cache.cross_hits" cross;
  count s "cache.evictions" evictions;
  add s "cache.hit_rate" "ratio"
    (if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
  add s "serve.wire_queue_ms" "ms"
    (median (List.map2 (fun (op : Serveload.op) (_, _, ms) -> op.op_ms -. ms) ops0 replay));
  add s "serve.write_ms_p50" "ms"
    (median
       (List.filter_map
          (fun (op : Serveload.op) -> if W.is_read op.line then None else Some op.op_ms)
          ops0));
  let oracle_ok =
    Stages.oracle ~counts:last.Stages.counts d ics q = Ok expected
  in
  if not oracle_ok then failed := !failed + List.length pairs;
  print_result ~correct:(oracle_ok && !failed = 0) ~attempted:!attempted
    ~failed:!failed s

let () =
  match args with
  | "gen" :: _ ->
      let text = W.text ~smoke ~seed:(seed ()) (kind ()) in
      Out_channel.with_open_text (req "--out") (fun oc -> output_string oc text)
  | "run" :: _ ->
      let kind = kind () and seconds = float_of_string (req "--seconds") in
      let file = req "--file" and cqanull = req "--cqanull" and work = req "--work" in
      let text = In_channel.with_open_text file In_channel.input_all in
      at_exit Serveload.kill_all;
      if req "--trace" = "1" then traced kind ~seconds ~cqanull ~work ~file text
      else oneshot kind ~seconds text
  | _ -> die "usage: bench.exe (gen|run) --workload W --seed N ..."
