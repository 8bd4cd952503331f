(* Benchmark harness: regenerates the experiment tables of EXPERIMENTS.md
   (Experiments.all: E1-E15, E18, E21, E22), optionally runs the Bechamel
   micro-benchmarks, and writes and checks the machine-readable perf
   baseline, which also carries the E16-E22 telemetry rows.

     dune exec bench/main.exe                     # all tables
     dune exec bench/main.exe -- --micro          # tables + micro-benchmarks
     dune exec bench/main.exe -- E4 E5            # selected tables
     dune exec bench/main.exe -- --json BASE.json --micro
         # micro-benchmarks + telemetry to a JSON baseline file
         # (tables are skipped unless named explicitly)
     dune exec bench/main.exe -- --check-json BASE.json
         # validate a baseline against the guard table of Baseline
     dune exec bench/main.exe -- --compare-json OLD.json NEW.json
         # validate NEW, then bound its guarded fields against OLD's at 10x
     --quota SECONDS   Bechamel measurement quota per benchmark (default 0.25)
     --scale N         instance size for the E19 scale telemetry rows
                       (default 20000; the committed baselines use 1000000)
     --clients N       concurrent clients of the E20 serve telemetry
                       (default 8)

   An unknown table name or option is a usage error (exit 2). *)

let micro_tests () =
  let open Bechamel in
  let t name f = (name, Test.make ~name (Staged.stage f)) in
  let ex15 = Workload.Paperdb.example15 in
  let ex19 = Workload.Paperdb.example19 in
  let fk = Workload.Gen.fk_workload ~seed:9 ~n_parent:4 ~n_child:6 ~orphan_rate:0.3 ~null_rate:0.1 () in
  let check = Workload.Gen.check_workload ~seed:9 ~n:200 ~viol_rate:0.2 ~null_rate:0.2 () in
  let clusters4 = Workload.Gen.clusters_workload ~padding:2 ~k:4 () in
  let pg19 =
    match Core.Proggen.repair_program ex19.Workload.Paperdb.d ex19.Workload.Paperdb.ics with
    | Ok pg -> pg
    | Error m -> failwith m
  in
  let ground19 = Asp.Grounder.ground pg19.Core.Proggen.program in
  let query =
    Query.Qsyntax.make ~head:[ "id"; "code" ]
      (Query.Qsyntax.Atom
         (Ic.Patom.make "Course" [ Ic.Term.var "id"; Ic.Term.var "code" ]))
  in
  [
    (* E1: paper-example repair computation *)
    t "E1.repairs.enumerate.ex15" (fun () ->
        Repair.Enumerate.repairs ex15.Workload.Paperdb.d ex15.Workload.Paperdb.ics);
    t "E1.repairs.program.ex19" (fun () ->
        Core.Engine.repairs ex19.Workload.Paperdb.d ex19.Workload.Paperdb.ics);
    (* E2/E8: engines on a synthetic FK workload *)
    t "E2.enumerate.fk" (fun () ->
        Repair.Enumerate.repairs fk.Workload.Gen.d fk.Workload.Gen.ics);
    t "E8.program.fk" (fun () ->
        Core.Engine.repairs fk.Workload.Gen.d fk.Workload.Gen.ics);
    (* E4: solving the ground program with and without shifting *)
    t "E4.solve.shifted" (fun () ->
        Asp.Solver.stable_models (Asp.Shift.ground ground19));
    t "E4.solve.disjunctive" (fun () ->
        Asp.Solver.stable_models ground19);
    (* E5: generation + grounding *)
    t "E5.generate.width6" (fun () ->
        Core.Proggen.repair_program (Workload.Gen.disjunctive_uic ~width:6).Workload.Gen.d
          (Workload.Gen.disjunctive_uic ~width:6).Workload.Gen.ics);
    (* E6: the satisfaction check itself on a wider instance *)
    t "E6.nullsat.check200" (fun () ->
        Semantics.Nullsat.check check.Workload.Gen.d check.Workload.Gen.ics);
    (* E7: CQA end-to-end *)
    t "E7.cqa.ex15" (fun () ->
        Query.Cqa.consistent_answers ex15.Workload.Paperdb.d
          ex15.Workload.Paperdb.ics query);
    (* E10: graph analysis *)
    t "E10.depgraph.ex19" (fun () ->
        Ic.Depgraph.is_ric_acyclic ex19.Workload.Paperdb.ics);
    (* E15: conflict-component decomposition, 4 shared-predicate clusters *)
    t "E15.repairs.monolithic.k4" (fun () ->
        Repair.Enumerate.repairs clusters4.Workload.Gen.d
          clusters4.Workload.Gen.ics);
    t "E15.repairs.decomposed.k4" (fun () ->
        Query.Cqa.repairs ~method_:Query.Cqa.ModelTheoretic
          clusters4.Workload.Gen.d clusters4.Workload.Gen.ics);
  ]

(* Runs every micro-benchmark and returns (name, ns/run) rows; a failed
   OLS analysis reports 0.0 so the row set is stable for the baseline
   format regardless of the quota. *)
let run_micro ~quota () =
  let open Bechamel in
  print_endline "\n--- micro-benchmarks (Bechamel, monotonic clock) ---";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let rows =
    List.map
      (fun (name, test) ->
        let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
        let est = ref 0.0 in
        Hashtbl.iter
          (fun _key raw ->
            match Analyze.one (Analyze.ols ~bootstrap:0 ~r_square:false
                                 ~predictors:[| Measure.run |]) instance raw with
            | ols -> (
                match Analyze.OLS.estimates ols with
                | Some [ e ] -> est := e
                | _ -> ())
            | exception _ -> ())
          results;
        if !est > 0.0 then Printf.printf "%-28s %12.0f ns/run\n" name !est
        else Printf.printf "%-28s (no estimate)\n" name;
        (name, !est))
      (micro_tests ())
  in
  flush stdout;
  rows

(* Solver telemetry on example 19's ground program: the CDCL search and
   the sweep-based reference, shifted and disjunctive — the
   decision/propagation counts behind the E4 micro-benchmarks, recorded in
   the baseline so propagation regressions are visible without re-deriving
   them from wall-clock noise. *)
let solver_telemetry () =
  let ex19 = Workload.Paperdb.example19 in
  let pg19 =
    match Core.Proggen.repair_program ex19.Workload.Paperdb.d ex19.Workload.Paperdb.ics with
    | Ok pg -> pg
    | Error m -> failwith m
  in
  let ground19 = Asp.Grounder.ground pg19.Core.Proggen.program in
  let shifted19 = Asp.Shift.ground ground19 in
  let row name engine solve g =
    let stats = Asp.Solver.new_stats () in
    let models = solve ~stats g in
    (name, engine, List.length models, stats)
  in
  [
    row "E4.solve.shifted" "cdcl"
      (fun ~stats g -> Asp.Solver.stable_models ~stats g) shifted19;
    row "E4.solve.shifted" "naive"
      (fun ~stats g -> Sweep.stable_models ~stats g) shifted19;
    row "E4.solve.disjunctive" "cdcl"
      (fun ~stats g -> Asp.Solver.stable_models ~stats g) ground19;
    row "E4.solve.disjunctive" "naive"
      (fun ~stats g -> Sweep.stable_models ~stats g) ground19;
  ]

(* CDCL telemetry (E21): the learning search vs the chronological
   sweep-based reference on the non-HCF combination-lock sweep of
   {!Experiments.lock_program}.  Rows flagged hard carry the headline
   claim — CDCL reaches the same models with at most half the decisions —
   as checked data under --check-json, not prose. *)
let cdcl_telemetry () = Experiments.lock_measurements ()

(* Conformance telemetry (E22): replay the full pinned suite and the
   generated corpus through the cross-tier runner — one row per case,
   with the tier count, per-tier wall-clocks and the identity verdict.
   Every future baseline must keep every verdict green: the conformance
   contract as checked data under --check-json. *)
let conform_telemetry () =
  let _, results = Conform.Runner.run (Conform.Suite.all @ Conform.Corpus.all) in
  List.map
    (fun (r : Conform.Runner.result_) ->
      ( r.Conform.Runner.case.Conform.Case.name,
        r.Conform.Runner.case.Conform.Case.family,
        List.map
          (fun (t : Conform.Runner.tier_result) ->
            (t.Conform.Runner.tier, t.Conform.Runner.ms))
          r.Conform.Runner.tiers,
        Conform.Runner.passed r ))
    results

(* Decomposition counters for the shared-predicate cluster workload (E15):
   component structure and per-component exploration, recorded so the
   product-to-sum collapse of the conflict-component search is visible as
   exact state counts, not wall-clock noise. *)
let decompose_telemetry () =
  List.map
    (fun k ->
      let w = Workload.Gen.clusters_workload ~padding:2 ~k () in
      let mono_states = ref 0 in
      ignore
        (Repair.Enumerate.search ~explored:mono_states w.Workload.Gen.d
           w.Workload.Gen.ics);
      let plan = Repair.Decompose.plan w.Workload.Gen.d w.Workload.Gen.ics in
      let reps =
        Experiments.decomposed_repairs Query.Cqa.ModelTheoretic
          w.Workload.Gen.d w.Workload.Gen.ics
      in
      let max_component_atoms =
        List.fold_left
          (fun acc (c : Repair.Decompose.component) ->
            max acc (Relational.Atom.Set.cardinal c.Repair.Decompose.atoms))
          0 plan.Repair.Decompose.components
      in
      ( k,
        List.length plan.Repair.Decompose.components,
        max_component_atoms,
        plan.Repair.Decompose.product_exact,
        List.length reps,
        !mono_states,
        Experiments.component_states plan ))
    [ 1; 2; 4; 6 ]

(* Budget telemetry (E16): one budgeted end-to-end CQA run per engine,
   recording the per-stage consumption counters of the shared budget —
   solver decisions, search states, components solved, wall-clock — so the
   baseline shows where each engine spends its budget and a counter that
   silently stops ticking is caught by the non-zero guards of
   --check-json. *)
let budget_telemetry () =
  let w = Workload.Gen.clusters_workload ~padding:1 ~k:2 () in
  let query =
    Query.Qsyntax.make ~head:[ "x" ]
      (Query.Qsyntax.Atom (Ic.Patom.make "S" [ Ic.Term.var "x" ]))
  in
  let row name method_ decompose =
    let stats = Budget.new_stats () in
    let budget = Budget.start ~stats Budget.unlimited in
    let outcome =
      match
        Query.Cqa.consistent_answers ~method_ ~budget ~decompose
          w.Workload.Gen.d w.Workload.Gen.ics query
      with
      | Ok _ -> "ok"
      | Error _ -> "error"
    in
    Budget.finish budget;
    (name, decompose, outcome, stats)
  in
  [
    row "E16.budget.mt.decomposed" Query.Cqa.ModelTheoretic true;
    row "E16.budget.lp.decomposed" Query.Cqa.LogicProgram true;
    row "E16.budget.lp.monolithic" Query.Cqa.LogicProgram false;
    row "E16.budget.cautious" Query.Cqa.CautiousProgram false;
  ]

(* Parallel telemetry (E16): the weighted cluster workload repaired with
   --jobs 1, 2 and 4 by the decomposed pipeline's enumeration, recording
   wall-clock, the machine's core count and whether every run's repair
   list is identical to the sequential one — the determinism contract as
   a checked fact, and the speedup (when the machine has the cores for
   one) as data rather than anecdote. *)
let parallel_telemetry () =
  let cores = Parallel.Config.resolve 0 in
  let k = 4 and weight = 8 in
  let g = Workload.Gen.clusters_workload ~k ~weight () in
  let run jobs =
    let t0 = Unix.gettimeofday () in
    let reps =
      Experiments.decomposed_repairs ~jobs Query.Cqa.ModelTheoretic
        g.Workload.Gen.d g.Workload.Gen.ics
    in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    (jobs, reps, ms)
  in
  let _, base_reps, _ = run 1 in
  (* the timed jobs=1 run repeats after the warm-up so every row pays the
     same allocation profile *)
  List.map
    (fun jobs ->
      let _, reps, ms = run jobs in
      ( k,
        weight,
        jobs,
        cores,
        List.length reps,
        ms,
        List.equal Relational.Instance.equal reps base_reps ))
    [ 1; 2; 4 ]

(* Session telemetry (E17): a scripted update/query mix on the cluster
   workload served by the incremental session engine, against a cold
   decomposed run per request on the same instance.  Records the cache
   counters, both wall-clocks and whether every session answer was
   byte-identical to its cold counterpart — the session's correctness
   contract as checked data.  The script keeps the hit rate high on
   purpose (a no-op insert, then removing and restoring one cluster):
   that is the serving pattern the cache exists for, and --check-json
   guards the > 0.5 rate so a cache that silently stops hitting fails the
   baseline. *)
let session_telemetry () =
  let k = 6 in
  let w = Workload.Gen.clusters_workload ~padding:2 ~k () in
  let query =
    Query.Qsyntax.make ~head:[ "x" ]
      (Query.Qsyntax.Atom (Ic.Patom.make "S" [ Ic.Term.var "x" ]))
  in
  let a0 = Relational.Value.str "a0" in
  let deltas =
    [
      (* an update no constraint can see, over an existing constant: the
         plan refreshes in place and every component hits *)
      [ Delta.insert (Relational.Atom.make "Note" [ a0 ]) ];
      (* one cluster leaves and comes back: the other components keep
         their fingerprints across both re-plans *)
      [ Delta.delete (Relational.Atom.make "S" [ a0 ]) ];
      [ Delta.insert (Relational.Atom.make "S" [ a0 ]) ];
    ]
  in
  let s = Session.create ~engine:Session.Program w.Workload.Gen.d w.Workload.Gen.ics in
  let d = ref w.Workload.Gen.d in
  let incremental_ms = ref 0.0 and cold_ms = ref 0.0 in
  let identical = ref true in
  let timed acc f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    acc := !acc +. ((Unix.gettimeofday () -. t0) *. 1000.);
    r
  in
  let serve () =
    let s_reps = timed incremental_ms (fun () -> Session.repairs s) in
    let s_out = timed incremental_ms (fun () -> Session.cqa s query) in
    let c_reps =
      timed cold_ms (fun () ->
          Query.Cqa.repairs ~method_:Query.Cqa.LogicProgram !d
            w.Workload.Gen.ics)
    in
    let c_out =
      timed cold_ms (fun () ->
          Query.Cqa.consistent_answers ~method_:Query.Cqa.LogicProgram
            ~decompose:true !d w.Workload.Gen.ics query)
    in
    (match (s_reps, c_reps) with
    | Ok a, Ok b ->
        if
          not
            (List.length a = List.length b
            && List.for_all2 Relational.Instance.equal a b)
        then identical := false
    | _ -> identical := false);
    match (s_out, c_out) with
    | Ok a, Ok b ->
        if
          not
            (Relational.Tuple.Set.equal a.Query.Cqa.consistent
               b.Query.Cqa.consistent
            && Relational.Tuple.Set.equal a.Query.Cqa.possible
                 b.Query.Cqa.possible
            && a.Query.Cqa.repair_count = b.Query.Cqa.repair_count)
        then identical := false
    | _ -> identical := false
  in
  serve ();
  List.iter
    (fun ops ->
      Session.apply s ops;
      d := Delta.apply ops !d;
      serve ())
    deltas;
  let st = Session.stats s in
  [
    ( Printf.sprintf "E17.session.clusters.k%d" k,
      k,
      st.Session.deltas,
      st.Session.requests,
      st.Session.cache_hits,
      st.Session.cache_misses,
      st.Session.cache_evictions,
      Session.hit_rate st,
      !incremental_ms,
      !cold_ms,
      !identical );
  ]

(* Routing telemetry (E18): the Auto method against both decomposed
   materializing engines on FD workloads plus one mixed-tier suite,
   recording the per-tier routing counters of the request budget, all
   three wall-clocks and whether the Auto outcome was identical to the
   decomposed enumerate oracle.  The FD rows are the fast-path claim as
   data: every component routes to the repair-less direct tier, and on
   the widest row --check-json guards the >= 10x speedup over decomposed
   enumeration.  The mixed suite (FD + RIC + bilateral + general
   existential over disjoint predicates) exercises all four tiers in one
   plan, so a router that silently collapses to a single tier fails the
   per-tier non-zero guards. *)
let routing_telemetry () =
  let key_query =
    Query.Qsyntax.make ~head:[ "x" ]
      (Query.Qsyntax.Exists
         ( [ "y" ],
           Query.Qsyntax.Atom
             (Ic.Patom.make "R" [ Ic.Term.var "x"; Ic.Term.var "y" ]) ))
  in
  let mixed =
    (* disjoint predicates per tier: R (FD clusters -> direct),
       Course/Student (RIC -> shifted), P (bilateral loop -> disjunctive),
       A/B/C (general existential -> enumerate) *)
    let fd = Workload.Gen.fd_workload ~n:3 ~dup_rate:1.0 ~width:4 () in
    let bil = Workload.Gen.bilateral_loop ~n:3 () in
    let v = Ic.Term.var in
    let atom p ts = Ic.Patom.make p ts in
    let str = Relational.Value.str in
    let extra =
      Relational.Instance.of_list
        [
          ("Course", [ Relational.Value.int 21; str "C15" ]);
          ("Course", [ Relational.Value.int 34; str "C18" ]);
          ("Student", [ Relational.Value.int 21; str "Ann" ]);
          ("A", [ str "a" ]);
          ("B", [ str "a" ]);
        ]
    in
    {
      Workload.Gen.label = "mixed tiers";
      d =
        Relational.Instance.union fd.Workload.Gen.d
          (Relational.Instance.union bil.Workload.Gen.d extra);
      ics =
        fd.Workload.Gen.ics @ bil.Workload.Gen.ics
        @ [
            Ic.Constr.generic ~name:"enrolled"
              ~ante:[ atom "Course" [ v "id"; v "code" ] ]
              ~cons:[ atom "Student" [ v "id"; v "name" ] ]
              ();
            Ic.Constr.generic ~name:"ab_c"
              ~ante:[ atom "A" [ v "x" ]; atom "B" [ v "x" ] ]
              ~cons:[ atom "C" [ v "x"; v "y" ] ]
              ();
          ];
    }
  in
  let row name (w : Workload.Gen.t) =
    let run method_ budget =
      let t0 = Unix.gettimeofday () in
      let out =
        Query.Cqa.consistent_answers ~method_ ?budget ~decompose:true
          w.Workload.Gen.d w.Workload.Gen.ics key_query
      in
      (out, (Unix.gettimeofday () -. t0) *. 1000.)
    in
    let stats = Budget.new_stats () in
    let budget = Budget.start ~stats Budget.unlimited in
    let auto, auto_ms = run Query.Cqa.Auto (Some budget) in
    Budget.finish budget;
    let enum, enum_ms = run Query.Cqa.ModelTheoretic None in
    let _, prog_ms = run Query.Cqa.LogicProgram None in
    let identical =
      match (auto, enum) with
      | Ok a, Ok b ->
          Relational.Tuple.Set.equal a.Query.Cqa.consistent
            b.Query.Cqa.consistent
          && Relational.Tuple.Set.equal a.Query.Cqa.possible
               b.Query.Cqa.possible
          && Relational.Tuple.Set.equal a.Query.Cqa.standard
               b.Query.Cqa.standard
          && a.Query.Cqa.repair_count = b.Query.Cqa.repair_count
      | _ -> false
    in
    let tiers =
      Array.map
        (fun t -> Budget.routed stats t)
        [| Budget.Direct; Budget.Shifted; Budget.Disjunctive; Budget.Enumerated |]
    in
    (name, tiers, auto_ms, enum_ms, prog_ms, identical)
  in
  [
    row "E18.routing.fd.n4.w4" (Workload.Gen.fd_workload ~n:4 ~dup_rate:1.0 ~width:4 ());
    row "E18.routing.fd.n6.w8" (Workload.Gen.fd_workload ~n:6 ~dup_rate:1.0 ~width:8 ());
    row "E18.routing.fd.n4.w12" (Workload.Gen.fd_workload ~n:4 ~dup_rate:1.0 ~width:12 ());
    row "E18.routing.mixed" mixed;
  ]

(* E19: large-instance scaling of the columnar interned storage — wall
   clocks and tuples/sec for bulk load, full |=_N checking and consistent
   query answering, plus the incremental-vs-full delta check ratio and the
   resident set size.  Two rows per run: n/10 and n, so a --scale 1000000
   baseline carries both the 10^5 row the >= 10x delta guard engages on
   and the 10^6 row of the headline claim. *)
let scale_telemetry ~scale () =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let rss_mb () =
    (* Linux-only telemetry; 0.0 where /proc is absent. *)
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> 0.0
            | Some line ->
                if String.length line > 6 && String.sub line 0 6 = "VmRSS:"
                then
                  Scanf.sscanf
                    (String.sub line 6 (String.length line - 6))
                    " %d" (fun kb -> float_of_int kb /. 1024.)
                else go ()
          in
          go ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> 0.0
  in
  let query =
    Query.Qsyntax.make ~head:[ "x" ]
      (Query.Qsyntax.Exists
         ( [ "y" ],
           Query.Qsyntax.Atom
             (Ic.Patom.make "S" [ Ic.Term.var "x"; Ic.Term.var "y" ]) ))
  in
  let row n =
    let w = Workload.Gen.scale_workload ~tuples:n () in
    let ics = w.Workload.Gen.ics in
    let atoms = Relational.Instance.atoms w.Workload.Gen.d in
    let d, load_ms = time (fun () -> Relational.Instance.of_atoms atoms) in
    let violations, check_ms =
      time (fun () -> Semantics.Nullsat.check d ics)
    in
    let outcome, cqa_ms =
      time (fun () ->
          Query.Cqa.consistent_answers ~method_:Query.Cqa.Auto d ics query)
    in
    let answers =
      match outcome with
      | Ok a -> Relational.Tuple.Set.cardinal a.Query.Cqa.consistent
      | Error _ -> 0
    in
    (* A small update batch against the loaded instance: one deleted parent
       and two fresh inserts, checked incrementally (probes seeded on the
       delta) against a full re-check of the updated instance.  One
       unmeasured warm-up pass first, so the ratio compares steady states
       rather than charging the incremental side the one-time lazy
       construction of the postings its seeds probe. *)
    let mk p vs = Relational.Atom.make p vs in
    let inserted =
      [
        mk "R" [ Relational.Value.int 999_999_999; Relational.Value.str "oz" ];
        mk "S" [ Relational.Value.int 2_000_000_000; Relational.Value.int 0 ];
      ]
    in
    let deleted = [ List.hd atoms ] in
    let before = Semantics.Nullsat.canonical_violations violations in
    let d' =
      List.fold_left
        (fun d a -> Relational.Instance.add a d)
        (List.fold_left
           (fun d a -> Relational.Instance.remove a d)
           d deleted)
        inserted
    in
    ignore (Semantics.Nullsat.check_delta ~before ~inserted ~deleted d' ics);
    let full, delta_full_ms =
      time (fun () ->
          Semantics.Nullsat.canonical_violations
            (Semantics.Nullsat.check d' ics))
    in
    let (incr, _stats), delta_incr_ms =
      time (fun () ->
          Semantics.Nullsat.check_delta ~before ~inserted ~deleted d' ics)
    in
    let identical =
      List.length full = List.length incr
      && List.for_all2
           (fun a b -> Semantics.Nullsat.compare_violation a b = 0)
           full incr
    in
    let tps ms = if ms > 0.0 then float_of_int n /. (ms /. 1000.) else 0.0 in
    ( Printf.sprintf "E19.scale.n%d" n,
      n,
      (load_ms, tps load_ms),
      (check_ms, tps check_ms),
      (cqa_ms, tps cqa_ms),
      (delta_full_ms, delta_incr_ms),
      identical,
      List.length violations,
      answers,
      rss_mb () )
  in
  (* bound in order: list elements evaluate right to left, which would run
     the big row first and leave its heap in the small row's rss_mb *)
  let small = row (max 1_000 (scale / 10)) in
  let big = row scale in
  [ small; big ]

(* Serve telemetry (E20): K concurrent clients replaying one identical
   update/query script against a single in-process [Serve.Server] over a
   temp Unix socket — the concurrent serving claim as checked data.  Every
   client runs its own session over the shared base, so every reply must be
   byte-identical to a cold private-protocol replay of the same script
   ([identical], guarded); the process-global component cache must show
   cross-session traffic (client 1 populates, clients 2..K hit entries they
   do not own — [cross_hits] >= 1 is deterministic for K >= 2, guarded by
   --check-json).  Latencies are measured per request at the client and
   reported as p50/p99 alongside the aggregate request rate. *)
let serve_telemetry ~clients () =
  let k = 6 in
  let w = Workload.Gen.clusters_workload ~padding:2 ~k () in
  let query =
    Query.Qsyntax.make ~head:[ "x" ]
      (Query.Qsyntax.Atom (Ic.Patom.make "S" [ Ic.Term.var "x" ]))
  in
  let env =
    {
      Serve.Protocol.schema =
        Relational.Schema.of_list
          [ ("S", [ "x" ]); ("R", [ "x"; "y" ]); ("T", [ "x" ]);
            ("Note", [ "x" ]) ];
      queries = [ ("q1", query) ];
    }
  in
  (* the E17 session script, spelled as protocol lines: a no-op insert,
     then removing and restoring one cluster, with repairs/cqa probes
     between the updates *)
  let script =
    [
      "repairs"; "cqa q1";
      "insert Note(a0)"; "repairs"; "cqa q1";
      "delete S(a0)"; "repairs"; "cqa q1";
      "insert S(a0)"; "repairs"; "cqa q1";
    ]
  in
  let cfg =
    {
      Serve.Server.engine = Session.Program;
      jobs = Parallel.Config.resolve 0;
      cache_capacity = 4096;
      timeout_ms = None;
      want_stats = false;
      max_line = Serve.Protocol.default_max_line;
    }
  in
  let srv = Serve.Server.create cfg ~base:w.Workload.Gen.d ~ics:w.Workload.Gen.ics env in
  (* the oracle: the same script through a cold private protocol (its own
     session, its own cache) — what a lone [cqanull session] would print *)
  let expected =
    let cold_cfg =
      {
        Serve.Protocol.engine = Session.Program;
        jobs = 1;
        capacity = 4096;
        timeout_ms = None;
        want_stats = false;
        allow_load = false;
        max_line = Serve.Protocol.default_max_line;
        cache = None;
        extra_stats = None;
      }
    in
    let p = Serve.Protocol.create cold_cfg in
    ignore
      (Serve.Protocol.attach ~violations:(Serve.Server.violations srv) p
         ~base:w.Workload.Gen.d ~ics:w.Workload.Gen.ics env);
    List.map (fun line -> (Serve.Protocol.exec p line).Serve.Protocol.text)
      script
  in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cqanull-bench-%d.sock" (Unix.getpid ()))
  in
  let fd = Serve.Server.listen_unix sock in
  let server_thread = Thread.create (fun () -> Serve.Server.run srv fd) () in
  let n_script = List.length script in
  let latencies = Array.make (clients * n_script) 0.0 in
  let identical = Atomic.make true in
  let t0 = Unix.gettimeofday () in
  let client_thread idx =
    Thread.create
      (fun () ->
        match Serve.Client.connect ~retry_ms:5_000 (Unix.ADDR_UNIX sock) with
        | Error _ -> Atomic.set identical false
        | Ok c ->
            List.iteri
              (fun j line ->
                let r0 = Unix.gettimeofday () in
                let reply = Serve.Client.request c line in
                latencies.((idx * n_script) + j) <-
                  (Unix.gettimeofday () -. r0) *. 1000.;
                match reply with
                | Ok text when text = List.nth expected j -> ()
                | Ok _ | Error `Closed -> Atomic.set identical false)
              script;
            Serve.Client.close c)
      ()
  in
  let threads = List.init clients client_thread in
  List.iter Thread.join threads;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Serve.Server.request_stop srv;
  Thread.join server_thread;
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let cs = Session.Cache.stats (Serve.Server.cache srv) in
  Array.sort compare latencies;
  let pct p =
    let n = Array.length latencies in
    latencies.(min (n - 1) (p * n / 100))
  in
  let requests = clients * n_script in
  [
    ( Printf.sprintf "E20.serve.k%d.c%d" k clients,
      clients,
      requests,
      wall_ms,
      (if wall_ms > 0.0 then float_of_int requests /. (wall_ms /. 1000.)
       else 0.0),
      pct 50,
      pct 99,
      cs.Session.Cache.hits,
      cs.Session.Cache.misses,
      cs.Session.Cache.evictions,
      cs.Session.Cache.cross_hits,
      Session.Cache.cross_hit_rate cs,
      Atomic.get identical );
  ]

let write_json path micro solver_rows decompose_rows budget_rows parallel_rows
    session_rows routing_rows scale_rows serve_rows cdcl_rows conform_rows =
  let open Table in
  let micro_rows =
    List.map
      (fun (name, est) ->
        Obj [ ("name", Str name); ("ns_per_run", Num est) ])
      micro
  in
  let telemetry_rows =
    List.map
      (fun (name, engine, models, (s : Asp.Solver.stats)) ->
        Obj
          [
            ("name", Str name);
            ("engine", Str engine);
            ("models", Int models);
            ("decisions", Int s.Asp.Solver.decisions);
            ("propagations", Int s.Asp.Solver.propagations);
            ("candidates", Int s.Asp.Solver.candidates);
            ("minimality_checks", Int s.Asp.Solver.minimality_checks);
            ("queue_pushes", Int s.Asp.Solver.queue_pushes);
            ("rules_touched", Int s.Asp.Solver.rules_touched);
            ("conflicts", Int s.Asp.Solver.conflicts);
            ("learned", Int s.Asp.Solver.learned);
            ("restarts", Int s.Asp.Solver.restarts);
            ("backjump_len", Int s.Asp.Solver.backjump_len);
            ("phase_saved", Int s.Asp.Solver.phase_saved);
          ])
      solver_rows
  in
  let cdcl_json =
    List.map
      (fun ( name, k, m, atoms, models, identical, hard,
             (sc : Asp.Solver.stats), (sd : Asp.Solver.stats) ) ->
        Obj
          [
            ("name", Str name);
            ("k", Int k);
            ("m", Int m);
            ("atoms", Int atoms);
            ("models", Int models);
            ("cdcl_decisions", Int sc.Asp.Solver.decisions);
            ("dpll_decisions", Int sd.Asp.Solver.decisions);
            ( "decision_ratio",
              Num
                (if sd.Asp.Solver.decisions > 0 then
                   float_of_int sc.Asp.Solver.decisions
                   /. float_of_int sd.Asp.Solver.decisions
                 else 0.0) );
            ("conflicts", Int sc.Asp.Solver.conflicts);
            ("learned", Int sc.Asp.Solver.learned);
            ("restarts", Int sc.Asp.Solver.restarts);
            ("backjump_len", Int sc.Asp.Solver.backjump_len);
            ("phase_saved", Int sc.Asp.Solver.phase_saved);
            ("hard", Str (if hard then "true" else "false"));
            ("identical", Str (if identical then "true" else "false"));
          ])
      cdcl_rows
  in
  let conform_json =
    List.map
      (fun (name, family, tier_ms, passed) ->
        Obj
          [
            ("name", Str name);
            ("family", Str family);
            ("tiers", Int (List.length tier_ms));
            ( "tier_ms",
              Obj (List.map (fun (t, ms) -> (t, Num ms)) tier_ms) );
            ("identical", Str (if passed then "true" else "false"));
          ])
      conform_rows
  in
  let decompose_json =
    List.map
      (fun (k, components, max_atoms, exact, count, mono_states, explored) ->
        Obj
          [
            ("k", Int k);
            ("components", Int components);
            ("max_component_atoms", Int max_atoms);
            ("product_exact", Str (if exact then "true" else "false"));
            ("repair_count", Int count);
            ("monolithic_states", Int mono_states);
            ("component_states", Arr (List.map (fun s -> Int s) explored));
          ])
      decompose_rows
  in
  let budget_json =
    List.map
      (fun (name, decompose, outcome, (s : Budget.stats)) ->
        Obj
          [
            ("name", Str name);
            ("decompose", Str (if decompose then "true" else "false"));
            ("outcome", Str outcome);
            ("decisions", Int (Atomic.get s.Budget.decisions));
            ("states", Int (Atomic.get s.Budget.states));
            ("components_solved", Int (Atomic.get s.Budget.components_solved));
            ("elapsed_ms", Int (Atomic.get s.Budget.elapsed_ms));
          ])
      budget_rows
  in
  let parallel_json =
    List.map
      (fun (k, weight, jobs, cores, repairs, wall_ms, identical) ->
        Obj
          [
            ("name", Str (Printf.sprintf "E16.parallel.k%d.w%d.j%d" k weight jobs));
            ("k", Int k);
            ("weight", Int weight);
            ("jobs", Int jobs);
            ("cores", Int cores);
            ("repairs", Int repairs);
            ("wall_ms", Num wall_ms);
            ("identical", Str (if identical then "true" else "false"));
          ])
      parallel_rows
  in
  let session_json =
    List.map
      (fun ( name, k, deltas, requests, hits, misses, evictions, hit_rate,
             incremental_ms, cold_ms, identical ) ->
        Obj
          [
            ("name", Str name);
            ("k", Int k);
            ("deltas", Int deltas);
            ("requests", Int requests);
            ("hits", Int hits);
            ("misses", Int misses);
            ("evictions", Int evictions);
            ("hit_rate", Num hit_rate);
            ("incremental_ms", Num incremental_ms);
            ("cold_ms", Num cold_ms);
            ("identical", Str (if identical then "true" else "false"));
          ])
      session_rows
  in
  let routing_json =
    List.map
      (fun (name, tiers, auto_ms, enum_ms, prog_ms, identical) ->
        Obj
          [
            ("name", Str name);
            ("routed_direct", Int tiers.(0));
            ("routed_shifted", Int tiers.(1));
            ("routed_disjunctive", Int tiers.(2));
            ("routed_enumerate", Int tiers.(3));
            ("auto_ms", Num auto_ms);
            ("enumerate_ms", Num enum_ms);
            ("program_ms", Num prog_ms);
            ( "speedup_vs_enumerate",
              Num (if auto_ms > 0.0 then enum_ms /. auto_ms else 0.0) );
            ("identical", Str (if identical then "true" else "false"));
          ])
      routing_rows
  in
  let scale_json =
    List.map
      (fun ( name, n, (load_ms, load_tps), (check_ms, check_tps),
             (cqa_ms, cqa_tps), (delta_full_ms, delta_incr_ms), identical,
             violations, answers, rss ) ->
        Obj
          [
            ("name", Str name);
            ("n", Int n);
            ("load_ms", Num load_ms);
            ("load_tps", Num load_tps);
            ("check_ms", Num check_ms);
            ("check_tps", Num check_tps);
            ("cqa_ms", Num cqa_ms);
            ("cqa_tps", Num cqa_tps);
            ("delta_full_ms", Num delta_full_ms);
            ("delta_incr_ms", Num delta_incr_ms);
            ( "delta_speedup",
              Num
                (if delta_incr_ms > 0.0 then delta_full_ms /. delta_incr_ms
                 else 0.0) );
            ("delta_identical", Str (if identical then "true" else "false"));
            ("violations", Int violations);
            ("answers", Int answers);
            ("rss_mb", Num rss);
          ])
      scale_rows
  in
  let serve_json =
    List.map
      (fun ( name, clients, requests, wall_ms, req_per_s, p50_ms, p99_ms,
             hits, misses, evictions, cross_hits, cross_hit_rate, identical ) ->
        Obj
          [
            ("name", Str name);
            ("clients", Int clients);
            ("requests", Int requests);
            ("wall_ms", Num wall_ms);
            ("req_per_s", Num req_per_s);
            ("p50_ms", Num p50_ms);
            ("p99_ms", Num p99_ms);
            ("hits", Int hits);
            ("misses", Int misses);
            ("evictions", Int evictions);
            ("cross_hits", Int cross_hits);
            ("cross_hit_rate", Num cross_hit_rate);
            ("identical", Str (if identical then "true" else "false"));
          ])
      serve_rows
  in
  let doc =
    Obj
      [
        ("schema", Str (Baseline.schema Baseline.latest));
        ("tool", Str "bench/main.exe --json");
        ("unit", Str "ns/run");
        ("micro", Arr micro_rows);
        ("solver", Arr telemetry_rows);
        ("decompose", Arr decompose_json);
        ("budget", Arr budget_json);
        ("parallel", Arr parallel_json);
        ("session", Arr session_json);
        ("routing", Arr routing_json);
        ("scale", Arr scale_json);
        ("serve", Arr serve_json);
        ("cdcl", Arr cdcl_json);
        ("conform", Arr conform_json);
      ]
  in
  Out_channel.with_open_text path (fun oc -> output_string oc (emit doc));
  Printf.printf "wrote %s (%s)\n" path (Baseline.summary Baseline.latest doc)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc_names micro json check cmp quota scale clients = function
    | [] -> (List.rev acc_names, micro, json, check, cmp, quota, scale, clients)
    | "--micro" :: rest ->
        parse acc_names true json check cmp quota scale clients rest
    | "--json" :: file :: rest ->
        parse acc_names micro (Some file) check cmp quota scale clients rest
    | "--check-json" :: file :: rest ->
        parse acc_names micro json (Some file) cmp quota scale clients rest
    | "--compare-json" :: old_file :: new_file :: rest ->
        parse acc_names micro json check (Some (old_file, new_file)) quota
          scale clients rest
    | "--quota" :: q :: rest -> (
        match float_of_string_opt q with
        | Some q when q > 0.0 ->
            parse acc_names micro json check cmp q scale clients rest
        | _ ->
            Printf.eprintf "invalid --quota %S\n" q;
            exit 2)
    | "--scale" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 10 ->
            parse acc_names micro json check cmp quota n clients rest
        | _ ->
            Printf.eprintf "invalid --scale %S\n" n;
            exit 2)
    | "--clients" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 2 ->
            parse acc_names micro json check cmp quota scale n rest
        | _ ->
            Printf.eprintf "invalid --clients %S (need >= 2)\n" n;
            exit 2)
    | ("--json" | "--check-json" | "--quota" | "--scale" | "--clients") :: []
    | "--compare-json" :: ([] | [ _ ]) ->
        Printf.eprintf "missing argument\n";
        exit 2
    | name :: _ when String.starts_with ~prefix:"-" name ->
        Printf.eprintf "unknown option %s\n" name;
        exit 2
    | name :: rest when List.mem_assoc name Experiments.all ->
        parse (name :: acc_names) micro json check cmp quota scale clients rest
    | name :: _ ->
        Printf.eprintf "unknown table %s (%s)\n" name
          (String.concat ", " (List.map fst Experiments.all));
        exit 2
  in
  let selected, micro, json, check, cmp, quota, scale, clients =
    parse [] false None None None 0.25 20_000 8 args
  in
  match (check, cmp) with
  | Some file, _ -> Baseline.check_json file
  | None, Some (old_file, new_file) -> Baseline.compare_json old_file new_file
  | None, None ->
      print_endline
        "cqanull benchmark harness — reproduction tables for 'Semantically \
         Correct Query Answers in the Presence of Null Values' (EDBT 2006)";
      (match (selected, json) with
      | [], Some _ -> ()  (* JSON mode: tables only when named explicitly *)
      | [], None -> List.iter (fun (_, f) -> f ()) Experiments.all
      | names, _ -> List.iter (fun n -> List.assoc n Experiments.all ()) names);
      let micro_rows =
        if micro || json <> None then run_micro ~quota () else []
      in
      match json with
      | Some file ->
          write_json file micro_rows (solver_telemetry ())
            (decompose_telemetry ()) (budget_telemetry ())
            (parallel_telemetry ()) (session_telemetry ())
            (routing_telemetry ())
            (scale_telemetry ~scale ())
            (serve_telemetry ~clients ())
            (cdcl_telemetry ())
            (conform_telemetry ())
      | None -> ()
