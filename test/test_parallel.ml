(* The domain-pool subsystem and the jobs=1 / jobs=N determinism contract
   of the decomposed engines. *)

module Pool = Parallel.Pool
module Instance = Relational.Instance
module Gen = Workload.Gen
module Cqa = Query.Cqa

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_map_ordered () =
  let xs = List.init 50 Fun.id in
  let squares =
    Pool.with_pool ~jobs:3 (fun pool -> Pool.map pool (fun x -> x * x) xs)
  in
  Alcotest.(check (list int)) "ordered results" (List.map (fun x -> x * x) xs)
    squares

let test_map_edge_sizes () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool Fun.id []);
      Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map pool succ [ 6 ]);
      Alcotest.(check (list int)) "pair" [ 1; 2 ] (Pool.map pool succ [ 0; 1 ]))

let test_map_lowest_index_exception () =
  (* several tasks raise; whichever worker finishes first, the re-raised
     exception must be the lowest-index one *)
  match
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map pool
          (fun i -> if i mod 5 = 0 then failwith (string_of_int i) else i)
          (List.init 23 (fun i -> i + 1)))
  with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure i -> Alcotest.(check string) "lowest index" "5" i

let test_pool_reusable_after_exception () =
  Pool.with_pool ~jobs:2 (fun pool ->
      (match Pool.map pool (fun _ -> failwith "boom") [ 1; 2; 3 ] with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure _ -> ());
      Alcotest.(check (list int)) "pool still serves" [ 2; 4; 6 ]
        (Pool.map pool (fun x -> 2 * x) [ 1; 2; 3 ]))

let test_tasks_run () =
  Pool.with_pool ~jobs:3 (fun pool ->
      ignore (Pool.map pool Fun.id (List.init 12 Fun.id));
      let counts = Pool.tasks_run pool in
      Alcotest.(check int) "three workers" 3 (List.length counts);
      Alcotest.(check int) "all tasks ran on the pool" 12
        (List.fold_left ( + ) 0 counts))

let test_config_resolve () =
  Alcotest.(check bool) "auto >= 1" true (Parallel.Config.resolve 0 >= 1);
  Alcotest.(check int) "explicit" 3 (Parallel.Config.resolve 3);
  Alcotest.(check int) "clamped" 1 (Parallel.Config.resolve (-2))

(* ------------------------------------------------------------------ *)
(* jobs=1 vs jobs=N determinism *)

let check_repair_lists msg expected actual =
  Alcotest.(check int)
    (msg ^ ": count") (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if not (Instance.equal e a) then
        Alcotest.failf "%s: repair %d differs: %a vs %a" msg i
          Instance.pp_inline e Instance.pp_inline a)
    (List.combine expected actual)

let test_repairs_identical_weighted () =
  let g = Gen.clusters_workload ~k:3 ~weight:4 () in
  let run method_ jobs =
    match Cqa.repairs ~jobs ~method_ g.Gen.d g.Gen.ics with
    | Ok reps -> reps
    | Error msg -> Alcotest.failf "decomposed repairs: %s" msg
  in
  check_repair_lists "enumerate clusters" (run Cqa.ModelTheoretic 1)
    (run Cqa.ModelTheoretic 4);
  check_repair_lists "engine clusters" (run Cqa.LogicProgram 1)
    (run Cqa.LogicProgram 4)

let outcome_equal (a : Cqa.outcome) (b : Cqa.outcome) =
  Relational.Tuple.Set.equal a.Cqa.consistent b.Cqa.consistent
  && Relational.Tuple.Set.equal a.Cqa.possible b.Cqa.possible
  && Relational.Tuple.Set.equal a.Cqa.standard b.Cqa.standard
  && a.Cqa.repair_count = b.Cqa.repair_count
  && a.Cqa.exhausted = b.Cqa.exhausted

let q_s =
  Query.Qsyntax.make ~head:[ "x" ]
    (Query.Qsyntax.Atom (Ic.Patom.make "S" [ Ic.Term.var "x" ]))

let prop_enumerate_jobs_differential =
  QCheck.Test.make ~name:"decomposed repairs: jobs=4 = jobs=1 (300 cases)"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = Gen.random_case ~seed () in
      let run jobs =
        Cqa.repairs ~jobs ~method_:Cqa.ModelTheoretic g.Gen.d g.Gen.ics
      in
      match (run 1, run 4) with
      | Ok a, Ok b -> List.equal Instance.equal a b
      | _ -> false)

let prop_cqa_jobs_differential =
  QCheck.Test.make ~name:"decomposed CQA: jobs=4 = jobs=1 (150 cases)"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let g = Gen.random_case ~seed () in
      List.for_all
        (fun method_ ->
          let run jobs =
            Cqa.consistent_answers ~method_ ~jobs g.Gen.d g.Gen.ics q_s
          in
          match (run 1, run 4) with
          | Ok a, Ok b -> outcome_equal a b
          | Error a, Error b -> a = b
          | _ -> false)
        [ Cqa.ModelTheoretic; Cqa.LogicProgram; Cqa.Auto ])

(* ------------------------------------------------------------------ *)
(* exhaustion under parallelism *)

let test_exhaustion_matches_sequential () =
  (* a shared budget with max_states = 0 trips the very first state of
     every component's search: both paths must degrade every component to
     its base slice and surface the same marker *)
  let g = Gen.clusters_workload ~k:3 ~weight:2 () in
  let run jobs =
    let budget = Budget.start (Budget.make ~max_states:0 ()) in
    Component_search.enumerate ~budget ~jobs g.Gen.d g.Gen.ics
  in
  let r1 = run 1 and r4 = run 4 in
  (match (r1.Component_search.exhausted, r4.Component_search.exhausted) with
  | Some (Budget.States 0), Some (Budget.States 0) -> ()
  | e1, e4 ->
      Alcotest.failf "markers differ or missing: %a vs %a"
        Fmt.(option Budget.pp_exhausted)
        e1
        Fmt.(option Budget.pp_exhausted)
        e4);
  List.iter
    (fun (m1, m4) -> check_repair_lists "degraded component" m1 m4)
    (List.combine r1.Component_search.minimal r4.Component_search.minimal);
  Alcotest.(check (list int))
    "no exploration recorded" r1.Component_search.explored
    r4.Component_search.explored

let test_worker_attribution () =
  (* with worker slots installed, all decomposed search work lands in the
     pool slots (the coordinator only merges) and sums to the global
     counters *)
  let g = Gen.clusters_workload ~k:4 ~weight:2 () in
  let stats = Budget.new_stats () in
  Budget.set_workers stats 2;
  let budget = Budget.start ~stats Budget.unlimited in
  let r = Component_search.enumerate ~budget ~jobs:2 g.Gen.d g.Gen.ics in
  Alcotest.(check int) "all components solved" 4
    (List.length (List.filter (fun l -> l <> []) r.Component_search.minimal));
  let sum sel =
    Array.fold_left (fun acc w -> acc + Atomic.get (sel w)) 0 stats.Budget.workers
  in
  Alcotest.(check int) "worker states sum to global"
    (Atomic.get stats.Budget.states)
    (sum (fun w -> w.Budget.w_states));
  Alcotest.(check int) "worker components sum to kept count" 4
    (sum (fun w -> w.Budget.w_components));
  Alcotest.(check int) "merge-side counter agrees" 4
    (Atomic.get stats.Budget.components_solved)

let test_components_solved_kept_only () =
  (* four clusters over clusters_workload's three constraints, with FD
     weights 6, 2, 2 and 2: all four route to the disjunctive tier and the
     heavy one comes first in plan order.  Under a decision limit below
     its own cost it trips while the light ones can finish on the other
     workers; the prefix rule keeps none of them, so the request is an
     Error and no component counts as solved, at any jobs setting. *)
  let ics = (Gen.clusters_workload ~weight:2 ~k:1 ()).Gen.ics in
  let sym p i = Relational.Value.str (Printf.sprintf "%s%d" p i) in
  let d =
    Instance.of_list
      (List.concat
         (List.mapi
            (fun i weight ->
              ("S", [ sym "a" i ])
              :: ("T", [ sym "a" i ])
              :: List.init weight (fun j -> ("R", [ sym "a" i; sym "c" j ])))
            [ 6; 2; 2; 2 ]))
  in
  let plan = Repair.Decompose.plan d ics in
  Alcotest.(check (list string))
    "four disjunctive components"
    [ "disjunctive"; "disjunctive"; "disjunctive"; "disjunctive" ]
    (List.map
       (fun (v : Route.Tier.verdict) -> Budget.tier_name v.Route.Tier.tier)
       (Route.Tier.plan plan));
  Alcotest.(check int) "the heavy cluster first" 6
    (Instance.rel_cardinal
       (List.hd plan.Repair.Decompose.components).Repair.Decompose.sub "R");
  List.iter
    (fun limit ->
      let run jobs =
        let stats = Budget.new_stats () in
        let budget =
          Budget.start ~stats (Budget.make ~max_decisions:limit ())
        in
        match
          Cqa.consistent_answers ~method_:Cqa.Auto ~budget ~jobs d ics q_s
        with
        | Ok _ -> Alcotest.failf "limit %d: expected an Error" limit
        | Error _ -> Atomic.get stats.Budget.components_solved
      in
      let seq = run 1 and par = run 4 in
      Alcotest.(check int)
        (Printf.sprintf "limit %d: jobs=4 = jobs=1" limit)
        seq par;
      Alcotest.(check int) (Printf.sprintf "limit %d: nothing kept" limit) 0 seq)
    [ 20; 40 ]

let prop_no_escape_parallel =
  QCheck.Test.make
    ~name:"tiny budgets with jobs=4 yield Ok/Error, never an exception"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_bound 8))
    (fun (seed, limit) ->
      let g = Gen.random_case ~seed () in
      List.for_all
        (fun method_ ->
          let budget =
            Budget.start (Budget.make ~max_states:limit ~max_decisions:limit ())
          in
          match
            Cqa.consistent_answers ~method_ ~budget ~jobs:4 g.Gen.d g.Gen.ics
              q_s
          with
          | Ok _ | Error _ -> true
          | exception e ->
              QCheck.Test.fail_reportf "escaped: %s" (Printexc.to_string e))
        [ Cqa.ModelTheoretic; Cqa.LogicProgram; Cqa.Auto ])

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "ordered map" `Quick test_map_ordered;
          Alcotest.test_case "edge sizes" `Quick test_map_edge_sizes;
          Alcotest.test_case "lowest-index exception" `Quick
            test_map_lowest_index_exception;
          Alcotest.test_case "reusable after exception" `Quick
            test_pool_reusable_after_exception;
          Alcotest.test_case "tasks run on workers" `Quick test_tasks_run;
          Alcotest.test_case "config resolve" `Quick test_config_resolve;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "weighted clusters identical" `Quick
            test_repairs_identical_weighted;
        ] );
      ( "exhaustion",
        [
          Alcotest.test_case "shared budget matches sequential" `Quick
            test_exhaustion_matches_sequential;
          Alcotest.test_case "worker attribution" `Quick test_worker_attribution;
          Alcotest.test_case "components solved counts kept only" `Quick
            test_components_solved_kept_only;
        ] );
      ( "qcheck",
        qcheck
          [
            prop_enumerate_jobs_differential;
            prop_cqa_jobs_differential;
            prop_no_escape_parallel;
          ] );
    ]
