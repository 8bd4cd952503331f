(* Tests for the unified budget subsystem (Budget) and the contract it
   imposes on every CQA engine: exhaustion — of a decision/state limit or
   of the wall-clock deadline — is always an [Error] or a partial outcome,
   never an exception escaping a public API. *)

module Instance = Relational.Instance
module Gen = Workload.Gen
module Qsyntax = Query.Qsyntax
module Cqa = Query.Cqa

let v = Ic.Term.var
let atom p ts = Ic.Patom.make p ts

(* ------------------------------------------------------------------ *)
(* The Budget module itself *)

let test_limits () =
  let b = Budget.start (Budget.make ~max_decisions:2 ~max_states:1 ()) in
  Budget.tick_decision b;
  Budget.tick_decision b;
  (match Budget.tick_decision b with
  | () -> Alcotest.fail "third decision should exhaust"
  | exception Budget.Exhausted (Budget.Decisions 2) -> ()
  | exception Budget.Exhausted e ->
      Alcotest.failf "wrong marker: %a" Budget.pp_exhausted e);
  Alcotest.(check int) "decisions counted" 3
    (Atomic.get (Budget.stats b).Budget.decisions);
  let b = Budget.start (Budget.make ~max_states:1 ()) in
  Budget.tick_state b;
  (match Budget.tick_state b with
  | () -> Alcotest.fail "second state should exhaust"
  | exception Budget.Exhausted (Budget.States 1) -> ());
  (* exhaustion records the elapsed wall-clock, rounded up past zero *)
  Alcotest.(check bool) "elapsed recorded" true
    (Atomic.get (Budget.stats b).Budget.elapsed_ms >= 1)

let test_deadline () =
  let b = Budget.start (Budget.make ~timeout_ms:0 ()) in
  Unix.sleepf 0.002;
  (match Budget.check_deadline b with
  | () -> Alcotest.fail "deadline should have passed"
  | exception Budget.Exhausted (Budget.Deadline 0) -> ());
  let b = Budget.start Budget.unlimited in
  Budget.check_deadline b;
  Budget.tick_decision b;
  Budget.tick_state b;
  Budget.note_component b;
  Budget.finish b;
  let s = Budget.stats b in
  Alcotest.(check (list int)) "counters"
    [ 1; 1; 1 ]
    [
      Atomic.get s.Budget.decisions;
      Atomic.get s.Budget.states;
      Atomic.get s.Budget.components_solved;
    ];
  Alcotest.(check bool) "finish stamps elapsed" true
    (Atomic.get s.Budget.elapsed_ms >= 1)

let test_messages () =
  Alcotest.(check string) "decisions"
    "solver budget (5 decisions) exceeded"
    (Budget.message (Budget.Decisions 5));
  Alcotest.(check string) "states"
    "repair search budget (3 states) exceeded"
    (Budget.message (Budget.States 3));
  Alcotest.(check string) "deadline" "deadline (10 ms) exceeded"
    (Budget.message (Budget.Deadline 10))

(* ------------------------------------------------------------------ *)
(* Engine regression: at every entry point a request reaches, 1-unit
   limits yield Ok/Error and a passed deadline an Error, never an
   exception — the historical escapes (the solver's exception out of
   Progcqa.consistent_answers, the enumerator's out of the decomposed
   paths and out of `repairs --repd`, which ran without the budget) stay
   fixed. *)

let clusters = Gen.clusters_workload ~k:2 ()
let q_s = Qsyntax.make ~head:[ "x" ] (Qsyntax.Atom (atom "S" [ v "x" ]))

let materializing =
  [ ("model-theoretic", Cqa.ModelTheoretic); ("logic-program", Cqa.LogicProgram) ]

let methods =
  materializing @ [ ("cautious", Cqa.CautiousProgram); ("auto", Cqa.Auto) ]

let observe name f =
  match f () with
  | r -> r
  | exception e ->
      Alcotest.failf "%s: exception escaped: %s" name (Printexc.to_string e)

let engines =
  [
    ("enumerate", Session.Enumerate);
    ("program", Session.Program);
    ("auto", Session.Auto);
  ]

(* The protocol starts one budget per request from its configuration,
   which carries a deadline only: under count limits its request runs
   unlimited.  A reply with an error line is an [Error]. *)
let protocol_exec budget line =
  let p =
    Serve.Protocol.create
      (Serve.Protocol.repl_config
         ?timeout_ms:(Budget.limits budget).Budget.timeout_ms ())
  in
  let schema =
    Relational.Schema.of_list
      [ ("S", [ "x" ]); ("R", [ "x"; "y" ]); ("T", [ "x" ]) ]
  in
  ignore
    (Serve.Protocol.attach p ~base:clusters.Gen.d ~ics:clusters.Gen.ics
       { Serve.Protocol.schema; queries = [ ("q1", q_s) ] });
  let reply = (Serve.Protocol.exec p line).Serve.Protocol.text in
  if
    List.exists
      (fun l -> String.starts_with ~prefix:"error:" (String.trim l))
      (String.split_on_char '\n' reply)
  then Error reply
  else Ok ()

(* The entry points, one row each: [run budget] drives it under [budget]. *)
let cases : (string * (Budget.ctl -> (unit, string) result)) list =
  let d = clusters.Gen.d and ics = clusters.Gen.ics in
  let per name rows run =
    List.map (fun (row, x) -> (Printf.sprintf "%s %s" name row, run x)) rows
  in
  let drop r = Result.map ignore r in
  List.concat
    [
      per "Cqa.consistent_answers" methods (fun method_ budget ->
          drop (Cqa.consistent_answers ~method_ ~budget d ics q_s));
      per "Cqa_oracle.monolithic" materializing (fun method_ budget ->
          drop (Cqa_oracle.monolithic ~method_ ~budget d ics q_s));
      per "Cqa.repairs" methods (fun method_ budget ->
          drop (Cqa.repairs ~budget ~method_ d ics));
      [
        ("Engine.repairs", fun budget -> drop (Core.Engine.repairs ~budget d ics));
        (* promises the full set, so it raises; the CLI guards it *)
        ( "Repd.repairs_d",
          fun budget ->
            Budget.guard (fun () ->
                Ok (ignore (Repair.Repd.repairs_d ~budget d ics))) );
      ];
      per "Session.cqa" engines (fun engine budget ->
          drop (Session.cqa ~budget (Session.create ~engine d ics) q_s));
      per "Session.repairs" engines (fun engine budget ->
          drop (Session.repairs ~budget (Session.create ~engine d ics)));
      [
        ("Protocol.exec repairs", fun budget -> protocol_exec budget "repairs");
        ("Protocol.exec cqa q1", fun budget -> protocol_exec budget "cqa q1");
      ];
    ]

let test_tiny_budgets () =
  List.iter
    (fun (name, run) ->
      ignore
        (observe (name ^ ", 1-unit shared limits") (fun () ->
             run (Budget.start (Budget.make ~max_decisions:1 ~max_states:1 ()))));
      match
        observe (name ^ ", passed deadline") (fun () ->
            let budget = Budget.start (Budget.make ~timeout_ms:0 ()) in
            Unix.sleepf 0.002;
            run budget)
      with
      | Ok () -> Alcotest.failf "%s: finished past its deadline" name
      | Error _ -> ())
    cases

let test_progcqa_budget_error () =
  (* the cautious engine converts the solver's budget exception into the
     engines' shared error message instead of letting it escape *)
  match
    Query.Progcqa.consistent_answers
      ~budget:(Budget.start (Budget.make ~max_decisions:0 ()))
      clusters.Gen.d clusters.Gen.ics q_s
  with
  | Error msg ->
      Alcotest.(check string) "message" "solver budget (0 decisions) exceeded"
        msg
  | Ok _ -> Alcotest.fail "expected a budget error"
  | exception e ->
      Alcotest.failf "exception escaped: %s" (Printexc.to_string e)

(* The pipeline solves components, which cautious reasoning does not
   materialize: its repairs are a clearly worded error, not a silent
   fallback. *)
let test_cautious_decompose_rejected () =
  match
    Cqa.repairs ~method_:Cqa.CautiousProgram clusters.Gen.d clusters.Gen.ics
  with
  | Error msg ->
      let prefix = "the cautious-program method cannot decompose" in
      Alcotest.(check string) "names the cause" prefix
        (String.sub msg 0 (String.length prefix))
  | Ok _ -> Alcotest.fail "cautious repairs must be an error"

(* ------------------------------------------------------------------ *)
(* Graceful degradation: a budget sized to finish exactly one component
   yields a partial outcome carrying the solved prefix, not an error. *)

let test_partial_outcome () =
  let full = Component_search.enumerate clusters.Gen.d clusters.Gen.ics in
  Alcotest.(check bool) "fixture has >= 2 components" true
    (List.length full.Component_search.explored >= 2);
  Alcotest.(check bool) "fixture solves without budget" true
    (full.Component_search.exhausted = None);
  let first_cost = List.hd full.Component_search.explored in
  let stats = Budget.new_stats () in
  let budget = Budget.start ~stats (Budget.make ~max_states:first_cost ()) in
  match
    Cqa.consistent_answers ~method_:Cqa.ModelTheoretic ~budget clusters.Gen.d
      clusters.Gen.ics q_s
  with
  | Ok o ->
      (match o.Cqa.exhausted with
      | Some (Budget.States n) ->
          Alcotest.(check int) "tripped at the shared limit" first_cost n
      | Some e -> Alcotest.failf "wrong marker: %a" Budget.pp_exhausted e
      | None -> Alcotest.fail "outcome should carry the exhausted marker");
      Alcotest.(check int) "one component completed" 1
        (Atomic.get stats.Budget.components_solved);
      Alcotest.(check bool) "repairs recombined" true (o.Cqa.repair_count >= 1)
  | Error msg -> Alcotest.failf "expected a partial outcome, got error: %s" msg
  | exception e ->
      Alcotest.failf "exception escaped: %s" (Printexc.to_string e)

(* The same for a routed request, cold and in a fresh session: one
   accounting serves both.  A component counts as solved, and its tier as
   routed, only when the outcome keeps it.  [Auto] solves each shape of
   component once per request, so the second cluster must differ from the
   first in shape for the limit the first one uses up to trip on it: it
   carries an R tuple whose T witness is missing.  Both stay on the
   shifted tier (an FD would make them disjunctive). *)
let unequal_clusters =
  {
    clusters with
    Gen.d =
      Instance.add
        (Relational.Atom.make "R"
           [ Relational.Value.str "a1"; Relational.Value.str "b" ])
        clusters.Gen.d;
  }

(* The decisions of the first component alone, and a request under that
   limit, cold or in a fresh session, as its rendered outcome and its
   accounting. *)
let first_cost (w : Gen.t) =
  let plan = Repair.Decompose.plan w.Gen.d w.Gen.ics in
  let first = List.hd plan.Repair.Decompose.components in
  let stats = Budget.new_stats () in
  let budget = Budget.start ~stats Budget.unlimited in
  ignore
    (Core.Engine.solve_components ~budget
       { plan with Repair.Decompose.components = [ first ] });
  (first, Atomic.get stats.Budget.decisions)

let routed_request ~limit ~check run =
  let stats = Budget.new_stats () in
  let budget = Budget.start ~stats (Budget.make ~max_decisions:limit ()) in
  let outcome =
    match run budget with
    | Ok o ->
        check o;
        Fmt.str "%a" Cqa.pp_outcome o
    | Error msg -> Alcotest.failf "expected an outcome, got: %s" msg
  in
  ( outcome,
    Fmt.str "solved=%d routed: %a%a"
      (Atomic.get stats.Budget.components_solved)
      Budget.pp_routed stats Budget.pp_degradations stats )

let cold_request (w : Gen.t) budget =
  Cqa.consistent_answers ~method_:Cqa.Auto ~budget w.Gen.d w.Gen.ics q_s

let session_request (w : Gen.t) budget =
  Session.cqa ~budget (Session.create ~engine:Session.Auto w.Gen.d w.Gen.ics) q_s

let test_partial_outcome_auto () =
  let first, first_cost = first_cost unequal_clusters in
  Alcotest.(check string) "the first component runs the program" "shifted"
    (Budget.tier_name (Route.Tier.component first).Route.Tier.tier);
  let request =
    routed_request ~limit:first_cost ~check:(fun o ->
        Alcotest.(check bool) "tripped at the shared limit" true
          (o.Cqa.exhausted = Some (Budget.Decisions first_cost)))
  in
  let cold_outcome, cold_stats = request (cold_request unequal_clusters) in
  Alcotest.(check string) "kept component and its tier only"
    "solved=1 routed: direct=0 shifted=1 disjunctive=0 enumerate=0" cold_stats;
  let session_outcome, session_stats =
    request (session_request unequal_clusters)
  in
  Alcotest.(check string) "session outcome = cold" cold_outcome session_outcome;
  Alcotest.(check string) "session accounting = cold" cold_stats session_stats

(* Isomorphic clusters under the same limit: the second is the first's
   solve carried over, which costs no decision, so the request completes,
   cold and in a fresh session alike. *)
let test_isomorphic_complete_auto () =
  let _, first_cost = first_cost clusters in
  let request =
    routed_request ~limit:first_cost ~check:(fun o ->
        Alcotest.(check bool) "completes under the limit" true
          (o.Cqa.exhausted = None);
        Alcotest.(check int) "every repair" 4 o.Cqa.repair_count)
  in
  let cold_outcome, cold_stats = request (cold_request clusters) in
  Alcotest.(check string) "both components and their tiers"
    "solved=2 routed: direct=0 shifted=2 disjunctive=0 enumerate=0" cold_stats;
  let session_outcome, session_stats = request (session_request clusters) in
  Alcotest.(check string) "session outcome = cold" cold_outcome session_outcome;
  Alcotest.(check string) "session accounting = cold" cold_stats session_stats

(* ------------------------------------------------------------------ *)
(* qcheck: over random workloads, an exhausted budget never escapes as an
   exception from any method, nor from the whole-instance searches. *)

let qcheck_no_escape =
  QCheck.Test.make
    ~name:"exhausted budgets yield Ok/Error, never an exception (150 cases)"
    ~count:150
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, tiny) ->
      let w = Gen.random_case ~seed () in
      let q =
        Qsyntax.make ~head:[ "x" ] (Qsyntax.Atom (atom "P" [ v "x" ]))
      in
      let runs =
        List.map
          (fun (name, method_) ->
            ( name,
              fun budget ->
                Result.map ignore
                  (Cqa.consistent_answers ~method_ ~budget w.Gen.d w.Gen.ics q)
            ))
          methods
        @ List.map
            (fun (name, method_) ->
              ( "whole-instance " ^ name,
                fun budget ->
                  Result.map ignore
                    (Cqa_oracle.monolithic ~method_ ~budget w.Gen.d w.Gen.ics q)
              ))
            materializing
      in
      List.for_all
        (fun (name, run) ->
          let budget =
            Budget.start (Budget.make ~max_decisions:tiny ~max_states:tiny ())
          in
          match run budget with
          | Ok () | Error _ -> true
          | exception e ->
              QCheck.Test.fail_reportf
                "%s (%s, budget=%d): exception escaped: %s" w.Gen.label name
                tiny (Printexc.to_string e))
        runs)

let () =
  Alcotest.run "budget"
    [
      ( "unit",
        [
          Alcotest.test_case "limits" `Quick test_limits;
          Alcotest.test_case "deadline and counters" `Quick test_deadline;
          Alcotest.test_case "messages" `Quick test_messages;
        ] );
      ( "engines",
        [
          Alcotest.test_case "tiny budgets" `Quick test_tiny_budgets;
          Alcotest.test_case "progcqa budget error" `Quick
            test_progcqa_budget_error;
          Alcotest.test_case "cautious decompose rejected" `Quick
            test_cautious_decompose_rejected;
          Alcotest.test_case "partial outcome" `Quick test_partial_outcome;
          Alcotest.test_case "partial routed outcome" `Quick
            test_partial_outcome_auto;
          Alcotest.test_case "isomorphic routed components complete" `Quick
            test_isomorphic_complete_auto;
        ] );
      ("qcheck", [ QCheck_alcotest.to_alcotest qcheck_no_escape ]);
    ]
