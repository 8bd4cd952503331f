(* Tests for the conformance subsystem: the pinned suite and generated
   corpus must pass the cross-tier runner, the fuzzer must be
   deterministic with always-loadable sources, and the delta-debugging
   shrinker must be sound (every accepted step parses, still fails the
   oracle, and is strictly smaller) and 1-minimal. *)

module Case = Conform.Case
module Runner = Conform.Runner
module Suite = Conform.Suite
module Corpus = Conform.Corpus
module Fuzz = Conform.Fuzz

let pp_failures (r : Runner.result_) =
  Printf.sprintf "%s: %s" r.Runner.case.Case.name
    (String.concat "; " r.Runner.failures)

let check_all_pass label cases =
  let summary, _ = Runner.run cases in
  let msgs = List.map pp_failures summary.Runner.failed in
  Alcotest.(check (list string)) (label ^ " failures") [] msgs;
  Alcotest.(check int) (label ^ " ok") summary.Runner.total summary.Runner.ok

let test_suite_passes () = check_all_pass "suite" Suite.all
let test_corpus_passes () = check_all_pass "corpus" Corpus.all

let test_suite_shape () =
  (* the pinned suite covers the paper examples and the null-algebra
     equivalences at the advertised sizes *)
  Alcotest.(check bool) "paper cases >= 15" true (List.length Suite.paper >= 15);
  Alcotest.(check bool) "ft cases >= 6" true (List.length Suite.ft >= 6);
  List.iter
    (fun (c : Case.t) ->
      Alcotest.(check bool)
        (c.Case.name ^ " pins an equivalence")
        true
        (c.Case.equiv <> None))
    Suite.ft

let test_corpus_families () =
  Alcotest.(check int) "five families" 5 (List.length Corpus.families);
  List.iter
    (fun (family, cases) ->
      Alcotest.(check bool) (family ^ " has cases") true (cases <> []))
    Corpus.families

(* Every case's [Auto] outcome, rendered, against the searches over the
   whole instance ({!Cqa_oracle.monolithic}): the model-theoretic one on
   every case, the repair program's where the runner keeps its tier and
   the program applies (no built-in offsets, existentials of form (3)). *)
let test_whole_instance_oracle () =
  let programs = ref 0 in
  List.iter
    (fun (c : Case.t) ->
      match Lang.Load.of_string ~file:(c.Case.name ^ ".cqa") c.Case.source with
      | Error msg -> Alcotest.failf "%s: load: %s" c.Case.name msg
      | Ok l ->
          let q = List.assoc c.Case.query l.Lang.Load.queries in
          let d = Lang.Load.final_instance l and ics = l.Lang.Load.ics in
          let semantics = c.Case.semantics in
          let pipeline method_ =
            Result.map Case.render_outcome
              (Query.Cqa.consistent_answers ~method_ ~semantics d ics q)
          in
          let oracle method_ =
            Result.map Case.render_outcome
              (Cqa_oracle.monolithic ~method_ ~semantics d ics q)
          in
          let auto = pipeline Query.Cqa.Auto in
          let check label expected =
            Alcotest.(check (result string string))
              (Printf.sprintf "%s: auto = %s" c.Case.name label)
              expected auto
          in
          check "whole-instance enumeration" (oracle Query.Cqa.ModelTheoretic);
          if List.mem Runner.Program (Runner.tiers_for ~ics c) then
            match oracle Query.Cqa.LogicProgram with
            | Ok _ as program ->
                incr programs;
                check "whole-instance program" program
            | Error _ -> ())
    (Suite.all @ Corpus.all);
  (* 30 of the 37 cases at the time of writing *)
  Alcotest.(check bool)
    (Printf.sprintf "%d cases held to the program, at least 30" !programs)
    true (!programs >= 30)

let test_fuzz_deterministic () =
  let s1 = Fuzz.gen ~seed:11 () and s2 = Fuzz.gen ~seed:11 () in
  Alcotest.(check bool) "same seed, same scenario" true (s1 = s2);
  Alcotest.(check string) "same source" (Fuzz.source s1) (Fuzz.source s2)

(* Every generated scenario's surface rendering loads. *)
let prop_source_loads =
  QCheck.Test.make ~name:"fuzz sources always load" ~count:100
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let sc = Fuzz.gen ~seed () in
      match Lang.Load.of_string (Fuzz.source sc) with
      | Ok _ -> true
      | Error msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

(* Shrinker soundness: along the accepted trail every step loads, still
   fails the oracle, and is strictly smaller than its predecessor; the
   fixed point is 1-minimal with respect to the edit set. *)
let prop_shrinker_sound =
  QCheck.Test.make ~name:"shrinker soundness" ~count:60
    QCheck.(make Gen.(int_bound 100_000))
    (fun seed ->
      let oracle = Fuzz.inconsistent in
      let sc = Fuzz.gen ~seed () in
      match oracle.Fuzz.fails sc with
      | None -> true (* nothing to shrink *)
      | Some _ ->
          let min_sc, trail = Fuzz.minimize_trace oracle sc in
          let ok_step prev step =
            (match Lang.Load.of_string (Fuzz.source step) with
            | Ok _ -> ()
            | Error msg ->
                QCheck.Test.fail_reportf "seed %d: step does not load: %s"
                  seed msg);
            if oracle.Fuzz.fails step = None then
              QCheck.Test.fail_reportf "seed %d: accepted step passes" seed;
            if Fuzz.size step >= Fuzz.size prev then
              QCheck.Test.fail_reportf "seed %d: step not smaller" seed;
            step
          in
          ignore (List.fold_left ok_step sc trail);
          (* the trail ends at the returned minimum *)
          (match trail with
          | [] -> ()
          | _ ->
              if List.nth trail (List.length trail - 1) <> min_sc then
                QCheck.Test.fail_reportf "seed %d: trail does not end at min"
                  seed);
          (* 1-minimality: no strictly-smaller one-edit candidate fails *)
          List.iter
            (fun c ->
              if
                Fuzz.size c < Fuzz.size min_sc
                && oracle.Fuzz.fails c <> None
              then QCheck.Test.fail_reportf "seed %d: min not 1-minimal" seed)
            (Fuzz.candidates min_sc);
          true)

let test_minimize_demo () =
  (* the pinned end-to-end demo: seed 1 fails the inconsistency oracle and
     shrinks to the 2-fact denial core *)
  let r = Fuzz.run ~oracle:Fuzz.inconsistent ~seed:1 ~cases:10 () in
  match r.Fuzz.failure with
  | None -> Alcotest.fail "seed 1 expected to fail the inconsistency oracle"
  | Some (seed, _, sc) ->
      Alcotest.(check int) "first failing seed" 1 seed;
      let min_sc, steps = Fuzz.minimize Fuzz.inconsistent sc in
      Alcotest.(check bool) "shrank" true (steps > 0);
      Alcotest.(check int) "minimal size" 4 (Fuzz.size min_sc);
      Alcotest.(check int) "two facts" 2 (List.length min_sc.Fuzz.facts);
      Alcotest.(check int) "one constraint" 1 (List.length min_sc.Fuzz.ics);
      Alcotest.(check int) "no updates" 0 (List.length min_sc.Fuzz.updates)

let test_differential_fuzz () =
  let r = Fuzz.run ~oracle:Fuzz.differential ~seed:1 ~cases:10 () in
  (match r.Fuzz.failure with
  | None -> ()
  | Some (seed, msg, _) ->
      Alcotest.failf "differential failure at seed %d: %s" seed msg);
  Alcotest.(check int) "all tested" 10 r.Fuzz.tested

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "conform"
    [
      ( "suite",
        [
          Alcotest.test_case "paper + ft cases pass all tiers" `Quick
            test_suite_passes;
          Alcotest.test_case "suite shape" `Quick test_suite_shape;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "generated families pass all tiers" `Quick
            test_corpus_passes;
          Alcotest.test_case "family shape" `Quick test_corpus_families;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "auto = whole-instance searches" `Quick
            test_whole_instance_oracle;
        ] );
      ( "fuzz",
        Alcotest.test_case "deterministic" `Quick test_fuzz_deterministic
        :: Alcotest.test_case "minimize demo" `Quick test_minimize_demo
        :: Alcotest.test_case "differential 10 seeds" `Quick
             test_differential_fuzz
        :: qcheck [ prop_source_loads; prop_shrinker_sound ] );
    ]
