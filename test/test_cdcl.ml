(* Differential suite for the CDCL search: it must enumerate exactly the
   same stable models as the sweep-based reference search, on random
   ground disjunctive programs built directly at the Ground layer
   (duplicate literals, empty heads/bodies, unused atoms all in scope) and
   on the repair programs of the conformance corpus, the fuzzer and the
   hard scenario files.  Plus pinned end-to-end regressions through the
   repair engine on the paper's Examples 19/20. *)

open Asp
module Iset = Set.Make (Int)

(* Same generator shape as test_asp's solver-vs-reference property: small
   universes keep brute-force checkable, dense rule shapes exercise the
   disjunctive/minimality paths. *)
let ground_program_gen =
  QCheck.Gen.(
    let* n_atoms = int_range 1 5 in
    let* n_rules = int_range 1 7 in
    let atom = int_range 0 (n_atoms - 1) in
    let atoms k = list_size (int_range 0 k) atom in
    let* rules =
      list_repeat n_rules
        (let* h = atoms 2 in
         let* p = atoms 2 in
         let* ng = atoms 2 in
         return (h, p, ng))
    in
    return (n_atoms, rules))

let build_ground (n_atoms, rules) =
  let g = Ground.create () in
  for i = 0 to n_atoms - 1 do
    ignore (Ground.intern g { Ground.gpred = Printf.sprintf "a%d" i; gargs = [] })
  done;
  List.iter
    (fun (h, p, ng) ->
      Ground.add_rule g
        {
          Ground.ghead = Array.of_list h;
          gpos = Array.of_list p;
          gneg = Array.of_list ng;
        })
    rules;
  g

let arb =
  QCheck.make
    ~print:(fun gp -> Fmt.str "%a" Ground.pp (build_ground gp))
    ground_program_gen

let prop_matches_reference =
  QCheck.Test.make
    ~name:"cdcl = sweep-based reference (random ground programs)"
    ~count:1000 arb
    (fun gp ->
      let g = build_ground gp in
      let s_cdcl = Solver.new_stats () in
      let m_cdcl = Solver.stable_models ~stats:s_cdcl g in
      m_cdcl = Sweep.stable_models g
      && List.for_all (Solver.is_stable_model g) m_cdcl
      (* every model reached the candidate check; every conflict except a
         final level-0 one (which ends the search unanalyzed) produced a
         nogood — model-blocking analyses add to [learned] on top *)
      && s_cdcl.Solver.candidates >= List.length m_cdcl
      && s_cdcl.Solver.learned >= s_cdcl.Solver.conflicts - 1
      && s_cdcl.Solver.conflicts >= 0
      && s_cdcl.Solver.restarts >= 0
      && s_cdcl.Solver.backjump_len >= 0)

let prop_cautious_brave_agree =
  QCheck.Test.make
    ~name:"cdcl cautious/brave = reference intersection/union" ~count:300 arb
    (fun gp ->
      let g = build_ground gp in
      (* no answer in either mode exactly when there is no stable model *)
      match List.map Iset.of_list (Sweep.stable_models g) with
      | [] -> Solver.cautious g = None && Solver.brave g = None
      | m :: rest as models ->
          Solver.cautious g
          = Some (Iset.elements (List.fold_left Iset.inter m rest))
          && Solver.brave g
             = Some (Iset.elements (List.fold_left Iset.union Iset.empty models)))

let prop_support_ablation =
  QCheck.Test.make
    ~name:"cdcl: support-clause materialization does not change models"
    ~count:300 arb
    (fun gp ->
      let g = build_ground gp in
      Solver.stable_models g
      = Solver.stable_models ~support_propagation:false g)

(* ------------------------------------------------------------------ *)
(* Real repair programs: every non-conflicting corpus case that has one,
   50 fuzz scenarios and the two hard scenario files (the second one with
   Example 20's NNC/RIC conflict), ground and shifted when
   head-cycle-free exactly as Core.Engine.run solves them. *)

let solvable (pg : Core.Proggen.t) =
  let g = Grounder.ground pg.Core.Proggen.program in
  if Hcf.is_hcf g then Shift.ground g else g

let load (file, source) =
  match Lang.Load.of_string ~file source with
  | Ok l -> (file, l)
  | Error msg -> Alcotest.failf "%s: %s" file msg

let test_repair_programs () =
  let check_all what expected loaded =
    let programs =
      List.filter_map
        (fun (file, l) ->
          match
            Core.Proggen.repair_program (Lang.Load.final_instance l)
              l.Lang.Load.ics
          with
          | Ok pg -> Some (file, solvable pg)
          | Error _ -> None)
        loaded
    in
    Alcotest.(check int) (what ^ " repair programs") expected
      (List.length programs);
    List.iter
      (fun (file, g) ->
        Alcotest.(check (list (list int)))
          (file ^ ": cdcl = reference") (Sweep.stable_models g)
          (Solver.stable_models g))
      programs
  in
  check_all "corpus" 30
    (List.filter
       (fun (_, l) -> Result.is_ok (Ic.Builder.non_conflicting l.Lang.Load.ics))
       (List.map
          (fun (c : Conform.Case.t) ->
            load (c.Conform.Case.name, c.Conform.Case.source))
          (Conform.Suite.all @ Conform.Corpus.all)));
  check_all "fuzz" 50
    (List.init 50 (fun i ->
         let seed = i + 1 in
         load
           ( Printf.sprintf "fuzz seed %d" seed,
             Conform.Fuzz.source (Conform.Fuzz.gen ~seed ()) )));
  check_all "scenario" 2
    (List.map
       (fun f ->
         let file = "../scenarios/" ^ f in
         load (file, In_channel.with_open_text file In_channel.input_all))
       [ "cyclic_ric_chain.cqa"; "nnc_ric_conflicts.cqa" ])

(* ------------------------------------------------------------------ *)
(* Enumeration mechanics under learning: limits and budgets behave like
   the reference search's. *)

let a0 name = Syntax.{ pred = name; args = [] }
let gatom name = Ground.{ gpred = name; gargs = [] }

let big_choice_program n =
  List.concat
    (List.init n (fun i ->
         let a = a0 (Printf.sprintf "a%d" i)
         and b = a0 (Printf.sprintf "b%d" i) in
         [
           Syntax.rule [ a ] ~body_neg:[ b ]; Syntax.rule [ b ] ~body_neg:[ a ];
         ]))

let test_limit () =
  let g = Grounder.ground (big_choice_program 4) in
  Alcotest.(check int) "all models" 16
    (List.length (Solver.stable_models g));
  Alcotest.(check int) "limited" 3
    (List.length (Solver.stable_models ~limit:3 g));
  (* [~limit:0] asks for no model and runs no search *)
  let stats = Solver.new_stats () in
  Alcotest.(check int) "limit 0" 0
    (List.length (Solver.stable_models ~limit:0 ~stats g));
  Alcotest.(check int) "limit 0: reference" 0
    (List.length (Sweep.stable_models ~limit:0 ~stats g));
  Alcotest.(check string) "limit 0: nothing searched"
    (Fmt.str "%a" Solver.pp_stats (Solver.new_stats ()))
    (Fmt.str "%a" Solver.pp_stats stats)

let test_budget_exceeded () =
  let g = Grounder.ground (big_choice_program 10) in
  let budget = Budget.start (Budget.make ~max_decisions:5 ()) in
  Alcotest.check_raises "decision budget trips"
    (Budget.Exhausted (Budget.Decisions 5)) (fun () ->
      ignore (Solver.stable_models ~budget g))

let test_restarts_complete () =
  (* enough conflicts to cross the Luby base: enumeration stays exact
     because blocking resolvents survive restarts *)
  let n = 6 in
  let g = Grounder.ground (big_choice_program n) in
  let stats = Solver.new_stats () in
  let ms = Solver.stable_models ~stats g in
  Alcotest.(check int) "2^n models" (1 lsl n) (List.length ms);
  Alcotest.(check bool) "no duplicates" true
    (List.sort_uniq compare ms = ms)

let test_unsupported_atom () =
  (* an atom with no rule head is fixed false at level 0 *)
  let p = [ Syntax.rule [ a0 "a" ] ~body_neg:[ a0 "z" ] ] in
  let g = Grounder.ground p in
  let id name = Option.get (Ground.find g (gatom name)) in
  Alcotest.(check (list (list int)))
    "only {a}"
    [ [ id "a" ] ]
    (Solver.stable_models g)

(* ------------------------------------------------------------------ *)
(* Pinned end-to-end regressions: the repair engine on Examples 19/20 of
   the paper, against the model-theoretic enumeration and the reference
   search. *)

let vs = Relational.Value.str
let vn = Relational.Value.null

let ex19_d =
  Relational.Instance.of_list
    [
      ("R", [ vs "a"; vs "b" ]);
      ("R", [ vs "a"; vs "c" ]);
      ("S", [ vs "e"; vs "f" ]);
      ("S", [ vn; vs "a" ]);
    ]

let ex19_ics =
  Ic.Builder.key ~pred:"R" ~arity:2 ~key:[ 1 ] ()
  @ [
      Ic.Builder.foreign_key ~child:"S" ~child_arity:2 ~child_cols:[ 2 ]
        ~parent:"R" ~parent_arity:2 ~parent_cols:[ 1 ] ();
      Ic.Constr.not_null ~pred:"R" ~arity:2 ~pos:1 ();
    ]

let test_example19_repairs () =
  let sorted reps =
    List.sort compare (List.map Relational.Instance.atoms reps)
  in
  let cdcl =
    match Core.Engine.repairs ex19_d ex19_ics with
    | Ok reps -> sorted reps
    | Error msg -> Alcotest.failf "engine error: %s" msg
  in
  Alcotest.(check int) "the four repairs of Example 19" 4 (List.length cdcl);
  Alcotest.(check bool) "identical to enumeration" true
    (cdcl = sorted (Repair.Enumerate.repairs ex19_d ex19_ics))

let test_example20_conflicting_nnc () =
  (* Example 20: the NNC on Q[2] conflicts with the RIC's existential
     attribute; the repair program over-approximates, and the search must
     still find exactly the reference's stable models of it *)
  let d =
    Relational.Instance.of_list
      [ ("P", [ vs "a" ]); ("P", [ vs "b" ]); ("Q", [ vs "b"; vs "c" ]) ]
  in
  let atom p ts = Ic.Patom.make p ts in
  let v = Ic.Term.var in
  let ics =
    [
      Ic.Constr.generic
        ~ante:[ atom "P" [ v "x" ] ]
        ~cons:[ atom "Q" [ v "x"; v "y" ] ]
        ();
      Ic.Constr.not_null ~pred:"Q" ~arity:2 ~pos:2 ();
    ]
  in
  match Core.Proggen.repair_program d ics with
  | Error msg -> Alcotest.failf "program error: %s" msg
  | Ok pg ->
      let g = solvable pg in
      Alcotest.(check (list (list int)))
        "cdcl = reference on Example 20's program"
        (Sweep.stable_models g) (Solver.stable_models g)

let () =
  Alcotest.run "cdcl"
    [
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_matches_reference; prop_cautious_brave_agree;
            prop_support_ablation;
          ]
        @ [
            Alcotest.test_case "repair programs" `Quick test_repair_programs;
          ] );
      ( "mechanics",
        [
          Alcotest.test_case "limit" `Quick test_limit;
          Alcotest.test_case "budget" `Quick test_budget_exceeded;
          Alcotest.test_case "restarts keep enumeration exact" `Quick
            test_restarts_complete;
          Alcotest.test_case "unsupported atom fixed false" `Quick
            test_unsupported_atom;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "example 19" `Quick test_example19_repairs;
          Alcotest.test_case "example 20 program" `Quick
            test_example20_conflicting_nnc;
        ] );
    ]
