(* Tests for the ASP substrate: grounder, stable-model solver (checked
   against a brute-force implementation of the Gelfond-Lifschitz semantics),
   head-cycle-freeness and the shift transformation (Section 6), and the
   DLV/clingo printer and parser. *)

module S = Asp.Syntax
module Ground = Asp.Ground
module Grounder = Asp.Grounder
module Solver = Asp.Solver
module Hcf = Asp.Hcf
module Shift = Asp.Shift
module Printer = Asp.Printer

let a0 name = S.atom name []
let models_of p = Solver.stable_models_atoms (Grounder.ground p)

let gatom name = { Ground.gpred = name; gargs = [] }

let model_names ms =
  List.map (List.map (fun (g : Ground.gatom) -> Fmt.str "%a" Ground.pp_gatom g)) ms

let check_models name expected p =
  Alcotest.(check (list (list string)))
    name
    (List.sort compare (List.map (List.sort compare) expected))
    (List.sort compare (model_names (models_of p)))

(* ------------------------------------------------------------------ *)
(* Basic propositional programs *)

let test_facts () =
  check_models "facts only" [ [ "a"; "b" ] ] [ S.fact (a0 "a"); S.fact (a0 "b") ]

let test_even_negation () =
  (* a :- not b.  b :- not a. *)
  let p =
    [
      S.rule [ a0 "a" ] ~body_neg:[ a0 "b" ];
      S.rule [ a0 "b" ] ~body_neg:[ a0 "a" ];
    ]
  in
  check_models "two stable models" [ [ "a" ]; [ "b" ] ] p

let test_odd_negation_no_model () =
  (* a :- not a. *)
  check_models "no stable model" [] [ S.rule [ a0 "a" ] ~body_neg:[ a0 "a" ] ]

let test_disjunction_minimal () =
  (* a v b. : minimality rules out {a,b} *)
  check_models "a v b" [ [ "a" ]; [ "b" ] ] [ S.rule [ a0 "a"; a0 "b" ] ]

let test_disjunction_with_dependency () =
  (* a v b.  a :- b.  : only {a} is stable *)
  let p = [ S.rule [ a0 "a"; a0 "b" ]; S.rule [ a0 "a" ] ~body_pos:[ a0 "b" ] ] in
  check_models "only {a}" [ [ "a" ] ] p

let test_constraint () =
  (* a v b. :- a. *)
  let p = [ S.rule [ a0 "a"; a0 "b" ]; S.constraint_ ~body_pos:[ a0 "a" ] () ] in
  check_models "constraint prunes" [ [ "b" ] ] p

let test_constraint_via_negation () =
  (* a :- not b. b :- not a. :- b. *)
  let p =
    [
      S.rule [ a0 "a" ] ~body_neg:[ a0 "b" ];
      S.rule [ a0 "b" ] ~body_neg:[ a0 "a" ];
      S.constraint_ ~body_pos:[ a0 "b" ] ();
    ]
  in
  check_models "kills b-model" [ [ "a" ] ] p

let test_non_hcf_loop () =
  (* a v b. a :- b. b :- a. : non-HCF; the single stable model is {a,b} *)
  let p =
    [
      S.rule [ a0 "a"; a0 "b" ];
      S.rule [ a0 "a" ] ~body_pos:[ a0 "b" ];
      S.rule [ a0 "b" ] ~body_pos:[ a0 "a" ];
    ]
  in
  check_models "non-HCF {a,b}" [ [ "a"; "b" ] ] p;
  let g = Grounder.ground p in
  Alcotest.(check bool) "detected non-HCF" false (Hcf.is_hcf g);
  (* shifting a non-HCF program is unsound: it loses the stable model *)
  let shifted = Shift.ground g in
  Alcotest.(check int) "shift loses the model" 0
    (List.length (Solver.stable_models shifted))

let test_shift_syntactic () =
  (* the non-ground shift of Section 6: p(X) v q(X) :- r(X). becomes two
     rules with the other disjunct negated *)
  let r =
    S.rule
      [ S.atom "p" [ S.var "X" ]; S.atom "q" [ S.var "X" ] ]
      ~body_pos:[ S.atom "r" [ S.var "X" ] ]
  in
  let shifted = Shift.program [ r ] in
  Alcotest.(check int) "two rules" 2 (List.length shifted);
  List.iter
    (fun (r' : S.rule) ->
      Alcotest.(check int) "single head" 1 (List.length r'.S.head);
      Alcotest.(check int) "one extra negation" 1 (List.length r'.S.body_neg))
    shifted;
  (* facts and constraints pass through unchanged *)
  let fact = S.fact (a0 "a") and constr = S.constraint_ ~body_pos:[ a0 "a" ] () in
  Alcotest.(check int) "non-disjunctive untouched" 2
    (List.length (Shift.program [ fact; constr ]));
  (* semantic agreement with the ground shift on an HCF program *)
  let p = [ S.fact (S.atom "r" [ S.cnum 1 ]); r ] in
  let direct = model_names (models_of p) in
  let via_syntactic = model_names (models_of (Shift.program p)) in
  Alcotest.(check (list (list string))) "same models"
    (List.sort compare direct)
    (List.sort compare via_syntactic)

let test_hcf_shift_equivalence () =
  (* a v b. :- a, b.  plus c :- a. : HCF, shift preserves the models *)
  let p =
    [
      S.rule [ a0 "a"; a0 "b" ];
      S.constraint_ ~body_pos:[ a0 "a"; a0 "b" ] ();
      S.rule [ a0 "c" ] ~body_pos:[ a0 "a" ];
    ]
  in
  let g = Grounder.ground p in
  Alcotest.(check bool) "HCF" true (Hcf.is_hcf g);
  let direct = Solver.stable_models_atoms g in
  let shifted = Solver.stable_models_atoms (Shift.ground g) in
  Alcotest.(check (list (list string))) "same models"
    (List.sort compare (model_names direct))
    (List.sort compare (model_names shifted))

(* ------------------------------------------------------------------ *)
(* Grounding with variables and built-ins *)

let test_grounding_join () =
  (* p(1). p(2). q(X,Y) :- p(X), p(Y), X != Y. *)
  let p =
    [
      S.fact (S.atom "p" [ S.cnum 1 ]);
      S.fact (S.atom "p" [ S.cnum 2 ]);
      S.rule
        [ S.atom "q" [ S.var "X"; S.var "Y" ] ]
        ~body_pos:[ S.atom "p" [ S.var "X" ]; S.atom "p" [ S.var "Y" ] ]
        ~body_builtin:[ S.builtin S.Neq (S.var "X") (S.var "Y") ];
    ]
  in
  check_models "join with disequality"
    [ [ "p(1)"; "p(2)"; "q(1,2)"; "q(2,1)" ] ]
    p

let test_grounding_negation_never_derivable () =
  (* r(X) :- p(X), not q(X). with q never derivable: the literal is dropped *)
  let p =
    [
      S.fact (S.atom "p" [ S.cnum 1 ]);
      S.rule
        [ S.atom "r" [ S.var "X" ] ]
        ~body_pos:[ S.atom "p" [ S.var "X" ] ]
        ~body_neg:[ S.atom "q" [ S.var "X" ] ];
    ]
  in
  check_models "not-q trivially true" [ [ "p(1)"; "r(1)" ] ] p

let test_grounding_stratified () =
  (* reach via edges; classic transitive closure *)
  let edge a b = S.fact (S.atom "edge" [ S.cnum a; S.cnum b ]) in
  let p =
    [
      edge 1 2;
      edge 2 3;
      S.rule
        [ S.atom "reach" [ S.var "X"; S.var "Y" ] ]
        ~body_pos:[ S.atom "edge" [ S.var "X"; S.var "Y" ] ];
      S.rule
        [ S.atom "reach" [ S.var "X"; S.var "Z" ] ]
        ~body_pos:
          [ S.atom "reach" [ S.var "X"; S.var "Y" ]; S.atom "edge" [ S.var "Y"; S.var "Z" ] ];
    ]
  in
  check_models "transitive closure"
    [ [ "edge(1,2)"; "edge(2,3)"; "reach(1,2)"; "reach(1,3)"; "reach(2,3)" ] ]
    p

let test_safety_rejected () =
  let p = [ S.rule [ S.atom "p" [ S.var "X" ] ] ] in
  Alcotest.(check bool) "unsafe rule raises" true
    (try
       ignore (Grounder.ground p);
       false
     with Grounder.Unsafe _ -> true)

let test_grounding_stats () =
  let g = Grounder.ground [ S.fact (a0 "a") ] in
  Alcotest.(check int) "one atom" 1 (Ground.atom_count g);
  Alcotest.(check int) "one rule" 1 (Ground.rule_count g)

(* ------------------------------------------------------------------ *)
(* Brute-force reference for the Gelfond-Lifschitz semantics *)

let subsets l =
  List.fold_left
    (fun acc x -> acc @ List.map (fun s -> x :: s) acc)
    [ [] ] l

let atom_mem a m = List.exists (S.equal_atom a) m

(* classical satisfaction of a propositional rule *)
let rule_satisfied m (r : S.rule) =
  List.exists (fun h -> atom_mem h m) r.S.head
  || List.exists (fun p -> not (atom_mem p m)) r.S.body_pos
  || List.exists (fun x -> atom_mem x m) r.S.body_neg

let brute_stable (p : S.program) =
  let atoms =
    List.concat_map (fun (r : S.rule) -> r.S.head @ r.S.body_pos @ r.S.body_neg) p
    |> List.sort_uniq S.compare_atom
  in
  let is_model rules m = List.for_all (rule_satisfied m) rules in
  let gl_reduct m =
    List.filter_map
      (fun (r : S.rule) ->
        if List.exists (fun x -> atom_mem x m) r.S.body_neg then None
        else Some { r with S.body_neg = [] })
      p
  in
  let stable m =
    is_model p m
    &&
    let red = gl_reduct m in
    not
      (List.exists
         (fun m' ->
           List.length m' < List.length m
           && List.for_all (fun a -> atom_mem a m) m'
           && is_model red m')
         (subsets m))
  in
  subsets atoms |> List.filter stable
  |> List.map (fun m ->
         List.sort compare (List.map (fun a -> Fmt.str "%a" S.pp_atom a) m))
  |> List.sort compare

let rule_gen =
  QCheck.Gen.(
    let atom_gen = map a0 (oneofl [ "a"; "b"; "c"; "d"; "e" ]) in
    let atoms n = list_size (int_range 0 n) atom_gen in
    let* head = atoms 2 in
    let* pos = atoms 2 in
    let* neg = atoms 2 in
    return (S.rule head ~body_pos:pos ~body_neg:neg))

let program_gen = QCheck.Gen.(list_size (int_range 1 6) rule_gen)

let prop_solver_matches_bruteforce =
  QCheck.Test.make ~name:"solver = brute-force Gelfond-Lifschitz" ~count:300
    (QCheck.make
       ~print:(fun p -> Fmt.str "%a" S.pp_program p)
       program_gen)
    (fun p ->
      let brute = brute_stable p in
      let solver =
        List.sort compare (List.map (List.sort compare) (model_names (models_of p)))
      in
      brute = solver)

let prop_shift_preserves_hcf_models =
  QCheck.Test.make ~name:"shift preserves stable models of HCF programs" ~count:300
    (QCheck.make
       ~print:(fun p -> Fmt.str "%a" S.pp_program p)
       program_gen)
    (fun p ->
      let g = Grounder.ground p in
      QCheck.assume (Hcf.is_hcf g);
      let direct = List.sort compare (model_names (Solver.stable_models_atoms g)) in
      let shifted =
        List.sort compare (model_names (Solver.stable_models_atoms (Shift.ground g)))
      in
      direct = shifted)

let prop_stable_models_are_models =
  QCheck.Test.make ~name:"stable models satisfy the program" ~count:300
    (QCheck.make
       ~print:(fun p -> Fmt.str "%a" S.pp_program p)
       program_gen)
    (fun p ->
      models_of p
      |> List.for_all (fun m ->
             let m = List.map (fun (ga : Ground.gatom) -> a0 ga.Ground.gpred) m in
             List.for_all (rule_satisfied m) p))

let prop_minimality =
  QCheck.Test.make ~name:"no stable model strictly contains another" ~count:300
    (QCheck.make
       ~print:(fun p -> Fmt.str "%a" S.pp_program p)
       program_gen)
    (fun p ->
      (* stable models form an antichain under set inclusion *)
      let ms = List.map (List.map (fun (g : Ground.gatom) -> g.Ground.gpred)) (models_of p) in
      List.for_all
        (fun m1 ->
          List.for_all
            (fun m2 ->
              m1 = m2
              || not (List.for_all (fun x -> List.mem x m2) m1)
              || not (List.length m1 < List.length m2))
            ms)
        ms)

(* ------------------------------------------------------------------ *)
(* The solver's counters vs the sweep-based reference search, on random
   ground disjunctive programs built directly at the Ground layer (so
   duplicate literals, empty heads/bodies, and unused atoms are all in
   scope — shapes the syntax-level generator cannot produce). *)

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

let prop_solver_counters =
  QCheck.Test.make
    ~name:"cdcl solver vs sweep-based reference: counters (random ground programs)"
    ~count:1000
    (QCheck.make
       ~print:(fun gp -> Fmt.str "%a" Ground.pp (build_ground gp))
       ground_program_gen)
    (fun gp ->
      let g = build_ground gp in
      let s_cdcl = Solver.new_stats () in
      let s_naive = Solver.new_stats () in
      let m_cdcl = Solver.stable_models ~stats:s_cdcl g in
      let m_naive = Sweep.stable_models ~stats:s_naive g in
      let nonneg (s : Solver.stats) =
        s.Solver.decisions >= 0 && s.Solver.propagations >= 0
        && s.Solver.candidates >= 0 && s.Solver.minimality_checks >= 0
        && s.Solver.queue_pushes >= 0 && s.Solver.rules_touched >= 0
      in
      (* a second run accumulating into the same record only grows it *)
      let d0 = s_cdcl.Solver.decisions
      and p0 = s_cdcl.Solver.propagations
      and q0 = s_cdcl.Solver.queue_pushes
      and r0 = s_cdcl.Solver.rules_touched in
      ignore (Solver.stable_models ~stats:s_cdcl g);
      m_cdcl = m_naive
      && List.for_all (Solver.is_stable_model g) m_cdcl
      && nonneg s_cdcl && nonneg s_naive
      && s_naive.Solver.queue_pushes = 0
      && s_cdcl.Solver.candidates >= 2 * List.length m_cdcl
      && s_cdcl.Solver.decisions >= d0
      && s_cdcl.Solver.propagations >= p0
      && s_cdcl.Solver.queue_pushes >= q0
      && s_cdcl.Solver.rules_touched >= r0)

(* ------------------------------------------------------------------ *)
(* is_stable_model *)

let test_is_stable_model () =
  let p = [ S.rule [ a0 "a"; a0 "b" ] ] in
  let g = Grounder.ground p in
  let id name = Option.get (Ground.find g (gatom name)) in
  Alcotest.(check bool) "{a} stable" true (Solver.is_stable_model g [ id "a" ]);
  Alcotest.(check bool) "{a,b} not stable" false
    (Solver.is_stable_model g (List.sort compare [ id "a"; id "b" ]));
  Alcotest.(check bool) "{} not a model" false (Solver.is_stable_model g [])

(* ------------------------------------------------------------------ *)
(* Budgets and limits *)

let big_choice_program n =
  (* n independent binary choices: 2^n stable models *)
  List.concat
    (List.init n (fun i ->
         let a = a0 (Printf.sprintf "a%d" i) and b = a0 (Printf.sprintf "b%d" i) in
         [ S.rule [ a ] ~body_neg:[ b ]; S.rule [ b ] ~body_neg:[ a ] ]))

let test_limit () =
  let g = Grounder.ground (big_choice_program 4) in
  Alcotest.(check int) "all models" 16 (List.length (Solver.stable_models g));
  Alcotest.(check int) "limited to 3" 3 (List.length (Solver.stable_models ~limit:3 g))

let test_budget_exceeded () =
  let g = Grounder.ground (big_choice_program 10) in
  let budget = Budget.start (Budget.make ~max_decisions:5 ()) in
  Alcotest.(check bool) "budget raises" true
    (try
       ignore (Solver.stable_models ~budget g);
       false
     with Budget.Exhausted (Budget.Decisions 5) -> true)

let test_constants_in_rules () =
  (* heads may carry constants; builtins may compare against constants *)
  let p =
    [
      S.fact (S.atom "p" [ S.cnum 1 ]);
      S.fact (S.atom "p" [ S.cnum 5 ]);
      S.rule
        [ S.atom "big" [ S.var "X" ] ]
        ~body_pos:[ S.atom "p" [ S.var "X" ] ]
        ~body_builtin:[ S.builtin S.Gt (S.var "X") (S.cnum 3) ];
      S.rule [ S.atom "marker" [ S.csym "hit" ] ] ~body_pos:[ S.atom "big" [ S.cnum 5 ] ];
    ]
  in
  check_models "constants flow" [ [ "big(5)"; "marker(hit)"; "p(1)"; "p(5)" ] ] p

let test_num_sym_ordering () =
  (* DLV-style total order: numbers before symbols *)
  Alcotest.(check bool) "1 < a" true (S.eval_builtin S.Lt (S.Num 1) (S.Sym "a"));
  Alcotest.(check bool) "a >= 1" true (S.eval_builtin S.Geq (S.Sym "a") (S.Num 1));
  Alcotest.(check bool) "sym order" true (S.eval_builtin S.Lt (S.Sym "a") (S.Sym "b"))

(* ------------------------------------------------------------------ *)
(* Printer and parser *)

let test_printer () =
  let r =
    S.rule
      [ S.atom "p" [ S.var "x" ]; S.atom "q" [ S.var "x" ] ]
      ~body_pos:[ S.atom "r" [ S.var "x"; S.csym "Ann" ] ]
      ~body_neg:[ S.atom "s" [ S.var "x" ] ]
      ~body_builtin:[ S.builtin S.Neq (S.var "x") (S.cnum 3) ]
  in
  Alcotest.(check string) "dlv dialect"
    "p(X) v q(X) :- r(X,\"Ann\"), not s(X), X != 3." (Printer.rule_to_string Printer.Dlv r);
  Alcotest.(check string) "clingo dialect"
    "p(X) | q(X) :- r(X,\"Ann\"), not s(X), X != 3."
    (Printer.rule_to_string Printer.Clingo r);
  Alcotest.(check string) "fact" "a." (Printer.rule_to_string Printer.Dlv (S.fact (a0 "a")));
  Alcotest.(check string) "constraint" ":- a."
    (Printer.rule_to_string Printer.Dlv (S.constraint_ ~body_pos:[ a0 "a" ] ()))

let test_aspparse_basic () =
  let p = Asp.Aspparse.parse
    {|
    % a comment
    p(1). q(a, "B c").
    r(X) :- p(X), not q(X, X), X != 2.
    a v b :- r(1).
    :- a, b.
    |}
  in
  Alcotest.(check int) "five rules" 5 (List.length p);
  Alcotest.(check bool) "fact parsed" true (S.is_fact (List.hd p));
  Alcotest.(check bool) "constraint parsed" true (S.is_constraint (List.nth p 4));
  Alcotest.(check bool) "disjunctive head" true (S.is_disjunctive (List.nth p 3))

let test_aspparse_dialects () =
  (* clingo-style '|' and ';' disjunction and '<>' disequality *)
  let p = Asp.Aspparse.parse "a | b ; c.
d :- e, X <> Y.
" in
  Alcotest.(check int) "head width" 3 (List.length (List.hd p).S.head);
  match (List.nth p 1).S.body_builtin with
  | [ b ] -> Alcotest.(check bool) "neq" true (b.S.op = S.Neq)
  | _ -> Alcotest.fail "expected one builtin"

let test_aspparse_errors () =
  let bad s =
    match Asp.Aspparse.parse s with
    | _ -> false
    | exception Asp.Aspparse.Parse_error _ -> true
  in
  Alcotest.(check bool) "missing dot" true (bad "a :- b");
  Alcotest.(check bool) "dangling operator" true (bad "a :- X !.");
  Alcotest.(check bool) "unterminated string" true (bad {|p("x).|})

let models_set p =
  List.sort compare (List.map (List.sort compare) (model_names (models_of p)))

let prop_print_parse_roundtrip_dlv =
  QCheck.Test.make ~name:"print/parse round-trip preserves stable models (dlv)"
    ~count:200
    (QCheck.make ~print:(fun p -> Fmt.str "%a" S.pp_program p) program_gen)
    (fun p ->
      let p' = Asp.Aspparse.roundtrip Printer.Dlv p in
      models_set p = models_set p')

let prop_print_parse_roundtrip_clingo =
  QCheck.Test.make ~name:"print/parse round-trip preserves stable models (clingo)"
    ~count:200
    (QCheck.make ~print:(fun p -> Fmt.str "%a" S.pp_program p) program_gen)
    (fun p ->
      let p' = Asp.Aspparse.roundtrip Printer.Clingo p in
      models_set p = models_set p')

let test_cautious_brave () =
  (* a v b. c :- a. c :- b. : cautious = {c}, brave = {a, b, c} *)
  let p =
    [
      S.rule [ a0 "a"; a0 "b" ];
      S.rule [ a0 "c" ] ~body_pos:[ a0 "a" ];
      S.rule [ a0 "c" ] ~body_pos:[ a0 "b" ];
    ]
  in
  let g = Grounder.ground p in
  let name i = Fmt.str "%a" Ground.pp_gatom (Ground.atom_of g i) in
  let names = Option.map (fun ids -> List.sort compare (List.map name ids)) in
  Alcotest.(check (option (list string))) "cautious" (Some [ "c" ])
    (names (Solver.cautious g));
  Alcotest.(check (option (list string))) "brave" (Some [ "a"; "b"; "c" ])
    (names (Solver.brave g));
  (* a :- not a. has no stable model: neither mode answers *)
  let none = Grounder.ground [ S.rule [ a0 "a" ] ~body_neg:[ a0 "a" ] ] in
  Alcotest.(check bool) "no model: cautious" true (Solver.cautious none = None);
  Alcotest.(check bool) "no model: brave" true (Solver.brave none = None)

(* ------------------------------------------------------------------ *)

let test_var_dedup_order () =
  (* atom/rule variable lists deduplicate but keep first-occurrence order
     (the grounder's substitution ordering depends on it) *)
  let a =
    S.atom "P" [ S.Var "y"; S.Var "x"; S.Var "y"; S.Const (S.Sym "c"); S.Var "x" ]
  in
  Alcotest.(check (list string)) "atom vars" [ "y"; "x" ] (S.atom_vars a);
  let r = S.rule ~body_pos:[ S.atom "Q" [ S.Var "z"; S.Var "x" ] ] [ a ] in
  Alcotest.(check (list string)) "rule vars" [ "y"; "x"; "z" ] (S.rule_vars r);
  (* a wide duplicate-heavy list: the Hashtbl-backed dedup must agree with
     the specification (first occurrence kept, order preserved) *)
  let vars = List.init 200 (fun i -> S.Var (Printf.sprintf "v%d" (i mod 7))) in
  Alcotest.(check (list string))
    "wide dedup"
    [ "v0"; "v1"; "v2"; "v3"; "v4"; "v5"; "v6" ]
    (S.atom_vars (S.atom "W" vars))

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "asp"
    [
      ( "solver",
        [
          Alcotest.test_case "facts" `Quick test_facts;
          Alcotest.test_case "even negation" `Quick test_even_negation;
          Alcotest.test_case "odd negation" `Quick test_odd_negation_no_model;
          Alcotest.test_case "disjunction minimal" `Quick test_disjunction_minimal;
          Alcotest.test_case "disjunction dependency" `Quick
            test_disjunction_with_dependency;
          Alcotest.test_case "constraint" `Quick test_constraint;
          Alcotest.test_case "constraint via negation" `Quick
            test_constraint_via_negation;
          Alcotest.test_case "is_stable_model" `Quick test_is_stable_model;
          Alcotest.test_case "limit" `Quick test_limit;
          Alcotest.test_case "budget" `Quick test_budget_exceeded;
          Alcotest.test_case "constants in rules" `Quick test_constants_in_rules;
          Alcotest.test_case "num/sym order" `Quick test_num_sym_ordering;
        ] );
      ( "hcf-shift",
        [
          Alcotest.test_case "non-HCF loop" `Quick test_non_hcf_loop;
          Alcotest.test_case "HCF shift equivalence" `Quick test_hcf_shift_equivalence;
          Alcotest.test_case "syntactic shift" `Quick test_shift_syntactic;
        ] );
      ( "grounder",
        [
          Alcotest.test_case "join" `Quick test_grounding_join;
          Alcotest.test_case "never-derivable negation" `Quick
            test_grounding_negation_never_derivable;
          Alcotest.test_case "transitive closure" `Quick test_grounding_stratified;
          Alcotest.test_case "safety" `Quick test_safety_rejected;
          Alcotest.test_case "stats" `Quick test_grounding_stats;
        ] );
      ( "printer-external",
        [
          Alcotest.test_case "printer" `Quick test_printer;
          Alcotest.test_case "aspparse basic" `Quick test_aspparse_basic;
          Alcotest.test_case "aspparse dialects" `Quick test_aspparse_dialects;
          Alcotest.test_case "var dedup order" `Quick test_var_dedup_order;
          Alcotest.test_case "aspparse errors" `Quick test_aspparse_errors;
          Alcotest.test_case "cautious/brave" `Quick test_cautious_brave;
        ] );
      ( "properties",
        qcheck
          [
            prop_solver_matches_bruteforce;
            prop_print_parse_roundtrip_dlv;
            prop_print_parse_roundtrip_clingo;
            prop_shift_preserves_hcf_models;
            prop_stable_models_are_models;
            prop_minimality;
            prop_solver_counters;
          ] );
    ]
