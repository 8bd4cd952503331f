(* The experiment suite E1-E10 (see DESIGN.md section 4 and
   EXPERIMENTS.md).  The paper is a theory paper: each table reproduces
   either a worked example exactly or the measurable shape of a formal
   claim. *)

module Instance = Relational.Instance
module Value = Relational.Value
module Constr = Ic.Constr
module Enumerate = Repair.Enumerate
module Engine = Core.Engine
module Gen = Workload.Gen
module Paperdb = Workload.Paperdb

let v = Ic.Term.var
let atom p ts = Ic.Patom.make p ts

let engine_repairs d ics =
  match Engine.run d ics with
  | Ok report -> report
  | Error msg -> failwith ("engine: " ^ msg)

(* [Rep(D, IC)] through the decomposed pipeline of Query.Cqa *)
let decomposed_repairs ?jobs method_ d ics =
  match Query.Cqa.repairs ?jobs ~method_ d ics with
  | Ok reps -> reps
  | Error msg -> failwith ("decomposed repairs: " ^ msg)

(* The states each conflict component's search explores, in plan order:
   the per-component counters behind the decomposed enumeration *)
let component_states (plan : Repair.Decompose.plan) =
  List.map
    (fun c ->
      match Enumerate.solve_component plan c with
      | Repair.Decompose.Solved (_, _, explored) -> explored
      | Repair.Decompose.Tripped e -> failwith (Budget.message e)
      | Repair.Decompose.Failed msg -> failwith msg)
    plan.Repair.Decompose.components

(* ------------------------------------------------------------------ *)
(* E1: the paper's examples — repair counts and engine agreement *)

let same_set a b =
  List.equal Instance.equal (List.sort Instance.compare a) (List.sort Instance.compare b)

let e1 () =
  let rows =
    List.map
      (fun (s : Paperdb.scenario) ->
        let enum = Enumerate.repairs s.Paperdb.d s.Paperdb.ics in
        let report = engine_repairs s.Paperdb.d s.Paperdb.ics in
        (* for conflicting NNC sets (example 20) the repair program computes
           Rep_d, as the paper notes at the end of Section 4 *)
        let reference =
          if Repair.Repd.conflicting_nncs s.Paperdb.ics = [] then enum
          else Repair.Repd.repairs_d s.Paperdb.d s.Paperdb.ics
        in
        let agree = same_set reference report.Engine.repairs in
        [
          s.Paperdb.label;
          string_of_int (Instance.cardinal s.Paperdb.d);
          string_of_int (List.length s.Paperdb.ics);
          string_of_int (List.length enum);
          string_of_int (List.length report.Engine.repairs);
          string_of_int report.Engine.stable_model_count;
          (match s.Paperdb.expected_repairs with
          | Some n -> string_of_int n
          | None -> "-");
          (if
             agree
             && match s.Paperdb.expected_repairs with
                | Some n -> n = List.length enum
                | None -> true
           then "yes"
           else "NO");
        ])
      Paperdb.all
  in
  Table.print ~title:"E1: paper examples (repair sets, Theorem 4 agreement)"
    ~header:
      [ "scenario"; "|D|"; "|IC|"; "Rep"; "program"; "models"; "paper"; "match" ]
    rows

(* ------------------------------------------------------------------ *)
(* E2: Theorem 4 on random FK workloads *)

let e2 () =
  let rows =
    List.map
      (fun (np, nc, seed) ->
        let w = Gen.fk_workload ~seed ~n_parent:np ~n_child:nc ~orphan_rate:0.4 ~null_rate:0.2 () in
        let enum, t_enum = Table.time (fun () -> Enumerate.repairs w.Gen.d w.Gen.ics) in
        let report, t_prog = Table.time (fun () -> engine_repairs w.Gen.d w.Gen.ics) in
        let agree = same_set enum report.Engine.repairs in
        [
          w.Gen.label;
          string_of_int (Instance.cardinal w.Gen.d);
          string_of_int (List.length enum);
          string_of_int (List.length report.Engine.repairs);
          Table.ms t_enum;
          Table.ms t_prog;
          (if agree then "yes" else "NO");
        ])
      [ (2, 2, 1); (3, 3, 2); (3, 4, 3); (4, 5, 4); (5, 6, 5); (6, 7, 6) ]
  in
  Table.print ~title:"E2: Theorem 4 on random key+FK+NNC workloads"
    ~header:[ "workload"; "|D|"; "Rep"; "program"; "enum ms"; "prog ms"; "agree" ]
    rows

(* ------------------------------------------------------------------ *)
(* E3: decidability contrast — null repairs vs arbitrary-constant repairs
   as the active domain grows (Theorem 2 vs the undecidability of [11]) *)

let e3 () =
  let ric = Constr.generic ~ante:[ atom "P" [ v "x" ] ] ~cons:[ atom "Q" [ v "x"; v "y" ] ] () in
  let nnc = Constr.not_null ~pred:"Q" ~arity:2 ~pos:2 () in
  let base k =
    (* P(a) dangling, plus k spectator constants enlarging adom(D) *)
    Instance.of_list
      (("P", [ Value.str "a" ])
      :: List.init k (fun i -> ("U", [ Value.str (Printf.sprintf "c%d" i) ])))
  in
  let rows =
    List.map
      (fun k ->
        let d = base k in
        let null_reps = Enumerate.repairs d [ ric ] in
        (* the conflicting NNC forbids the null filler: Example 20 dynamics,
           i.e. the classic arbitrary-constant repairs of [2] restricted to
           the finite universe of Proposition 1 *)
        let classic_reps = Enumerate.repairs d [ ric; nnc ] in
        let repd = Repair.Repd.repairs_d d [ ric; nnc ] in
        [
          string_of_int (1 + k);
          string_of_int (List.length null_reps);
          string_of_int (List.length classic_reps);
          string_of_int (List.length repd);
        ])
      [ 0; 1; 2; 4; 8; 16; 32 ]
  in
  Table.print
    ~title:
      "E3: repairs vs active-domain size — null semantics stays constant, \
       arbitrary-constant repairs grow with the domain"
    ~header:[ "|adom|"; "null repairs"; "constant repairs"; "Rep_d" ]
    rows

(* ------------------------------------------------------------------ *)
(* E4: HCF vs non-HCF solving (Theorem 5, Corollary 1) *)

let e4 () =
  let run ~shift d ics =
    match Engine.run ~shift d ics with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  (* the sweep-based reference search on the same unshifted program *)
  let reference_stats d ics =
    match Core.Proggen.repair_program d ics with
    | Error msg -> failwith msg
    | Ok pg ->
        let stats = Asp.Solver.new_stats () in
        ignore
          (Sweep.stable_models ~stats
             (Asp.Grounder.ground pg.Core.Proggen.program));
        stats
  in
  let row label d ics =
    let (shifted, t_shift) = Table.time (fun () -> run ~shift:true d ics) in
    let (disjunctive, t_disj) = Table.time (fun () -> run ~shift:false d ics) in
    let naive = reference_stats d ics in
    [
      label;
      string_of_int shifted.Engine.ground_rules;
      (if shifted.Engine.hcf then "yes" else "no");
      (if shifted.Engine.static_hcf then "yes" else "no");
      string_of_int (List.length shifted.Engine.repairs);
      string_of_int shifted.Engine.solver.Asp.Solver.decisions;
      string_of_int disjunctive.Engine.solver.Asp.Solver.decisions;
      string_of_int shifted.Engine.solver.Asp.Solver.minimality_checks;
      string_of_int disjunctive.Engine.solver.Asp.Solver.minimality_checks;
      string_of_int disjunctive.Engine.solver.Asp.Solver.rules_touched;
      string_of_int naive.Asp.Solver.rules_touched;
      Table.ms t_shift;
      Table.ms t_disj;
    ]
  in
  let rows =
    List.map
      (fun n ->
        let w = Gen.denial_workload ~seed:7 ~n ~viol_rate:0.3 () in
        row w.Gen.label w.Gen.d w.Gen.ics)
      [ 4; 8; 12; 16 ]
    @ List.map
        (fun n ->
          let w = Gen.bilateral_loop ~seed:7 ~n () in
          row w.Gen.label w.Gen.d w.Gen.ics)
        [ 2; 3; 4; 5 ]
  in
  Table.print
    ~title:
      "E4: HCF (denials, Corollary 1) vs non-HCF (bilateral loop) — shifted \
       normal solving avoids disjunctive minimality checks; \
       touched(cdcl/nv) is rule visits of the CDCL search vs the \
       sweep-based reference"
    ~header:
      [
        "workload"; "grules"; "hcf"; "thm5"; "reps"; "dec(sh)"; "dec(disj)";
        "minchk(sh)"; "minchk(disj)"; "touched(cdcl)"; "touched(nv)";
        "ms(sh)"; "ms(disj)";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* E5: the 2^n Q'/Q'' expansion of Definition 9 rule 2 *)

let e5 () =
  let rows =
    List.map
      (fun width ->
        let w = Gen.disjunctive_uic ~width in
        let (pg, t_gen) =
          Table.time (fun () ->
              match Core.Proggen.repair_program w.Gen.d w.Gen.ics with
              | Ok pg -> pg
              | Error m -> failwith m)
        in
        let facts, ic_rules, bookkeeping = Core.Proggen.rule_counts pg in
        let (ground, t_ground) =
          Table.time (fun () -> Asp.Grounder.ground pg.Core.Proggen.program)
        in
        [
          string_of_int width;
          string_of_int facts;
          string_of_int ic_rules;
          string_of_int bookkeeping;
          string_of_int (Asp.Ground.atom_count ground);
          string_of_int (Asp.Ground.rule_count ground);
          Table.ms t_gen;
          Table.ms t_ground;
        ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Table.print
    ~title:
      "E5: repair-program size vs consequent width (2^n partition rules, \
       Definition 9)"
    ~header:
      [ "width"; "facts"; "IC rules"; "bookkeeping"; "g.atoms"; "g.rules";
        "gen ms"; "ground ms" ]
    rows

(* ------------------------------------------------------------------ *)
(* E6: violation counts across the Section 3 semantics as nulls increase *)

let e6 () =
  let n_child = 20 in
  let rows =
    List.map
      (fun null_refs ->
        let w =
          Gen.fk_workload_det ~n_parent:10 ~n_child ~orphans:4 ~null_refs ()
        in
        let counts = Semantics.Report.violation_counts w.Gen.d w.Gen.ics in
        let get s = string_of_int (List.assoc s counts) in
        [
          Printf.sprintf "%d/%d" null_refs n_child;
          get Semantics.Report.ClassicFo;
          get Semantics.Report.NullAware;
          get Semantics.Report.Liberal10;
          get Semantics.Report.SqlSimple;
          get Semantics.Report.SqlPartial;
          get Semantics.Report.SqlFull;
        ])
      [ 0; 2; 4; 6; 8; 10 ]
  in
  Table.print
    ~title:
      "E6: violations per satisfaction semantics as null references increase \
       (4 orphans fixed; |=_N tracks sql-simple and ignores null refs; \
       classic/partial/full count them)"
    ~header:
      [ "null refs"; "classic"; "|=_N"; "liberal[10]"; "sql-simple";
        "sql-partial"; "sql-full" ]
    rows

(* ------------------------------------------------------------------ *)
(* E7: consistent vs standard answers as inconsistency grows (Def. 8) *)

let e7 () =
  let child_query =
    Query.Qsyntax.make ~head:[ "c" ]
      (Query.Qsyntax.Exists
         ([ "r" ], Query.Qsyntax.Atom (atom "S" [ v "c"; v "r" ])))
  in
  let n_child = 6 in
  let rows =
    List.map
      (fun orphans ->
        let w = Gen.fk_workload_det ~n_parent:4 ~n_child ~orphans ~null_refs:1 () in
        match
          Query.Cqa.consistent_answers ~method_:Query.Cqa.LogicProgram w.Gen.d
            w.Gen.ics child_query
        with
        | Error msg -> [ w.Gen.label; "error: " ^ msg ]
        | Ok o ->
            let c = Relational.Tuple.Set.cardinal o.Query.Cqa.consistent in
            let st = Relational.Tuple.Set.cardinal o.Query.Cqa.standard in
            let p = Relational.Tuple.Set.cardinal o.Query.Cqa.possible in
            [
              Printf.sprintf "%d/%d" orphans n_child;
              string_of_int o.Query.Cqa.repair_count;
              string_of_int st;
              string_of_int c;
              string_of_int p;
              (if st = 0 then "-" else Printf.sprintf "%.2f" (float_of_int c /. float_of_int st));
            ])
      [ 0; 1; 2; 3; 4; 5 ]
  in
  Table.print
    ~title:
      "E7: CQA end-to-end — consistent answers shrink as orphaned children \
       accumulate (children query over the FK workload)"
    ~header:[ "orphans"; "repairs"; "standard"; "consistent"; "possible"; "retained" ]
    rows

(* ------------------------------------------------------------------ *)
(* E8: engine crossover — model-theoretic enumeration vs repair program *)

let e8 () =
  let rows =
    List.map
      (fun (np, nc) ->
        let w = Gen.fk_workload_det ~n_parent:np ~n_child:nc ~orphans:4 ~null_refs:1 () in
        let enum, t_enum =
          Table.time (fun () ->
              try `Ok (List.length (Enumerate.repairs w.Gen.d w.Gen.ics))
              with Budget.Exhausted _ -> `Budget)
        in
        let prog, t_prog =
          Table.time (fun () -> List.length (engine_repairs w.Gen.d w.Gen.ics).Engine.repairs)
        in
        [
          string_of_int (np + nc);
          (match enum with `Ok n -> string_of_int n | `Budget -> "budget");
          string_of_int prog;
          Table.ms t_enum;
          Table.ms t_prog;
          Printf.sprintf "%.1fx"
            (if t_prog > 0.0 then t_enum /. t_prog else 0.0);
        ])
      [ (4, 6); (8, 12); (16, 24); (24, 36); (32, 48); (48, 72) ]
  in
  Table.print
    ~title:
      "E8: scaling with 4 fixed violations — conflict-driven enumeration vs \
       stable-model engine (the program pays grounding overhead that grows \
       with |D|; both repair sets stay equal)"
    ~header:[ "tuples"; "Rep(enum)"; "Rep(prog)"; "enum ms"; "prog ms"; "enum/prog" ]
    rows

(* ------------------------------------------------------------------ *)
(* E9: Rep vs Rep_d under a conflicting NNC (Example 20) *)

let e9 () =
  let s = Paperdb.example20 in
  let rows =
    List.map
      (fun extra ->
        let d =
          List.fold_left
            (fun d i ->
              Instance.add
                (Relational.Atom.make "U" [ Value.str (Printf.sprintf "u%d" i) ])
                d)
            s.Paperdb.d
            (List.init extra (fun i -> i))
        in
        let rep = Enumerate.repairs d s.Paperdb.ics in
        let repd = Repair.Repd.repairs_d d s.Paperdb.ics in
        [
          string_of_int (3 + extra);
          string_of_int (List.length rep);
          string_of_int (List.length repd);
        ])
      [ 0; 1; 2; 4; 8; 16 ]
  in
  Table.print
    ~title:
      "E9: Example 20 — |Rep| grows with the universe under a conflicting \
       NNC; Rep_d stays at the single deletion repair"
    ~header:[ "|adom|"; "|Rep|"; "|Rep_d|" ]
    rows

(* ------------------------------------------------------------------ *)
(* E10: dependency-graph analysis (Definitions 1 and 11) *)

let e10 () =
  let suites =
    [
      ("example 2/3 acyclic", Paperdb.example18.Paperdb.ics |> List.tl);
      ("example 18 cyclic", Paperdb.example18.Paperdb.ics);
      ("example 19 (key+fk+nnc)", Paperdb.example19.Paperdb.ics);
      ( "example 24",
        [
          Constr.generic ~ante:[ atom "T" [ v "x" ] ] ~cons:[ atom "R" [ v "x"; v "y" ] ] ();
          Constr.generic ~ante:[ atom "S" [ v "x"; v "y" ] ] ~cons:[ atom "T" [ v "x" ] ] ();
        ] );
      ( "symmetric (non-HCF)",
        [ Constr.generic ~ante:[ atom "P" [ v "x"; v "y" ] ] ~cons:[ atom "P" [ v "y"; v "x" ] ] () ] );
      ("denials only", (Gen.denial_workload ~n:4 ~viol_rate:0.5 ()).Gen.ics);
      ("uic chain + ric", (Gen.chain_workload ~n:3 ~broken:1 ()).Gen.ics);
    ]
  in
  let rows =
    List.map
      (fun (label, ics) ->
        let comps = Ic.Depgraph.uic_components ics in
        [
          label;
          string_of_int (List.length ics);
          string_of_int (List.length comps);
          (if Ic.Depgraph.is_ric_acyclic ics then "yes" else "no");
          string_of_int (List.length (Core.Hcfcheck.bilateral_predicates ics));
          (if Core.Hcfcheck.static_hcf ics then "yes" else "no");
        ])
      suites
  in
  Table.print
    ~title:"E10: constraint-set analysis (contracted graph, Theorem 5 condition)"
    ~header:[ "IC suite"; "|IC|"; "components"; "RIC-acyclic"; "bilateral"; "thm5 HCF" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11: ablation — repairing independent conflict components separately
   (the "local repairs" construction of the paper's future-work item (c)) *)

let e11 () =
  (* k independent copies of a tiny FK scenario, one orphan each: the
     repair set is the 2^k product either way; decomposition replaces one
     big ground program by k small ones, one per conflict component of
     Repair.Decompose *)
  let scenario k =
    let atoms =
      List.concat
        (List.init k (fun i ->
             [
               (Printf.sprintf "R%d" i, [ Value.str "p"; Value.str "d" ]);
               (Printf.sprintf "S%d" i, [ Value.str "c"; Value.str "orphan" ]);
             ]))
    in
    let ics =
      List.concat
        (List.init k (fun i ->
             [
               Ic.Builder.foreign_key
                 ~name:(Printf.sprintf "fk%d" i)
                 ~child:(Printf.sprintf "S%d" i) ~child_arity:2 ~child_cols:[ 2 ]
                 ~parent:(Printf.sprintf "R%d" i) ~parent_arity:2 ~parent_cols:[ 1 ] ();
             ]))
    in
    (Instance.of_list atoms, ics)
  in
  let rows =
    List.map
      (fun k ->
        let d, ics = scenario k in
        let mono, t_mono = Table.time (fun () -> engine_repairs d ics) in
        let reps_dec, t_dec =
          Table.time (fun () -> decomposed_repairs Query.Cqa.LogicProgram d ics)
        in
        let components = (Repair.Decompose.plan d ics).Repair.Decompose.components in
        [
          string_of_int k;
          string_of_int (List.length mono.Engine.repairs);
          string_of_int (List.length reps_dec);
          string_of_int (List.length components);
          Table.ms t_mono;
          Table.ms t_dec;
          Printf.sprintf "%.1fx" (if t_dec > 0.0 then t_mono /. t_dec else 0.0);
        ])
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  Table.print
    ~title:
      "E11: ablation — monolithic repair program vs independent-component        decomposition (k disjoint FK violations, 2^k repairs)"
    ~header:[ "k"; "Rep(mono)"; "Rep(dec)"; "components"; "mono ms"; "dec ms"; "mono/dec" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12: ablation — support propagation in the stable-model solver (the
   design choice recorded in DESIGN.md 5.1) *)

let e12 () =
  let rows =
    List.map
      (fun (np, nc) ->
        let w = Gen.fk_workload_det ~n_parent:np ~n_child:nc ~orphans:3 ~null_refs:1 () in
        match Core.Proggen.repair_program w.Gen.d w.Gen.ics with
        | Error m -> [ w.Gen.label; "error: " ^ m ]
        | Ok pg ->
            let solvable, _ =
              Asp.Shift.if_hcf (Asp.Grounder.ground pg.Core.Proggen.program)
            in
            let run support =
              let stats = Asp.Solver.new_stats () in
              let models, dt =
                Table.time (fun () ->
                    Asp.Solver.stable_models ~support_propagation:support ~stats solvable)
              in
              (List.length models, stats, dt)
            in
            let n_on, stats_on, t_on = run true in
            let n_off, stats_off, t_off = run false in
            [
              string_of_int (np + nc);
              string_of_int n_on;
              (if n_on = n_off then "yes" else "NO");
              string_of_int stats_on.Asp.Solver.candidates;
              string_of_int stats_off.Asp.Solver.candidates;
              Table.ms t_on;
              Table.ms t_off;
              Printf.sprintf "%.1fx" (if t_on > 0.0 then t_off /. t_on else 0.0);
            ])
      [ (3, 4); (4, 6); (5, 8); (6, 10) ]
  in
  Table.print
    ~title:
      "E12: ablation — stable-model solver with and without support        propagation (same models; candidate count collapses to the model        count with it)"
    ~header:
      [ "tuples"; "models"; "same"; "cand(on)"; "cand(off)"; "ms(on)"; "ms(off)"; "off/on" ]
    rows

(* ------------------------------------------------------------------ *)
(* E13: ablation — relevance pruning of the repair program ([12]-style):
   a schema-wide constraint suite where most relations are empty *)

let e13 () =
  let scenario k_live k_dead =
    (* k_live FK pairs with data, k_dead FK pairs over empty relations *)
    let atoms =
      List.concat
        (List.init k_live (fun i ->
             [
               (Printf.sprintf "R%d" i, [ Value.str "p"; Value.str "d" ]);
               (Printf.sprintf "S%d" i, [ Value.str "c"; Value.str "orphan" ]);
             ]))
    in
    let ics =
      List.init (k_live + k_dead) (fun i ->
          Ic.Builder.foreign_key
            ~name:(Printf.sprintf "fk%d" i)
            ~child:(Printf.sprintf "S%d" i) ~child_arity:2 ~child_cols:[ 2 ]
            ~parent:(Printf.sprintf "R%d" i) ~parent_arity:2 ~parent_cols:[ 1 ] ())
    in
    (Instance.of_list atoms, ics)
  in
  let rows =
    List.map
      (fun k_dead ->
        let d, ics = scenario 2 k_dead in
        let build optimize =
          match Core.Proggen.repair_program ~optimize d ics with
          | Ok pg -> pg
          | Error m -> failwith m
        in
        let plain, t_plain =
          Table.time (fun () -> Asp.Grounder.ground (build false).Core.Proggen.program)
        in
        let optimized, t_opt =
          Table.time (fun () -> Asp.Grounder.ground (build true).Core.Proggen.program)
        in
        let models g = List.length (Asp.Solver.stable_models (Asp.Shift.ground g)) in
        [
          string_of_int k_dead;
          string_of_int (List.length (build false).Core.Proggen.program);
          string_of_int (List.length (build true).Core.Proggen.program);
          string_of_int (Asp.Ground.rule_count plain);
          string_of_int (Asp.Ground.rule_count optimized);
          (if models plain = models optimized then "yes" else "NO");
          Table.ms t_plain;
          Table.ms t_opt;
        ])
      [ 0; 4; 16; 64; 256 ]
  in
  Table.print
    ~title:
      "E13: ablation — [12]-style relevance pruning of Pi(D, IC) on a        schema with mostly-empty relations (2 live FK pairs + k dead ones)"
    ~header:
      [ "dead ICs"; "rules"; "rules(opt)"; "g.rules"; "g.rules(opt)"; "same models";
        "ms"; "ms(opt)" ]
    rows

(* ------------------------------------------------------------------ *)
(* E14: |=_N satisfaction checking is polynomial (remark after Def. 4:
   "the transformed constraint is domain independent, and then its
   satisfaction can be checked by restriction to the active domain") *)

let e14 () =
  let rows =
    List.map
      (fun n ->
        let fk =
          Gen.fk_workload_det ~n_parent:(n / 3) ~n_child:(2 * n / 3) ~orphans:(n / 20)
            ~null_refs:(n / 20) ()
        in
        let chk = Gen.check_workload ~seed:13 ~n ~viol_rate:0.05 ~null_rate:0.1 () in
        let vs_fk, t_fk =
          Table.time (fun () -> Semantics.Nullsat.check fk.Gen.d fk.Gen.ics)
        in
        let vs_chk, t_chk =
          Table.time (fun () -> Semantics.Nullsat.check chk.Gen.d chk.Gen.ics)
        in
        [
          string_of_int n;
          string_of_int (List.length vs_fk);
          Table.ms t_fk;
          string_of_int (List.length vs_chk);
          Table.ms t_chk;
        ])
      [ 500; 1000; 2000; 4000; 8000; 16000; 32000 ]
  in
  Table.print
    ~title:
      "E14: |=_N consistency checking scales polynomially (key+FK+NNC suite        and a check constraint; violations grow linearly, time stays        low-polynomial)"
    ~header:[ "tuples"; "fk viol"; "fk ms"; "check viol"; "check ms" ]
    rows

(* ------------------------------------------------------------------ *)
(* E15: tuple-level conflict-component decomposition (Repair.Decompose).
   Unlike E11's predicate-disjoint clusters, every cluster here shares the
   same predicates and constraints, so no split by shared predicate could
   separate them — only the conflict graph over ground tuples can.  The
   monolithic search explores the product of the per-cluster state spaces;
   the decomposed one their sum. *)

let e15 () =
  let rows =
    List.map
      (fun k ->
        let w = Gen.clusters_workload ~padding:2 ~k () in
        let mono_states = ref 0 in
        let mono, t_mono =
          Table.time (fun () ->
              Repair.Order.minimal_among ~d:w.Gen.d
                (Enumerate.search ~explored:mono_states w.Gen.d w.Gen.ics))
        in
        let dec, t_dec =
          Table.time (fun () ->
              decomposed_repairs Query.Cqa.ModelTheoretic w.Gen.d w.Gen.ics)
        in
        let plan = Repair.Decompose.plan w.Gen.d w.Gen.ics in
        let dec_states = List.fold_left ( + ) 0 (component_states plan) in
        let count = List.length dec in
        let agree = same_set mono dec in
        [
          string_of_int k;
          string_of_int (List.length mono);
          string_of_int count;
          string_of_int (List.length plan.Repair.Decompose.components);
          string_of_int !mono_states;
          string_of_int dec_states;
          Table.ms t_mono;
          Table.ms t_dec;
          Printf.sprintf "%.1fx" (if t_dec > 0.0 then t_mono /. t_dec else 0.0);
          (if agree then "yes" else "NO");
        ])
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Table.print
    ~title:
      "E15: conflict-component decomposition over shared predicates        (k independent clusters, 2^k repairs; states explored collapse        from product to sum)"
    ~header:
      [ "k"; "Rep(mono)"; "Rep(dec)"; "components"; "mono states";
        "dec states"; "mono ms"; "dec ms"; "mono/dec"; "agree" ]
    rows

(* ------------------------------------------------------------------ *)
(* E18: the routing layer — the repair-less direct tier vs the decomposed
   materializing engines on FD workloads (E16/E17 are the budget/parallel
   and session telemetry sections of the JSON baseline; they have no
   table).  Width is the FD cluster width: the direct tier reads the w
   minimal repairs of a w-wide cluster off the conflict graph, the
   enumerate engine explores O(2^w) subsets, the program engine grounds
   and solves O(w^2) denial rules. *)

let e18 () =
  let key_query =
    Query.Qsyntax.make ~head:[ "x" ]
      (Query.Qsyntax.Exists
         ([ "y" ], Query.Qsyntax.Atom (atom "R" [ v "x"; v "y" ])))
  in
  let rows =
    List.map
      (fun (n, width) ->
        let w = Gen.fd_workload ~n ~dup_rate:1.0 ~width () in
        let stats = Budget.new_stats () in
        let budget = Budget.start ~stats Budget.unlimited in
        let auto, t_auto =
          Table.time (fun () ->
              Query.Cqa.consistent_answers ~method_:Query.Cqa.Auto ~budget
                w.Gen.d w.Gen.ics key_query)
        in
        Budget.finish budget;
        let enum, t_enum =
          Table.time (fun () ->
              Query.Cqa.consistent_answers ~method_:Query.Cqa.ModelTheoretic
                w.Gen.d w.Gen.ics key_query)
        in
        let _, t_prog =
          Table.time (fun () ->
              Query.Cqa.consistent_answers ~method_:Query.Cqa.LogicProgram
                w.Gen.d w.Gen.ics key_query)
        in
        let agree =
          match (auto, enum) with
          | Ok a, Ok b ->
              Relational.Tuple.Set.equal a.Query.Cqa.consistent
                b.Query.Cqa.consistent
              && Relational.Tuple.Set.equal a.Query.Cqa.possible
                   b.Query.Cqa.possible
              && a.Query.Cqa.repair_count = b.Query.Cqa.repair_count
          | _ -> false
        in
        let repair_count =
          match auto with Ok o -> o.Query.Cqa.repair_count | Error _ -> 0
        in
        [
          w.Gen.label;
          string_of_int (Instance.cardinal w.Gen.d);
          Printf.sprintf "%d/%d/%d/%d"
            (Budget.routed stats Budget.Direct)
            (Budget.routed stats Budget.Shifted)
            (Budget.routed stats Budget.Disjunctive)
            (Budget.routed stats Budget.Enumerated);
          string_of_int repair_count;
          Table.ms t_auto;
          Table.ms t_enum;
          Table.ms t_prog;
          Printf.sprintf "%.1fx" (if t_auto > 0.0 then t_enum /. t_auto else 0.0);
          Printf.sprintf "%.1fx" (if t_auto > 0.0 then t_prog /. t_auto else 0.0);
          (if agree then "yes" else "NO");
        ])
      [ (4, 4); (6, 6); (6, 8); (4, 10); (4, 12) ]
  in
  Table.print
    ~title:
      "E18: per-component routing — the repair-less direct tier vs the \
       decomposed materializing engines on FD workloads (routed d/s/j/e = \
       components per tier: direct/shifted/disjunctive/enumerate)"
    ~header:
      [ "workload"; "|D|"; "routed"; "repairs"; "auto ms"; "enum ms";
        "prog ms"; "enum/auto"; "prog/auto"; "agree" ]
    rows

(* ------------------------------------------------------------------ *)
(* E21: decision counts of the learning search vs the chronological
   sweep-based reference on a hard non-HCF family.  The "combination lock"
   program interleaves an enumeration block (k free choice pairs, first
   in rule order, so the chronological search branches on them first)
   with a head-cycle pair (x v y. x :- y. y :- x. — the program fails
   Theorem 5's HCF condition outright) and a lock block: m choice pairs
   under 2^m - 1 denials that exclude every combination except one.
   Unit propagation cannot open the lock until m - 1 of its pairs are
   decided, so the chronological search re-searches the lock inside
   every one of the 2^k enumeration branches; CDCL refutes it once — its
   learned nogoods survive backtracking — and pays ~2^k + 2^m decisions
   in total.  Both searches must return the same 2^k stable models. *)

let lock_program ~k ~m =
  let g = Asp.Ground.create () in
  let gatom name = Asp.Ground.intern g { Asp.Ground.gpred = name; gargs = [] } in
  let rule h p n =
    Asp.Ground.add_rule g
      {
        Asp.Ground.ghead = Array.of_list h;
        gpos = Array.of_list p;
        gneg = Array.of_list n;
      }
  in
  let a = Array.init k (fun i -> gatom (Printf.sprintf "a%d" i)) in
  let b = Array.init k (fun i -> gatom (Printf.sprintf "b%d" i)) in
  for i = 0 to k - 1 do
    rule [ a.(i) ] [] [ b.(i) ];
    rule [ b.(i) ] [] [ a.(i) ]
  done;
  let x = gatom "x" and y = gatom "y" in
  rule [ x; y ] [] [];
  rule [ x ] [ y ] [];
  rule [ y ] [ x ] [];
  let p = Array.init m (fun i -> gatom (Printf.sprintf "p%d" i)) in
  let q = Array.init m (fun i -> gatom (Printf.sprintf "q%d" i)) in
  for i = 0 to m - 1 do
    rule [ p.(i) ] [] [ q.(i) ];
    rule [ q.(i) ] [] [ p.(i) ]
  done;
  (* the secret combination alternates, every other one is denied *)
  let secret i = i land 1 = 1 in
  for c = 0 to (1 lsl m) - 1 do
    let is_secret = ref true in
    for i = 0 to m - 1 do
      if (c lsr i) land 1 = 1 <> secret i then is_secret := false
    done;
    if not !is_secret then
      rule []
        (List.init m (fun i -> if (c lsr i) land 1 = 1 then p.(i) else q.(i)))
        []
  done;
  g

(* the sweep the cdcl telemetry records: rows with k >= 3 are the hard
   ones the check-json 0.5x decision guard engages on *)
let lock_sweep = [ (1, 2, false); (2, 3, false); (3, 4, true); (4, 4, true);
                   (6, 5, true); (8, 6, true) ]

let lock_measurements () =
  List.map
    (fun (k, m, hard) ->
      let g = lock_program ~k ~m in
      let sc = Asp.Solver.new_stats () and sd = Asp.Solver.new_stats () in
      let models_c = Asp.Solver.stable_models ~stats:sc g in
      let models_d = Sweep.stable_models ~stats:sd g in
      ( Printf.sprintf "E21.lock.k%dm%d" k m,
        k, m, Asp.Ground.atom_count g,
        List.length models_c,
        models_c = models_d,
        hard, sc, sd ))
    lock_sweep

let e21 () =
  let rows =
    List.map
      (fun (name, _k, _m, atoms, models, identical, hard,
            (sc : Asp.Solver.stats), (sd : Asp.Solver.stats)) ->
        [
          name;
          string_of_int atoms;
          string_of_int models;
          string_of_int sc.Asp.Solver.decisions;
          string_of_int sd.Asp.Solver.decisions;
          Printf.sprintf "%.3f"
            (if sd.Asp.Solver.decisions > 0 then
               float_of_int sc.Asp.Solver.decisions
               /. float_of_int sd.Asp.Solver.decisions
             else 0.0);
          string_of_int sc.Asp.Solver.conflicts;
          string_of_int sc.Asp.Solver.learned;
          string_of_int sc.Asp.Solver.restarts;
          string_of_int sc.Asp.Solver.backjump_len;
          (if hard then "yes" else "no");
          (if identical then "yes" else "NO");
        ])
      (lock_measurements ())
  in
  Table.print
    ~title:
      "E21: CDCL vs chronological DPLL (the sweep-based reference) on the \
       non-HCF combination-lock family — learned nogoods amortize the lock \
       refutation across the 2^k enumeration branches the chronological \
       search re-searches"
    ~header:
      [ "workload"; "atoms"; "models"; "dec(cdcl)"; "dec(dpll)"; "ratio";
        "conflicts"; "learned"; "restarts"; "backjump"; "hard"; "agree" ]
    rows

(* E22: the conformance corpus replayed through every applicable engine
   tier.  One row per scenario family: pinned cases, tier answers
   collected, total wall-clock across tiers, and whether every case in
   the family passed its byte-identity cross-check — the differential
   that backs `cqanull conform`. *)
let e22 () =
  let _summary, results =
    Conform.Runner.run (Conform.Suite.all @ Conform.Corpus.all)
  in
  let families =
    List.fold_left
      (fun acc r ->
        let f = r.Conform.Runner.case.Conform.Case.family in
        if List.mem f acc then acc else acc @ [ f ])
      [] results
  in
  let rows =
    List.map
      (fun family ->
        let rs =
          List.filter
            (fun r -> r.Conform.Runner.case.Conform.Case.family = family)
            results
        in
        let answers =
          List.fold_left
            (fun n r -> n + List.length r.Conform.Runner.tiers)
            0 rs
        in
        let ms =
          List.fold_left
            (fun t r ->
              List.fold_left
                (fun t (tr : Conform.Runner.tier_result) ->
                  t +. tr.Conform.Runner.ms)
                t r.Conform.Runner.tiers)
            0.0 rs
        in
        let ok = List.for_all Conform.Runner.passed rs in
        [
          family;
          string_of_int (List.length rs);
          string_of_int answers;
          Printf.sprintf "%.2f" ms;
          (if ok then "yes" else "NO");
        ])
      families
  in
  Table.print
    ~title:
      "E22: conformance corpus replay — every pinned scenario answered \
       through every applicable engine tier, outcomes cross-checked byte \
       for byte"
    ~header:[ "family"; "cases"; "tier answers"; "total ms"; "identical" ]
    rows

let all =
  [ ("E1", e1); ("E2", e2); ("E3", e3); ("E4", e4); ("E5", e5); ("E6", e6);
    ("E7", e7); ("E8", e8); ("E9", e9); ("E10", e10); ("E11", e11);
    ("E12", e12); ("E13", e13); ("E14", e14); ("E15", e15); ("E18", e18);
    ("E21", e21); ("E22", e22) ]
