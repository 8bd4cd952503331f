(* Tests for the incremental session engine: Delta, the LRU cache,
   fingerprint stability, incremental violation maintenance
   (Nullsat.check_delta), cache invalidation/reuse, and the qcheck
   differential enforcing the correctness contract — session answers after
   any delta sequence are byte-identical to a cold one-shot run on the
   final instance. *)

module Value = Relational.Value
module Atom = Relational.Atom
module Instance = Relational.Instance
module Tuple = Relational.Tuple
module Term = Ic.Term
module Patom = Ic.Patom
module Constr = Ic.Constr
module Nullsat = Semantics.Nullsat
module Decompose = Repair.Decompose
module Enumerate = Repair.Enumerate
module Gen = Workload.Gen
module Qsyntax = Query.Qsyntax
module Lru = Session.Lru

let v = Term.var
let patom p ts = Patom.make p ts
let vs = Value.str
let vn = Value.null
let instance = Alcotest.testable Instance.pp_inline Instance.equal

let ric =
  Constr.generic
    ~ante:[ patom "Course" [ v "id"; v "code" ] ]
    ~cons:[ patom "Student" [ v "id"; v "name" ] ]
    ()

let course i c = Atom.make "Course" [ Value.int i; vs c ]
let student i n = Atom.make "Student" [ Value.int i; vs n ]

let ex15 =
  Instance.of_atoms
    [ course 21 "C15"; course 34 "C18"; student 21 "Ann"; student 45 "Paul" ]

(* ------------------------------------------------------------------ *)
(* Delta *)

let test_delta_apply () =
  let d = ex15 in
  let ops = [ Delta.insert (course 50 "C99"); Delta.delete (student 45 "Paul") ] in
  let d' = Delta.apply ops d in
  Alcotest.(check bool) "inserted" true (Instance.mem (course 50 "C99") d');
  Alcotest.(check bool) "deleted" false (Instance.mem (student 45 "Paul") d');
  Alcotest.(check int) "cardinal" 4 (Instance.cardinal d')

let test_delta_effective () =
  let d = ex15 in
  (* inserting a present atom and deleting an absent one are no net ops;
     insert-then-delete of the same new atom cancels *)
  let ops =
    [
      Delta.insert (course 21 "C15");
      Delta.delete (course 99 "C0");
      Delta.insert (course 50 "C99");
      Delta.delete (course 50 "C99");
      Delta.delete (student 45 "Paul");
    ]
  in
  let inserted, deleted = Delta.effective ops d in
  Alcotest.(check (list string)) "net inserts" []
    (List.map Atom.to_string inserted);
  Alcotest.(check (list string)) "net deletes"
    [ Atom.to_string (student 45 "Paul") ]
    (List.map Atom.to_string deleted);
  Alcotest.(check instance) "apply matches effective"
    (Instance.remove (student 45 "Paul") d)
    (Delta.apply ops d)

(* ------------------------------------------------------------------ *)
(* LRU *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  ignore (Lru.find c "a");
  (* "b" is now least-recently-used: adding "c" evicts it *)
  Lru.add c "c" 3;
  Alcotest.(check bool) "a survives" true (Lru.mem c "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem c "b");
  Alcotest.(check bool) "c present" true (Lru.mem c "c");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions c);
  Alcotest.(check int) "one hit" 1 (Lru.hits c);
  Alcotest.(check int) "length" 2 (Lru.length c)

let test_lru_counters () =
  let c = Lru.create ~capacity:4 in
  Alcotest.(check (option int)) "miss" None (Lru.find c "x");
  Lru.add c "x" 7;
  Alcotest.(check (option int)) "hit" (Some 7) (Lru.find c "x");
  Lru.add c "x" 8;
  Alcotest.(check (option int)) "overwrite" (Some 8) (Lru.find c "x");
  Alcotest.(check int) "hits" 2 (Lru.hits c);
  Alcotest.(check int) "misses" 1 (Lru.misses c);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check int) "counters survive clear" 2 (Lru.hits c)

let test_lru_disabled () =
  let c = Lru.create ~capacity:0 in
  Lru.add c "a" 1;
  Alcotest.(check int) "stores nothing" 0 (Lru.length c);
  Alcotest.(check (option int)) "always misses" None (Lru.find c "a")

(* ------------------------------------------------------------------ *)
(* Fingerprint stability *)

let test_fingerprint_reorder () =
  (* the same tuples loaded in a different order produce the same
     components with the same fingerprints (instances are sets and the
     fingerprint renders them sorted) *)
  let atoms =
    [ course 21 "C15"; course 34 "C18"; student 21 "Ann"; student 45 "Paul" ]
  in
  let d1 = Instance.of_atoms atoms and d2 = Instance.of_atoms (List.rev atoms) in
  let p1 = Decompose.plan d1 [ ric ] and p2 = Decompose.plan d2 [ ric ] in
  let fps p =
    List.map
      (Decompose.fingerprint ~universe:p.Decompose.universe
         ~nnc_positions:p.Decompose.nnc_positions)
      p.Decompose.components
  in
  Alcotest.(check (list string)) "identical fingerprints" (fps p1) (fps p2)

let test_fingerprint_discriminates () =
  (* adding an unrelated violation leaves the untouched component's
     fingerprint intact (the cache-hit property) while the new component
     fingerprints apart *)
  let p = Decompose.plan ex15 [ ric ] in
  let p' = Decompose.plan (Instance.add (course 50 "C99") ex15) [ ric ] in
  let fps = List.map Decompose.fingerprint p.Decompose.components in
  let fps' = List.map Decompose.fingerprint p'.Decompose.components in
  Alcotest.(check int) "one component before" 1 (List.length fps);
  Alcotest.(check int) "two components after" 2 (List.length fps');
  Alcotest.(check bool) "untouched component keeps its fingerprint" true
    (List.for_all (fun f -> List.mem f fps') fps);
  Alcotest.(check int) "new component fingerprints apart" 2
    (List.length (List.sort_uniq String.compare fps'))

(* ------------------------------------------------------------------ *)
(* Random deltas for the differential suites *)

let random_atom rng =
  let sym i = [| vs "a"; vs "b"; vs "c"; vn |].(i) in
  let one () = sym (Random.State.int rng 4) in
  match Random.State.int rng 4 with
  | 0 -> Atom.make "P" [ one () ]
  | 1 -> Atom.make "Q" [ one () ]
  | 2 -> Atom.make "R" [ one (); one () ]
  | _ -> Atom.make "S" [ one () ]

(* a batch of 1-3 ops: inserts of random atoms and deletes of random
   present atoms (plus the occasional no-op delete of a random atom) *)
let random_batch rng d =
  List.init
    (1 + Random.State.int rng 3)
    (fun _ ->
      if Random.State.bool rng then Delta.insert (random_atom rng)
      else
        let atoms = Instance.atoms d in
        if atoms <> [] && Random.State.bool rng then
          Delta.delete (List.nth atoms (Random.State.int rng (List.length atoms)))
        else Delta.delete (random_atom rng))

(* ------------------------------------------------------------------ *)
(* check_delta differential: incremental maintenance = full recheck *)

let diff_check_delta_test =
  QCheck.Test.make ~name:"check_delta = canonical full recheck (300 cases)"
    ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let w = Gen.random_case ~seed () in
      let rng = Random.State.make [| seed; 17 |] in
      let d = ref w.Gen.d in
      let before = ref (Nullsat.canonical_violations (Nullsat.check !d w.Gen.ics)) in
      let steps = 1 + Random.State.int rng 4 in
      let ok = ref true in
      for _ = 1 to steps do
        let ops = random_batch rng !d in
        let inserted, deleted = Delta.effective ops !d in
        let d' = Delta.apply ops !d in
        let incr, _stats =
          Nullsat.check_delta ~before:!before ~inserted ~deleted d' w.Gen.ics
        in
        let full = Nullsat.canonical_violations (Nullsat.check d' w.Gen.ics) in
        if
          not
            (List.equal
               (fun a b -> Nullsat.compare_violation a b = 0)
               incr full)
        then ok := false;
        d := d';
        before := incr
      done;
      if not !ok then
        QCheck.Test.fail_reportf "incremental violations diverge on %s"
          w.Gen.label
      else true)

(* The seeded tier-3 path specifically: FD/RIC workloads whose foreign
   key's consequent relation the delta touches, so check_delta cannot
   stay on the reused/fast tiers — deleting parents orphans children
   (orphaned-witness seeds), re-inserting them silences violations
   (kept-violation re-probes), and inserting children triggers insertion
   seeds.  Compared against the full canonical recheck on the generated
   key+FK+not-null workloads, including the large-instance generator the
   E19 bench rows use (at test-sized n). *)
let diff_check_delta_seeded_test =
  QCheck.Test.make ~name:"check_delta seeded tier = full recheck (200 cases)"
    ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let w =
        match seed mod 3 with
        | 0 ->
            Gen.scale_workload ~seed ~tuples:(60 + (seed mod 120))
              ~null_rate:0.1 ()
        | 1 ->
            Gen.fk_workload ~seed ~n_parent:6 ~n_child:9 ~orphan_rate:0.3
              ~null_rate:0.2 ()
        | _ -> Gen.fd_workload ~seed ~n:6 ~dup_rate:0.5 ~width:4 ()
      in
      let rng = Random.State.make [| seed; 23 |] in
      let d = ref w.Gen.d in
      let before =
        ref (Nullsat.canonical_violations (Nullsat.check !d w.Gen.ics))
      in
      let ok = ref true in
      let rescans = ref 0 in
      for _ = 1 to 3 do
        (* bias the batch toward consequent relations: delete a present
           atom (often a parent), then re-insert a previously deleted or
           fresh one *)
        let atoms = Instance.atoms !d in
        let pick () = List.nth atoms (Random.State.int rng (List.length atoms)) in
        let ops =
          if atoms = [] then [ Delta.insert (random_atom rng) ]
          else
            [ Delta.delete (pick ()); Delta.delete (pick ());
              Delta.insert (pick ()) ]
        in
        let inserted, deleted = Delta.effective ops !d in
        let d' = Delta.apply ops !d in
        let incr, stats =
          Nullsat.check_delta ~before:!before ~inserted ~deleted d' w.Gen.ics
        in
        rescans := !rescans + stats.Nullsat.rescanned;
        let full = Nullsat.canonical_violations (Nullsat.check d' w.Gen.ics) in
        if
          not
            (List.equal
               (fun a b -> Nullsat.compare_violation a b = 0)
               incr full)
        then ok := false;
        d := d';
        before := incr
      done;
      if not !ok then
        QCheck.Test.fail_reportf "seeded incremental violations diverge on %s"
          w.Gen.label
      else true)

(* ------------------------------------------------------------------ *)
(* Session differential: byte-identity with cold runs on the final
   instance, after every batch of a random delta sequence *)

let queries =
  [
    Qsyntax.make ~head:[ "x" ] (Qsyntax.Atom (patom "P" [ v "x" ]));
    Qsyntax.make ~head:[ "x" ]
      (Qsyntax.And
         ( Qsyntax.Atom (patom "R" [ v "x"; v "y" ]),
           Qsyntax.Atom (patom "S" [ v "x" ]) ));
    Qsyntax.make ~head:[ "x" ]
      (Qsyntax.And
         ( Qsyntax.Atom (patom "P" [ v "x" ]),
           Qsyntax.Not (Qsyntax.Atom (patom "Q" [ v "x" ])) ));
  ]

let same_outcome (a : Query.Cqa.outcome) (b : Query.Cqa.outcome) =
  Tuple.Set.equal a.Query.Cqa.consistent b.Query.Cqa.consistent
  && Tuple.Set.equal a.Query.Cqa.possible b.Query.Cqa.possible
  && Tuple.Set.equal a.Query.Cqa.standard b.Query.Cqa.standard
  && a.Query.Cqa.repair_count = b.Query.Cqa.repair_count
  && a.Query.Cqa.exhausted = b.Query.Cqa.exhausted

let method_of = function
  | Session.Enumerate -> Query.Cqa.ModelTheoretic
  | Session.Program -> Query.Cqa.LogicProgram
  | Session.Auto -> Query.Cqa.Auto

(* a cold run of the decomposed pipeline, without a store: the routing
   engine's repair sets are byte-identical to the model-theoretic ones, so
   Auto shares enumeration's oracle *)
let cold_repairs engine d ics =
  let method_ =
    match engine with
    | Session.Enumerate | Session.Auto -> Query.Cqa.ModelTheoretic
    | Session.Program -> Query.Cqa.LogicProgram
  in
  Query.Cqa.repairs ~method_ d ics

(* one random case: create the session, fold in [steps] random batches,
   and after each batch compare session repairs (byte order included) and
   session CQA against the cold engines on the current instance *)
let run_differential engine ~check_cqa seed =
  let w = Gen.random_case ~seed () in
  let rng = Random.State.make [| seed; 23 |] in
  let session =
    Session.create ~engine ~capacity:64 w.Gen.d w.Gen.ics
  in
  let d = ref w.Gen.d in
  let steps = 1 + Random.State.int rng 3 in
  let failure = ref None in
  (try
     for _ = 1 to steps do
       let ops = random_batch rng !d in
       Session.apply session ops;
       d := Delta.apply ops !d;
       if not (Instance.equal (Session.instance session) !d) then (
         failure := Some "session instance diverged";
         raise Exit);
       (match (Session.repairs session, cold_repairs engine !d w.Gen.ics) with
       | Ok sr, Ok cr ->
           if
             not
               (List.length sr = List.length cr
               && List.for_all2 Instance.equal sr cr)
           then (
             failure := Some "repair lists differ";
             raise Exit)
       | Error _, Error _ -> ()
       | Ok _, Error _ | Error _, Ok _ ->
           failure := Some "one side errored";
           raise Exit);
       if check_cqa then
         List.iter
           (fun q ->
             match
               ( Session.cqa session q,
                 Query.Cqa.consistent_answers ~method_:(method_of engine) !d
                   w.Gen.ics q )
             with
             | Ok so, Ok co ->
                 if not (same_outcome so co) then (
                   failure := Some "cqa outcomes differ";
                   raise Exit)
             | Error _, Error _ -> ()
             | Ok _, Error _ | Error _, Ok _ ->
                 failure := Some "one cqa side errored";
                 raise Exit)
           queries
     done
   with Exit -> ());
  match !failure with
  | None -> true
  | Some what ->
      QCheck.Test.fail_reportf "session vs cold (%s): %s on %s"
        (match engine with
        | Session.Enumerate -> "enumerate"
        | Session.Program -> "program"
        | Session.Auto -> "auto")
        what w.Gen.label

let diff_session_enum_repairs =
  QCheck.Test.make
    ~name:"session repairs = cold decomposed, enumerate (150 cases)"
    ~count:150
    QCheck.(int_bound 1_000_000)
    (run_differential Session.Enumerate ~check_cqa:false)

let diff_session_prog_repairs =
  QCheck.Test.make
    ~name:"session repairs = cold decomposed, program (100 cases)"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (run_differential Session.Program ~check_cqa:false)

let diff_session_enum_cqa =
  QCheck.Test.make
    ~name:"session cqa = cold decomposed cqa, enumerate (100 cases)"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (run_differential Session.Enumerate ~check_cqa:true)

let diff_session_prog_cqa =
  QCheck.Test.make
    ~name:"session cqa = cold decomposed cqa, program (60 cases)"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (run_differential Session.Program ~check_cqa:true)

let diff_session_auto_repairs =
  QCheck.Test.make
    ~name:"session repairs = cold decomposed, auto (100 cases)"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (run_differential Session.Auto ~check_cqa:false)

let diff_session_auto_cqa =
  QCheck.Test.make
    ~name:"session cqa = cold decomposed cqa, auto (60 cases)"
    ~count:60
    QCheck.(int_bound 1_000_000)
    (run_differential Session.Auto ~check_cqa:true)

(* ------------------------------------------------------------------ *)
(* Session differential under a budget: a fresh session's request renders
   byte-identically to the cold decomposed run under the same limits,
   partial outcomes and Error messages included *)

let render = function
  | Ok o -> Fmt.str "%a" Query.Cqa.pp_outcome o
  | Error msg -> "error: " ^ msg

let budgeted_differential seed =
  List.for_all
    (fun (w : Gen.t) ->
      List.for_all
        (fun engine ->
          let method_ = method_of engine in
          List.for_all
            (fun limit ->
              List.for_all
                (fun q ->
                  let budget () =
                    Budget.start
                      (Budget.make ~max_states:limit ~max_decisions:limit ())
                  in
                  let cold =
                    render
                      (Query.Cqa.consistent_answers ~method_
                         ~budget:(budget ()) w.Gen.d w.Gen.ics q)
                  and session =
                    render
                      (Session.cqa ~budget:(budget ())
                         (Session.create ~engine w.Gen.d w.Gen.ics)
                         q)
                  in
                  String.equal cold session
                  || QCheck.Test.fail_reportf
                       "%s, limit %d: session@.%s@.cold@.%s" w.Gen.label limit
                       session cold)
                queries)
            [ 0; 1; 2; 3; 5; 8; 20; 100 ])
        [ Session.Enumerate; Session.Program; Session.Auto ])
    [ Gen.random_case ~seed (); Gen.route_case ~seed () ]

let diff_session_budget =
  QCheck.Test.make
    ~name:"session cqa = cold decomposed cqa under budgets (150 cases)"
    ~count:150
    QCheck.(int_bound 1_000_000)
    budgeted_differential

(* ------------------------------------------------------------------ *)
(* Cache behavior on the clusters workload *)

let test_cache_reuse () =
  let w = Gen.clusters_workload ~k:4 () in
  let s = Session.create ~engine:Session.Program w.Gen.d w.Gen.ics in
  (match Session.repairs s with
  | Ok reps -> Alcotest.(check int) "2^4 repairs" 16 (List.length reps)
  | Error msg -> Alcotest.fail msg);
  let st = Session.stats s in
  Alcotest.(check int) "first request misses all" 4 st.Session.cache_misses;
  Alcotest.(check int) "no hits yet" 0 st.Session.cache_hits;
  (match Session.repairs s with
  | Ok reps -> Alcotest.(check int) "same count" 16 (List.length reps)
  | Error msg -> Alcotest.fail msg);
  let st = Session.stats s in
  Alcotest.(check int) "second request hits all" 4 st.Session.cache_hits;
  Alcotest.(check int) "no new misses" 4 st.Session.cache_misses

let test_cache_invalidation () =
  let w = Gen.clusters_workload ~k:4 () in
  let s = Session.create ~engine:Session.Program w.Gen.d w.Gen.ics in
  (match Session.repairs s with Ok _ -> () | Error m -> Alcotest.fail m);
  (* delete cluster 0's S(a0): its component disappears, the other three
     keep their fingerprints — the next request hits 3 of 3 *)
  Session.apply s [ Delta.delete (Atom.make "S" [ vs "a0" ]) ];
  (match Session.repairs s with
  | Ok reps -> Alcotest.(check int) "2^3 repairs" 8 (List.length reps)
  | Error msg -> Alcotest.fail msg);
  let st = Session.stats s in
  Alcotest.(check int) "three hits after the delta" 3 st.Session.cache_hits;
  Alcotest.(check int) "no re-solve of untouched components" 4
    st.Session.cache_misses;
  Alcotest.(check int) "plan was rebuilt" 2 st.Session.plan_rebuilds

let test_plan_refresh () =
  let w = Gen.clusters_workload ~k:3 () in
  let s = Session.create ~engine:Session.Program w.Gen.d w.Gen.ics in
  (match Session.repairs s with Ok _ -> () | Error m -> Alcotest.fail m);
  (* an insert over a predicate no constraint mentions, carrying no new
     constant (the universe must stay fixed), cannot disturb the
     partition: the plan refreshes in place and every component hits *)
  Session.apply s [ Delta.insert (Atom.make "Note" [ vs "a0" ]) ];
  (match Session.repairs s with Ok _ -> () | Error m -> Alcotest.fail m);
  let st = Session.stats s in
  Alcotest.(check int) "plan reused" 1 st.Session.plan_reuses;
  Alcotest.(check int) "single rebuild (the first)" 1 st.Session.plan_rebuilds;
  Alcotest.(check int) "all components hit" 3 st.Session.cache_hits;
  Alcotest.(check int) "untouched constraints reused" 2 st.Session.ics_reused

let test_session_eviction () =
  let w = Gen.clusters_workload ~k:4 () in
  let s =
    Session.create ~engine:Session.Program ~capacity:2 w.Gen.d w.Gen.ics
  in
  (match Session.repairs s with Ok _ -> () | Error m -> Alcotest.fail m);
  let st = Session.stats s in
  Alcotest.(check int) "capacity bounds residency" 2 st.Session.cache_entries;
  Alcotest.(check int) "evictions happened" 2 st.Session.cache_evictions;
  (* a second request must re-solve the evicted components but still
     answers identically *)
  match (Session.repairs s, Session.repairs s) with
  | Ok a, Ok b ->
      Alcotest.(check int) "stable" (List.length a) (List.length b)
  | _ -> Alcotest.fail "eviction broke the session"

let test_session_consistent_instance () =
  let d = Instance.of_atoms [ course 21 "C15"; student 21 "Ann" ] in
  let s = Session.create d [ ric ] in
  Alcotest.(check bool) "consistent" true (Session.consistent s);
  match Session.repairs s with
  | Ok [ r ] -> Alcotest.(check instance) "sole repair is D" d r
  | Ok reps ->
      Alcotest.failf "expected 1 repair, got %d" (List.length reps)
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Solve keys: values that differ only in type, IC constants, shapes *)

let fd_f =
  Ic.Builder.functional_dependency ~name:"fd_f" ~pred:"F" ~arity:2 ~lhs:[ 1 ]
    ~rhs:2 ()

let f_atom x y = Atom.make "F" [ x; vs y ]

(* q(Y) :- F(X, Y), G(X) *)
let q_fg =
  Qsyntax.make ~head:[ "y" ]
    (Qsyntax.Exists
       ( [ "x" ],
         Qsyntax.And
           ( Qsyntax.Atom (patom "F" [ v "x"; v "y" ]),
             Qsyntax.Atom (patom "G" [ v "x" ]) ) ))

(* F(1, a), F(1, b) and F("1", a), F("1", b) once keyed alike, so after
   the swap the session answered from the cached repairs of the integer
   tuples, which join no G("1"): possible {} where a cold request answers
   {(a), (b)}. *)
let test_cache_types () =
  let one = Value.int 1 and one_s = vs "1" in
  let d =
    Instance.of_atoms [ f_atom one "a"; f_atom one "b"; Atom.make "G" [ one_s ] ]
  in
  let ops =
    [
      Delta.delete (f_atom one "a");
      Delta.delete (f_atom one "b");
      Delta.insert (f_atom one_s "a");
      Delta.insert (f_atom one_s "b");
    ]
  in
  let d' = Delta.apply ops d in
  List.iter
    (fun (name, engine) ->
      let s = Session.create ~engine d [ fd_f ] in
      ignore (Session.cqa s q_fg);
      Session.apply s ops;
      let cold =
        Query.Cqa.consistent_answers ~method_:(method_of engine) d' [ fd_f ]
          q_fg
      in
      Alcotest.(check string)
        (name ^ ": session = cold") (render cold)
        (render (Session.cqa s q_fg));
      match cold with
      | Ok o ->
          Alcotest.(check int)
            (name ^ ": possible {(a), (b)}")
            2
            (Tuple.Set.cardinal o.Query.Cqa.possible)
      | Error e -> Alcotest.fail e)
    [ ("program", Session.Program); ("auto", Session.Auto) ]

(* a store that never hits: the memo-free solve *)
let memo_free = { Query.Cqa.find = (fun _ -> None); add = (fun _ _ -> ()) }

let component_of atoms ics =
  let sub = Instance.of_atoms atoms in
  { Decompose.atoms = Instance.atom_set sub; sub; support = Instance.empty; ics }

let shapes_of components =
  let plan =
    {
      Decompose.core = Instance.empty;
      components;
      universe = [];
      nnc_positions = [];
      product_exact = true;
    }
  in
  List.map (fun c -> Option.map (fun k -> k.Decompose.id) (Decompose.shape_key plan c)) components

let test_keys_apart () =
  let no_k = Ic.Builder.denial ~name:"no_k" [ patom "F" [ v "x"; Term.str "k" ] ] in
  let apart name a b =
    Alcotest.(check bool)
      (name ^ ": content keys differ")
      true
      (Decompose.fingerprint a <> Decompose.fingerprint b);
    match shapes_of [ a; b ] with
    | [ Some ka; Some kb ] ->
        Alcotest.(check bool) (name ^ ": shape keys differ") true (ka <> kb)
    | _ -> Alcotest.failf "%s: expected shape keys" name
  in
  let one = Value.int 1 and one_s = vs "1" in
  apart "Int 1 / Str \"1\""
    (component_of [ f_atom one "a"; f_atom one "b" ] [ fd_f ])
    (component_of [ f_atom one_s "a"; f_atom one_s "b" ] [ fd_f ]);
  apart "Null / Str \"null\""
    (component_of [ Atom.make "F" [ vs "c"; vn ]; f_atom (vs "c") "b" ] [ fd_f ])
    (component_of [ f_atom (vs "c") "null"; f_atom (vs "c") "b" ] [ fd_f ]);
  apart "IC constant / other constant"
    (component_of [ f_atom one "k"; f_atom one "b" ] [ fd_f; no_k ])
    (component_of [ f_atom one "m"; f_atom one "b" ] [ fd_f; no_k ]);
  apart "constraints differing in a constant"
    (component_of [ f_atom one "a"; f_atom one "b" ] [ fd_f; no_k ])
    (component_of [ f_atom one "a"; f_atom one "b" ]
       [ fd_f; Ic.Builder.denial ~name:"no_k" [ patom "F" [ v "x"; Term.str "m" ] ] ]);
  (* and isomorphic components share one *)
  match
    shapes_of
      [
        component_of [ f_atom one "a"; f_atom one "b" ] [ fd_f ];
        component_of [ f_atom (Value.int 2) "c"; f_atom (Value.int 2) "d" ] [ fd_f ];
      ]
  with
  | [ Some ka; Some kb ] -> Alcotest.(check string) "isomorphic components" ka kb
  | _ -> Alcotest.fail "expected shape keys"

(* Two isomorphic components whose renaming reverses the order of the
   constants their repairs insert: P(b, k1), Q(a, k1) labels b before a,
   P(c, k2), Q(d, k2) labels c before d, but a < b and c < d.  The
   second component's carried repairs must be re-sorted to come out as
   its own solve's, so the session's repair list matches the memo-free
   one byte for byte. *)
let test_carried_resorted () =
  let pq =
    Constr.generic ~name:"pq_r"
      ~ante:[ patom "P" [ v "x"; v "k" ]; patom "Q" [ v "y"; v "k" ] ]
      ~cons:[ patom "R" [ v "x"; v "u" ]; patom "R" [ v "y"; v "w" ] ]
      ()
  in
  let two x y k = [ Atom.make "P" [ vs x; vs k ]; Atom.make "Q" [ vs y; vs k ] ] in
  let d = Instance.of_atoms (two "b" "a" "k1" @ two "c" "d" "k2") in
  let plan = Decompose.plan d [ pq ] in
  (match List.map (fun c -> Decompose.shape_key plan c) plan.Decompose.components with
  | [ Some k1; Some k2 ] ->
      Alcotest.(check string) "one shape" k1.Decompose.id k2.Decompose.id
  | _ -> Alcotest.fail "expected two shape-keyed components");
  let session = Session.create ~engine:Session.Auto d [ pq ] in
  match
    ( Query.Cqa.repairs_of_plan ~store:memo_free ~method_:Query.Cqa.Auto ~plan d
        [ pq ],
      Session.repairs session )
  with
  | Ok free, Ok memo ->
      Alcotest.(check int) "one hit" 1 (Session.stats session).Session.cache_hits;
      Alcotest.(check (list instance)) "repairs in the memo-free order" free memo
  | _ -> Alcotest.fail "repairs failed"

(* The shape differential: a case, next to a copy of itself under a random
   renaming that fixes [null] and the constraints' constants, so the plan
   holds isomorphic components.  Auto CQA and session repairs, memoized by
   shape, equal the memo-free run (a store that never hits) byte for byte,
   at jobs 1 and 2.  A component whose constraints compare by order, use
   an offset or carry a conflicting NNC is keyed by content; and the two
   retypings of a shape-keyed component that differ only in the type of
   their constants are keyed apart. *)

let shape_case seed =
  let of_gen (w : Gen.t) = (w.Gen.label, w.Gen.d, w.Gen.ics) in
  match seed mod 4 with
  | 0 -> of_gen (Gen.random_case ~seed ())
  | 1 -> of_gen (Gen.route_case ~seed ())
  | 2 -> (
      match Lang.Load.of_string (Conform.Fuzz.source (Conform.Fuzz.gen ~seed ())) with
      | Ok l ->
          (Printf.sprintf "fuzz seed=%d" seed, Lang.Load.final_instance l, l.Lang.Load.ics)
      | Error e -> failwith e)
  | _ ->
      let label, d, ics = of_gen (Gen.random_case ~seed ()) in
      let r = patom "R" [ v "x"; v "y" ] in
      let check =
        if seed mod 8 = 3 then
          Ic.Builder.check ~name:"r_lt" r
            [ Ic.Builtin.cmp Ic.Builtin.Lt (Ic.Builtin.evar "x") (Ic.Builtin.evar "y") ]
        else
          Ic.Builder.check ~name:"r_off" r
            [
              Ic.Builtin.cmp Ic.Builtin.Neq (Ic.Builtin.evar "x")
                (Ic.Builtin.shift (Ic.Builtin.evar "y") 1);
            ]
      in
      (label ^ " + " ^ Option.get (Constr.name check), d, ics @ [ check ])

let order_or_offset ics =
  List.exists
    (function
      | Constr.NotNull _ -> false
      | Constr.Generic g ->
          List.exists
            (function
              | Ic.Builtin.False -> false
              | Ic.Builtin.Cmp (op, l, r) ->
                  l.Ic.Builtin.offset <> 0
                  || r.Ic.Builtin.offset <> 0
                  || not (op = Ic.Builtin.Eq || op = Ic.Builtin.Neq))
            g.Constr.phi)
    ics

let shape_differential seed =
  let label, d, ics = shape_case seed in
  let rng = Random.State.make [| seed; 71 |] in
  let fixed = Repair.Candidates.constants_of_ics ics in
  let renamed =
    List.filter
      (fun c ->
        not (Value.is_null c || Value.equal c (vs "null") || List.mem c fixed))
      (Instance.active_domain d)
  in
  let fresh =
    let n = List.length renamed in
    let perm = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
    List.mapi
      (fun i c ->
        match c with
        | Value.Int _ -> Value.int (100_000 + perm.(i))
        | _ -> vs (Printf.sprintf "r_%d" perm.(i)))
      renamed
  in
  let copy =
    match
      Decompose.renaming ~from:(Array.of_list renamed) ~into:(Array.of_list fresh)
    with
    | Some f -> f d
    | None -> d
  in
  let d = Instance.union d copy in
  let fail what =
    QCheck.Test.fail_reportf "%s (renamed copy): %s" label what
  in
  let plan = Decompose.plan d ics in
  List.iter
    (fun (c : Decompose.component) ->
      let content_only =
        order_or_offset c.Decompose.ics
        || Result.is_error (Ic.Builder.non_conflicting c.Decompose.ics)
      in
      match Decompose.shape_key plan c with
      | Some _ when content_only -> ignore (fail "shape key on an order, offset or NNC conflict")
      | Some k ->
          let strs = Array.map (fun c -> match c with Value.Str _ -> true | _ -> false) k.Decompose.constants in
          if Array.exists Fun.id strs then begin
            let retype into =
              let f = Option.get (Decompose.renaming ~from:k.Decompose.constants ~into) in
              { c with Decompose.sub = f c.Decompose.sub; support = f c.Decompose.support }
            in
            let as_str = retype (Array.mapi (fun i v -> if strs.(i) then vs (string_of_int (i + 7)) else v) k.Decompose.constants)
            and as_int = retype (Array.mapi (fun i v -> if strs.(i) then Value.int (i + 7) else v) k.Decompose.constants) in
            if
              Decompose.fingerprint as_str = Decompose.fingerprint as_int
              || Decompose.shape_key plan as_str = Decompose.shape_key plan as_int
            then ignore (fail "retyped components share a key")
          end
      | None -> ())
    plan.Decompose.components;
  (* The memo keys exact plans only, and the renamed copy squares the
     products that an inexact plan's global filter, session repairs and
     join queries materialize: compare exact plans whose repair product
     stays small, as the memo-free single-atom outcome (which builds no
     product there) counts it. *)
  let free ?(jobs = 1) q =
    Query.Cqa.outcome_of_plan ~jobs ~store:memo_free
      ~method_:Query.Cqa.Auto ~standard:(Query.Qeval.answers d q) ~plan d ics q
  in
  match
    if plan.Decompose.product_exact then Some (free (List.hd queries)) else None
  with
  | Some (Ok o)
    when o.Query.Cqa.exhausted = None && o.Query.Cqa.repair_count <= 4096 ->
      List.for_all
        (fun jobs ->
          let session =
            Session.create ~engine:Session.Auto ~jobs d ics
          in
          (match
             ( Query.Cqa.repairs_of_plan ~jobs ~store:memo_free
                 ~method_:Query.Cqa.Auto ~plan d ics,
               Session.repairs session )
           with
          | Ok free, Ok memo ->
              (List.length free = List.length memo
              && List.for_all2 Instance.equal free memo)
              || fail (Printf.sprintf "session repairs differ at jobs %d" jobs)
          | Error _, _ -> true
          | Ok _, Error e -> fail e)
          && List.for_all
               (fun q ->
                 let free = free ~jobs q in
                 let memo =
                   Query.Cqa.consistent_answers ~method_:Query.Cqa.Auto ~jobs
                     d ics q
                 in
                 String.equal (render free) (render memo)
                 || fail
                      (Printf.sprintf "cqa at jobs %d:@.memo-free %s@.memo %s"
                         jobs (render free) (render memo)))
               queries)
        [ 1; 2 ]
  | _ -> true

let diff_shape_memo =
  QCheck.Test.make ~name:"shape memo = memo-free solve, jobs 1 and 2 (120 cases)"
    ~count:120
    QCheck.(int_bound 1_000_000)
    shape_differential

(* ------------------------------------------------------------------ *)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "session"
    [
      ( "delta",
        [
          Alcotest.test_case "apply" `Quick test_delta_apply;
          Alcotest.test_case "effective" `Quick test_delta_effective;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction;
          Alcotest.test_case "counters" `Quick test_lru_counters;
          Alcotest.test_case "capacity 0 disables" `Quick test_lru_disabled;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "stable under reordering" `Quick
            test_fingerprint_reorder;
          Alcotest.test_case "discriminates content" `Quick
            test_fingerprint_discriminates;
          Alcotest.test_case "keys tell types and IC constants apart" `Quick
            test_keys_apart;
        ] );
      ( "cache",
        [
          Alcotest.test_case "reuse across requests" `Quick test_cache_reuse;
          Alcotest.test_case "invalidation after delta" `Quick
            test_cache_invalidation;
          Alcotest.test_case "plan refresh fast path" `Quick test_plan_refresh;
          Alcotest.test_case "LRU eviction under pressure" `Quick
            test_session_eviction;
          Alcotest.test_case "consistent instance" `Quick
            test_session_consistent_instance;
          Alcotest.test_case "values that differ only in type" `Quick
            test_cache_types;
          Alcotest.test_case "shape hits carried and re-sorted" `Quick
            test_carried_resorted;
        ] );
      ( "qcheck",
        qcheck
          [
            diff_check_delta_test;
            diff_check_delta_seeded_test;
            diff_session_enum_repairs;
            diff_session_prog_repairs;
            diff_session_enum_cqa;
            diff_session_prog_cqa;
            diff_session_auto_repairs;
            diff_session_auto_cqa;
            diff_session_budget;
            diff_shape_memo;
          ] );
    ]
