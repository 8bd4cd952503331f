(* Unit and property tests for the relational substrate. *)

module Value = Relational.Value
module Tuple = Relational.Tuple
module Atom = Relational.Atom
module Instance = Relational.Instance
module Schema = Relational.Schema
module Projection = Relational.Projection

let v_null = Value.null
let vi = Value.int
let vs = Value.str

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_order () =
  Alcotest.(check bool) "null < int" true (Value.compare v_null (vi 0) < 0);
  Alcotest.(check bool) "int < str" true (Value.compare (vi 99) (vs "a") < 0);
  Alcotest.(check bool) "int order" true (Value.compare (vi 1) (vi 2) < 0);
  Alcotest.(check bool) "str order" true (Value.compare (vs "a") (vs "b") < 0)

let test_value_equal () =
  Alcotest.(check bool) "null = null" true (Value.equal v_null v_null);
  Alcotest.(check bool) "null <> 0" false (Value.equal v_null (vi 0));
  Alcotest.(check bool) "null <> \"null\"? of_string" true
    (Value.equal (Value.of_string "null") v_null);
  Alcotest.(check bool) "of_string int" true (Value.equal (Value.of_string "42") (vi 42));
  Alcotest.(check bool) "of_string str" true (Value.equal (Value.of_string "ab") (vs "ab"))

let test_value_comparable () =
  Alcotest.(check bool) "null incomparable" false (Value.comparable v_null (vi 1));
  Alcotest.(check bool) "ints comparable" true (Value.comparable (vi 1) (vi 2))

let test_value_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Value.to_string v) true
        (Value.equal v (Value.of_string (Value.to_string v))))
    [ v_null; vi 0; vi (-3); vs "x"; vs "W04" ]

(* ------------------------------------------------------------------ *)
(* Tuple *)

let t vs = Tuple.make vs

let test_tuple_basic () =
  Alcotest.(check int) "arity" 3 (Tuple.arity (t [ vi 1; v_null; vs "a" ]));
  Alcotest.(check bool) "has_null" true (Tuple.has_null (t [ vi 1; v_null ]));
  Alcotest.(check bool) "no null" false (Tuple.has_null (t [ vi 1; vi 2 ]));
  Alcotest.(check bool) "all_non_null" true (Tuple.all_non_null (t [ vi 1 ]))

let test_tuple_compare () =
  Alcotest.(check int) "equal tuples" 0
    (Tuple.compare (t [ vi 1; vi 2 ]) (t [ vi 1; vi 2 ]));
  Alcotest.(check bool) "shorter first" true
    (Tuple.compare (t [ vi 1 ]) (t [ vi 1; vi 2 ]) < 0);
  Alcotest.(check bool) "lexicographic" true
    (Tuple.compare (t [ vi 1; vi 2 ]) (t [ vi 1; vi 3 ]) < 0)

let test_tuple_project () =
  let tu = t [ vs "a"; vs "b"; vs "c" ] in
  Alcotest.(check bool) "keep 1,3" true
    (Tuple.equal (Tuple.project [ 1; 3 ] tu) (t [ vs "a"; vs "c" ]));
  Alcotest.(check bool) "reorder" true
    (Tuple.equal (Tuple.project [ 3; 1 ] tu) (t [ vs "c"; vs "a" ]));
  Alcotest.(check bool) "empty projection" true
    (Tuple.equal (Tuple.project [] tu) (t []));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Tuple.project: position 4 out of range 1..3") (fun () ->
      ignore (Tuple.project [ 4 ] tu))

(* ------------------------------------------------------------------ *)
(* Instance *)

let d0 =
  Instance.of_list
    [
      ("P", [ vs "a"; vs "b" ]);
      ("P", [ vs "b"; v_null ]);
      ("R", [ vs "a" ]);
    ]

let test_instance_basic () =
  Alcotest.(check int) "cardinal" 3 (Instance.cardinal d0);
  Alcotest.(check bool) "mem" true (Instance.mem (Atom.make "P" [ vs "a"; vs "b" ]) d0);
  Alcotest.(check bool) "not mem" false (Instance.mem (Atom.make "R" [ vs "b" ]) d0);
  Alcotest.(check (list string)) "preds" [ "P"; "R" ] (Instance.preds d0);
  Alcotest.(check int) "null count" 1 (Instance.null_count d0)

let test_instance_add_remove () =
  let a = Atom.make "Q" [ vi 7 ] in
  let d = Instance.add a d0 in
  Alcotest.(check bool) "added" true (Instance.mem a d);
  Alcotest.(check int) "card up" 4 (Instance.cardinal d);
  let d = Instance.add a d in
  Alcotest.(check int) "set semantics: no duplicates" 4 (Instance.cardinal d);
  let d = Instance.remove a d in
  Alcotest.(check bool) "removed" false (Instance.mem a d);
  Alcotest.(check bool) "back to original" true (Instance.equal d d0)

let test_instance_setops () =
  let d1 = Instance.of_list [ ("P", [ vs "a"; vs "b" ]) ] in
  let diff = Instance.diff d0 d1 in
  Alcotest.(check int) "diff" 2 (Instance.cardinal diff);
  let sd = Instance.symdiff d0 d1 in
  Alcotest.(check int) "symdiff" 2 (Instance.cardinal sd);
  Alcotest.(check bool) "subset" true (Instance.subset d1 d0);
  Alcotest.(check bool) "not subset" false (Instance.subset d0 d1);
  Alcotest.(check bool) "union" true
    (Instance.equal (Instance.union d1 d0) d0)

let test_instance_active_domain () =
  let adom = Instance.active_domain d0 in
  Alcotest.(check int) "adom size" 3 (List.length adom);
  Alcotest.(check bool) "null in adom" true
    (List.exists Value.is_null adom);
  Alcotest.(check int) "non-null adom" 2
    (List.length (Instance.active_domain_non_null d0))

let test_instance_symdiff_self () =
  Alcotest.(check bool) "symdiff with self empty" true
    (Instance.is_empty (Instance.symdiff d0 d0))

(* ------------------------------------------------------------------ *)
(* Schema *)

let schema =
  Schema.of_list [ ("P", [ "A"; "B" ]); ("R", [ "A" ]) ]

let test_schema_basic () =
  Alcotest.(check (option int)) "arity P" (Some 2) (Schema.arity schema "P");
  Alcotest.(check (option int)) "arity unknown" None (Schema.arity schema "X");
  Alcotest.(check (option int)) "attr position" (Some 2)
    (Schema.attr_position schema "P" "B");
  Alcotest.(check (option string)) "attr name" (Some "A")
    (Schema.attr_name schema "P" 1);
  Alcotest.(check bool) "check instance ok" true
    (Result.is_ok (Schema.check_instance schema d0));
  Alcotest.(check bool) "arity mismatch caught" true
    (Result.is_error
       (Schema.check_atom schema (Atom.make "P" [ vs "a" ])))

let test_schema_duplicate () =
  Alcotest.check_raises "duplicate relation"
    (Invalid_argument "Schema.add_relation: duplicate relation P") (fun () ->
      ignore (Schema.add_relation schema ~name:"P" ~attrs:[ "X" ]))

(* ------------------------------------------------------------------ *)
(* Projection (Definition 3) *)

let test_projection_example10 () =
  (* Example 10: D = {P(a,b,a), P(b,c,a), R(a,5), R(a,2)}, A = {P[1], P[2],
     R[1], R[2]} keeps P's first two attributes. *)
  let d =
    Instance.of_list
      [
        ("P", [ vs "a"; vs "b"; vs "a" ]);
        ("P", [ vs "b"; vs "c"; vs "a" ]);
        ("R", [ vs "a"; vi 5 ]);
        ("R", [ vs "a"; vi 2 ]);
      ]
  in
  let da = Projection.project_instance [ ("P", [ 1; 2 ]); ("R", [ 1; 2 ]) ] d in
  let expected =
    Instance.of_list
      [
        ("P", [ vs "a"; vs "b" ]);
        ("P", [ vs "b"; vs "c" ]);
        ("R", [ vs "a"; vi 5 ]);
        ("R", [ vs "a"; vi 2 ]);
      ]
  in
  Alcotest.(check bool) "D^A as in Example 10" true (Instance.equal da expected)

let test_projection_collapses_duplicates () =
  let d =
    Instance.of_list
      [ ("P", [ vs "a"; vs "b" ]); ("P", [ vs "a"; vs "c" ]) ]
  in
  let da = Projection.project_instance [ ("P", [ 1 ]) ] d in
  Alcotest.(check int) "projection is a set" 1 (Instance.cardinal da)

let test_projection_zero_ary () =
  let d = Instance.of_list [ ("P", [ vs "a" ]) ] in
  let da = Projection.project_instance [ ("P", []) ] d in
  Alcotest.(check int) "zero-ary marker survives" 1 (Instance.cardinal da);
  Alcotest.(check bool) "marker atom" true
    (Instance.mem (Atom.make "P" []) da)

let test_restrict_to () =
  let r = Projection.restrict_to [ "R" ] d0 in
  Alcotest.(check (list string)) "only R" [ "R" ] (Instance.preds r)

(* ------------------------------------------------------------------ *)
(* Pretty *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let test_pretty_table () =
  let s = Relational.Pretty.table ~schema d0 "P" in
  Alcotest.(check bool) "mentions header" true (contains s "| A ");
  Alcotest.(check bool) "mentions null" true (contains s "null")

let test_pretty_atoms_line () =
  let s = Relational.Pretty.atoms_line d0 in
  Alcotest.(check bool) "contains null" true (contains s "null")

let test_hash_consistent () =
  let t1 = t [ vi 1; v_null ] and t2 = t [ vi 1; v_null ] in
  Alcotest.(check int) "equal tuples hash equal" (Tuple.hash t1) (Tuple.hash t2);
  Alcotest.(check int) "equal values hash equal" (Value.hash v_null) (Value.hash Value.null)

let test_pretty_empty_relation () =
  let s = Relational.Pretty.table Instance.empty "Nothing" in
  Alcotest.(check bool) "renders header line" true (contains s "Nothing")

let test_instance_compare_order () =
  let a = Instance.of_list [ ("P", [ vi 1 ]) ] in
  let b = Instance.of_list [ ("P", [ vi 2 ]) ] in
  Alcotest.(check bool) "compare consistent with equal" true
    (Instance.compare a a = 0 && Instance.compare a b <> 0);
  Alcotest.(check bool) "antisymmetric" true
    (Instance.compare a b = -Instance.compare b a)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Mostly a small domain, so that tuples collide; now and then the edges
   of the bulk build's rank sort: negative and extreme ints, and strings
   that are empty, prefixes of each other, or share their first seven
   bytes. *)
let value_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Value.null);
        (6, map Value.int (int_range 0 5));
        (6, map (fun c -> Value.str (String.make 1 c)) (char_range 'a' 'e'));
        (1, map Value.int (oneofl [ min_int; -1; -4611; 1 lsl 40; max_int ]));
        ( 1,
          map Value.str
            (oneofl [ ""; "a\000"; "abcdefg"; "abcdefgh"; "abcdefgz"; "abcdefghi"; "b\255" ]) );
      ])

let tuple_gen arity = QCheck.Gen.(map Tuple.make (list_size (return arity) value_gen))

let atom_gen =
  QCheck.Gen.(
    let* pred = oneofl [ ("P", 2); ("Q", 1); ("R", 3) ] in
    let name, arity = pred in
    map (fun t -> Atom.of_tuple name t) (tuple_gen arity))

let instance_gen = QCheck.Gen.(map Instance.of_atoms (list_size (int_range 0 12) atom_gen))

let instance_arb = QCheck.make ~print:(Fmt.str "%a" Instance.pp_inline) instance_gen

let prop_symdiff_commutes =
  QCheck.Test.make ~name:"symdiff commutes" ~count:200
    (QCheck.pair instance_arb instance_arb) (fun (a, b) ->
      Instance.equal (Instance.symdiff a b) (Instance.symdiff b a))

let prop_union_cardinal =
  QCheck.Test.make ~name:"inclusion-exclusion" ~count:200
    (QCheck.pair instance_arb instance_arb) (fun (a, b) ->
      Instance.cardinal (Instance.union a b)
      = Instance.cardinal a + Instance.cardinal b
        - Instance.cardinal (Instance.inter a b))

let prop_atoms_roundtrip =
  QCheck.Test.make ~name:"of_atoms . atoms = id" ~count:200 instance_arb
    (fun d -> Instance.equal d (Instance.of_atoms (Instance.atoms d)))

let prop_projection_cardinal =
  QCheck.Test.make ~name:"projection never grows" ~count:200 instance_arb
    (fun d ->
      let da = Projection.project_instance [ ("P", [ 1 ]); ("R", [ 2; 3 ]) ] d in
      Instance.cardinal da <= Instance.cardinal d)

let value_arb = QCheck.make ~print:Value.to_string value_gen

(* hash/equal coherence: the contract every Hashtbl keyed on values relies
   on.  The converse direction (unequal values hashing apart) is checked
   only for the tiny generator domain — not a requirement, but a collision
   across constructors there would make the hash useless in practice. *)
let prop_hash_equal_coherent =
  QCheck.Test.make ~name:"equal values hash equal" ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      (not (Value.equal a b)) || Value.hash a = Value.hash b)

let prop_hash_discriminates_constructors =
  QCheck.Test.make ~name:"hash separates constructors on the test domain"
    ~count:500
    (QCheck.pair value_arb value_arb) (fun (a, b) ->
      Value.equal a b || Value.hash a <> Value.hash b)

(* ------------------------------------------------------------------ *)
(* Answer sets vs the standard library's tree of tuples.

   [Tuple.Set] is a sorted array built in bulk and combined by merges;
   the tree it replaced is its oracle, operation by operation.  Lists come
   in random order with duplicates, arities 0 to 3 mixed, [null] next to
   the string "null", ints at [min_int] and [max_int]; their lengths range
   from a few to a few hundred, so that the merges' searches cross short
   and long sides of either size. *)

module Oracle = Set.Make (Tuple)

let set_value_gen =
  QCheck.Gen.(
    frequency
      [
        (2, return Value.null);
        (2, return (vs "null"));
        (4, map vi (int_range (-3) 3));
        (2, map vi (oneofl [ min_int; min_int + 1; max_int - 1; max_int ]));
        (3, map vs (oneofl [ ""; "a"; "ab"; "b"; "A"; "x, y" ]));
      ])

let set_list_gen =
  QCheck.Gen.(
    let* len = frequency [ (3, int_range 0 6); (3, int_range 0 40); (1, int_range 100 400) ] in
    list_size (return len) (map Tuple.make (list_size (int_range 0 3) set_value_gen)))

let set_list_print l = Fmt.str "[%a]" Fmt.(list ~sep:(any "; ") Tuple.pp) l

let same_elements s o =
  List.equal Tuple.equal (Tuple.Set.elements s) (Oracle.elements o)

let prop_set_oracle =
  QCheck.Test.make ~name:"Tuple.Set = stdlib tree (1000 pairs)" ~count:1000
    (QCheck.make ~print:QCheck.Print.(pair set_list_print set_list_print)
       QCheck.Gen.(pair set_list_gen set_list_gen))
    (fun (la, lb) ->
      let a = Tuple.Set.of_list la and b = Tuple.Set.of_array (Array.of_list lb) in
      let oa = Oracle.of_list la and ob = Oracle.of_list lb in
      same_elements a oa && same_elements b ob
      && Tuple.Set.cardinal a = Oracle.cardinal oa
      && Tuple.Set.is_empty a = Oracle.is_empty oa
      && same_elements (Tuple.Set.union a b) (Oracle.union oa ob)
      && same_elements (Tuple.Set.inter a b) (Oracle.inter oa ob)
      && same_elements (Tuple.Set.diff a b) (Oracle.diff oa ob)
      && same_elements (Tuple.Set.diff b a) (Oracle.diff ob oa)
      && Tuple.Set.subset a b = Oracle.subset oa ob
      && Tuple.Set.subset (Tuple.Set.inter a b) a
      && Tuple.Set.equal a b = Oracle.equal oa ob
      && List.for_all (fun t -> Tuple.Set.mem t b = Oracle.mem t ob) (la @ lb)
      && Tuple.Set.exists Tuple.has_null a = Oracle.exists Tuple.has_null oa
      && List.equal Tuple.equal
           (Tuple.Set.fold List.cons a [])
           (Oracle.fold List.cons oa [])
      (* a combination that changes nothing returns its input *)
      && Tuple.Set.union a (Tuple.Set.inter a b) == a
      && Tuple.Set.inter a (Tuple.Set.union a b) == a
      && Tuple.Set.diff a (Tuple.Set.diff b a) == a)

(* ------------------------------------------------------------------ *)
(* Columnar storage vs the functional-set oracle (Naive_instance).

   The columnar representation (interned segments + deletion/extra
   overlays) must be observationally identical to the old Tuple.Set-per-
   predicate maps it replaced, over the whole signature — including the
   printed form byte for byte and the sign of [compare], which the repair
   engine's canonical orders rest on.  The generator crosses the
   representation's regimes on purpose: a bulk [of_atoms] build (segment-
   backed once a predicate holds >= 8 rows), incremental additions (the
   extra overlay), and removals of both segment rows (the deletion
   overlay) and freshly added ones. *)

module Naive = Naive_instance

let script_gen_of atom_gen =
  QCheck.Gen.(
    let* base = list_size (int_range 0 40) atom_gen in
    let* extras = list_size (int_range 0 10) atom_gen in
    let* mask = list_repeat (List.length base) bool in
    let removes =
      List.filteri (fun i _ -> List.nth mask i) base
    in
    return (base, extras, removes))

let script_gen = script_gen_of atom_gen

let script_print (base, extras, removes) =
  Fmt.str "base=%a extras=%a removes=%a"
    Instance.pp_inline (Instance.of_atoms base)
    Instance.pp_inline (Instance.of_atoms extras)
    Instance.pp_inline (Instance.of_atoms removes)

let script_arb = QCheck.make ~print:script_print script_gen

let build_pair (base, extras, removes) =
  let d =
    List.fold_left (fun d a -> Instance.remove a d)
      (List.fold_left (fun d a -> Instance.add a d) (Instance.of_atoms base)
         extras)
      removes
  in
  let n =
    List.fold_left (fun d a -> Naive.remove a d)
      (List.fold_left (fun d a -> Naive.add a d) (Naive.of_atoms base) extras)
      removes
  in
  (d, n)

let to_naive d = Naive.of_atoms (Instance.atoms d)
let of_naive n = Instance.of_atoms (Naive.atoms n)

let same_observables probe_atoms d n =
  List.length (Instance.atoms d) = List.length (Naive.atoms n)
  && List.for_all2 Atom.equal (Instance.atoms d) (Naive.atoms n)
  && Atom.Set.equal (Instance.atom_set d) (Naive.atom_set n)
  && Instance.cardinal d = Naive.cardinal n
  && Instance.is_empty d = Naive.is_empty n
  && Instance.preds d = Naive.preds n
  && List.for_all
       (fun p -> Tuple.Set.equal (Instance.tuples d p) (Naive.tuples n p))
       [ "P"; "Q"; "R"; "Absent" ]
  && List.for_all (fun a -> Instance.mem a d = Naive.mem a n) probe_atoms
  && Instance.fold (fun a acc -> a :: acc) d []
     = Naive.fold (fun a acc -> a :: acc) n []
  && Instance.active_domain d = Naive.active_domain n
  && Instance.active_domain_non_null d = Naive.active_domain_non_null n
  && Instance.null_count d = Naive.null_count n
  && Fmt.str "%a" Instance.pp d = Fmt.str "%a" Naive.pp n
  && Fmt.str "%a" Instance.pp_inline d = Fmt.str "%a" Naive.pp_inline n

(* The atom with its first position replaced by a constant no instance
   ever holds, hence never interned: lookups must miss without interning
   it. *)
let fresh_variant a =
  let args = Array.copy (Atom.args a) in
  if Array.length args > 0 then args.(0) <- vs "\001 never interned";
  Atom.of_tuple (Atom.pred a) args

let prop_naive_differential =
  QCheck.Test.make ~name:"columnar = Naive oracle (unary ops, 500 cases)"
    ~count:500 script_arb (fun ((base, extras, removes) as s) ->
      let d, n = build_pair s in
      let probes = base @ extras @ removes @ List.map fresh_variant base in
      same_observables probes d n
      && (* adding and removing a tuple holding a constant never interned,
            and removing one again *)
      List.for_all
        (fun a ->
          let a = fresh_variant a in
          same_observables (a :: probes) (Instance.add a d) (Naive.add a n)
          && same_observables (a :: probes)
               (Instance.remove a (Instance.add a d))
               (Naive.remove a (Naive.add a n))
          && same_observables probes (Instance.remove a d) (Naive.remove a n))
        (List.filteri (fun i _ -> i < 3) base)
      && (let keep a = Atom.pred a <> "Q" in
          same_observables probes (Instance.filter keep d) (Naive.filter keep n)))

let sign x = Stdlib.compare x 0

let prop_naive_differential_binary =
  QCheck.Test.make ~name:"columnar = Naive oracle (set ops, 500 cases)"
    ~count:500 (QCheck.pair script_arb script_arb) (fun (sa, sb) ->
      let da, na = build_pair sa and db, nb = build_pair sb in
      let check_op op nop =
        let r = op da db and nr = nop na nb in
        same_observables (Instance.atoms r) r nr
      in
      check_op Instance.union Naive.union
      && check_op Instance.diff Naive.diff
      && check_op Instance.inter Naive.inter
      && check_op Instance.symdiff Naive.symdiff
      && Instance.subset da db = Naive.subset na nb
      && Instance.subset (Instance.inter da db) da
      && Instance.equal da db = Naive.equal na nb
      && sign (Instance.compare da db) = sign (Naive.compare na nb)
      && sign (Instance.compare db da) = sign (Naive.compare nb na))

(* Mixed-origin operands: one side converted through the other
   representation's constructor, so segment-vs-overlay asymmetries in the
   binary fast paths (shared segment, segless, small-into-big) get hit
   against rebuilt operands too. *)
let prop_naive_differential_rebuilt =
  QCheck.Test.make ~name:"columnar = Naive oracle (rebuilt operands)"
    ~count:200 (QCheck.pair script_arb script_arb) (fun (sa, sb) ->
      let da, na = build_pair sa and db, _ = build_pair sb in
      let db' = of_naive (to_naive db) in
      Instance.equal db db'
      && same_observables (Instance.atoms da)
           (Instance.union da db')
           (Naive.union na (to_naive db'))
      && sign (Instance.compare da db') = sign (Naive.compare na (to_naive db')))

(* Operands one atom apart whose segments differ: the merges of [compare]
   and [subset] then walk a long common prefix of two segments and their
   overlays before they can decide. *)
let prop_naive_near_equal =
  QCheck.Test.make ~name:"columnar = Naive oracle (near-equal rebuilt operands)"
    ~count:300
    (QCheck.triple script_arb (QCheck.make atom_gen) (QCheck.make atom_gen))
    (fun (s, a, b) ->
      let d, n = build_pair s in
      let na = Naive.add a n and nb = Naive.remove b n in
      let da = of_naive na and db = Instance.remove b (of_naive n) in
      List.for_all
        (fun (x, nx, y, ny) ->
          sign (Instance.compare x y) = sign (Naive.compare nx ny)
          && sign (Instance.compare y x) = sign (Naive.compare ny nx)
          && Instance.subset x y = Naive.subset nx ny
          && Instance.subset y x = Naive.subset ny nx)
        [ (d, n, da, na); (d, n, db, nb); (da, na, db, nb) ])

(* One relation of mixed arities, which a bulk build splits: the most
   common arity columnar, the rest in the overlay. *)
let prop_mixed_arities =
  QCheck.Test.make ~name:"columnar = Naive oracle (mixed arities)" ~count:300
    (QCheck.make
       ~print:(fun l -> Fmt.str "%a" Instance.pp_inline (Instance.of_atoms l))
       QCheck.Gen.(
         list_size (int_range 0 30)
           (let* arity = int_range 1 2 in
            map (Atom.of_tuple "M") (tuple_gen arity))))
    (fun atoms ->
      let d = Instance.of_atoms atoms and n = Naive.of_atoms atoms in
      let probes = atoms @ List.map fresh_variant atoms in
      same_observables probes d n
      && List.for_all
           (fun a ->
             same_observables probes (Instance.remove a d) (Naive.remove a n)
             && same_observables probes
                  (Instance.add (fresh_variant a) d)
                  (Naive.add (fresh_variant a) n))
           (List.filteri (fun i _ -> i < 4) atoms))

(* Values interned far apart: each is followed by fillers no instance
   holds, so a column holding two of them spans far more codes than it
   has rows and its postings take the sparse path. *)
let far_values =
  List.init 6 (fun i ->
      let v = vs (Printf.sprintf "far %d" i) in
      ignore (Relational.Symtab.intern v);
      for k = 0 to 199 do
        ignore (Relational.Symtab.intern (vs (Printf.sprintf "far %d filler %d" i k)))
      done;
      v)

let probe_value_gen = QCheck.Gen.(frequency [ (3, value_gen); (1, oneofl far_values) ])

let probe_atom_gen =
  QCheck.Gen.(
    let* name, arity = oneofl [ ("P", 2); ("Q", 1); ("R", 3) ] in
    map (Atom.make name) (list_size (return arity) probe_value_gen))

(* check_delta seeding aside, the index probes themselves must agree with
   a filter of the full scan — order included: segment postings ascending,
   then the extra overlay.  A relation with no added tuples (a segment
   with deletions, or a small relation that is all overlay) yields the
   filtered scan exactly, in order; with added tuples, the same rows.
   Values come from the small domain and from [far_values], so that
   columns take the dense path and the sparse one. *)
let prop_iter_matching =
  QCheck.Test.make ~name:"iter_matching = filtered scan" ~count:300
    (QCheck.pair
       (QCheck.make ~print:script_print (script_gen_of probe_atom_gen))
       (QCheck.make probe_value_gen))
    (fun (((_, extras, _) as s), v) ->
      let d, _ = build_pair s in
      List.for_all
        (fun (p, arity) ->
          let no_overlay = not (List.exists (fun a -> Atom.pred a = p) extras) in
          List.for_all
            (fun pos ->
              let probed = ref [] in
              Instance.iter_matching d p ~pos v (fun t ->
                  probed := t :: !probed);
              let scanned = ref [] in
              Instance.iter_rel d p (fun t ->
                  if Value.equal t.(pos) v then scanned := t :: !scanned);
              (* the code-level probe yields the same rows in the same order *)
              let view = Instance.rows d p in
              let code = Option.value ~default:(-1) (Relational.Symtab.find v) in
              let coded = ref [] in
              Instance.iter_rows_with_code view ~pos code (fun h ->
                  coded := Instance.row_tuple view h :: !coded);
              (if no_overlay then List.equal Tuple.equal !probed !scanned
               else List.sort Tuple.compare !probed = List.sort Tuple.compare !scanned)
              && List.equal Tuple.equal !coded !probed
              && Instance.exists_rows_with_code view ~pos code (fun _ -> true)
                 = (!scanned <> [])
              && Instance.has_code view ~pos ~arity code = (!scanned <> [])
              && not (Instance.has_code view ~pos ~arity:(arity + 1) code))
            (List.init arity (fun i -> i)))
        [ ("P", 2); ("Q", 1); ("R", 3) ])

(* The first probe of a column builds its postings: the row ids in one
   int array and a directory over the codes, with no box per row or per
   code.  On a fresh 20k-row column that is at most 6 words per row where
   the codes are dense (an array over their span) and at most 8 where they
   are sparse (a sort and an open-addressed table); a list per code in a
   hash table took 9 to 10 words per row on columns of distinct codes. *)
let test_index_words () =
  let n = 20_000 in
  let fresh i = vs (Printf.sprintf "index words %d" i) in
  let dense = List.init n (fun i -> Atom.make "P" [ fresh i; vi (i mod 7) ]) in
  let sparse =
    List.init n (fun i ->
        let v = fresh (n + i) in
        ignore (Relational.Symtab.intern v);
        ignore (Relational.Symtab.intern (fresh (2 * n + (2 * i))));
        ignore (Relational.Symtab.intern (fresh (2 * n + (2 * i) + 1)));
        Atom.make "Q" [ v; vi i ])
  in
  let w = Workload.Gen.scale_workload ~tuples:n () in
  let d = Instance.of_atoms (dense @ sparse @ Instance.atoms w.Workload.Gen.d) in
  List.iter
    (fun (label, p, pos, v, bound) ->
      let rows = float_of_int (Instance.rel_cardinal d p) in
      let hits = ref 0 in
      let (), words = Alloc.allocated (fun () -> Instance.iter_matching d p ~pos v (fun _ -> incr hits)) in
      Alcotest.(check bool) (label ^ ": found") true (!hits > 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words over %.0f rows <= %.0f per row" label words rows bound)
        true
        (words <= bound *. rows))
    [
      ("dense codes", "P", 0, fresh 17, 6.);
      ("sparse codes", "Q", 0, fresh (n + 17), 8.);
      ("R's owner column", "R", 1, vs "o3", 6.);
    ]

(* Deterministic compaction crossing: a segment-backed relation pushed
   through > threshold incremental additions (forcing at least one
   rebuild), then partially deleted, stays identical to the oracle. *)
let test_compaction_crossing () =
  let mk i = Atom.make "P" [ vi i; (if i mod 7 = 0 then v_null else vi (i * 2)) ] in
  let base = List.init 2000 mk in
  let extras = List.init 1100 (fun i -> mk (10_000 + i)) in
  let removes = List.init 500 (fun i -> mk (i * 3)) in
  let d, n = build_pair (base, extras, removes) in
  Alcotest.(check int) "cardinal" (Naive.cardinal n) (Instance.cardinal d);
  Alcotest.(check int) "null_count" (Naive.null_count n) (Instance.null_count d);
  Alcotest.(check bool) "observables" true
    (same_observables (base @ extras) d n);
  let resurrected = Instance.add (mk 1) (Instance.remove (mk 1) d) in
  Alcotest.(check bool) "remove/re-add roundtrip" true
    (Instance.equal d resurrected)

(* A relation walk allocates the tuples it decodes, and nothing per row
   beyond them: [arity + 1] words per row for [iter_rel], plus the
   3-word atom per tuple for [fold], and a constant for the walk's
   closures.  Here over S (12k rows of a 20k-tuple instance) and the
   whole instance, with an overlay of added and deleted rows. *)
let test_walk_allocation () =
  let w = Workload.Gen.scale_workload ~tuples:20_000 () in
  let d = w.Workload.Gen.d in
  let rows = ref [] in
  Instance.iter_rel d "S" (fun t -> rows := t :: !rows);
  let d =
    List.fold_left
      (fun d t -> Instance.remove (Atom.of_tuple "S" t) d)
      (List.fold_left
         (fun d i -> Instance.add (Atom.make "S" [ vi (-i); vi i ]) d)
         d [ 1; 2; 3 ])
      (List.filteri (fun i _ -> i mod 1000 = 0) !rows)
  in
  let slack = 64. in
  let n = Instance.rel_cardinal d "S" in
  let _, words = Alloc.allocated (fun () -> Instance.iter_rel d "S" ignore) in
  Alcotest.(check bool)
    (Printf.sprintf "iter_rel over %d rows: %.0f words <= 3 per row + %.0f" n words slack)
    true
    (words <= (3. *. float_of_int n) +. slack);
  let tuples = Instance.cardinal d in
  let count, words = Alloc.allocated (fun () -> Instance.fold (fun _ k -> k + 1) d 0) in
  Alcotest.(check int) "fold visits every tuple" tuples count;
  Alcotest.(check bool)
    (Printf.sprintf "fold over %d tuples: %.0f words <= 6 per tuple + %.0f" tuples words
       slack)
    true
    (words <= (6. *. float_of_int tuples) +. slack)

(* Building an answer set from a walk already in order sorts nothing:
   [Instance.tuples] of a 20k-row relation, with an overlay of added and
   deleted rows, is the relation's walk (3 words per decoded row) and one
   array over it, and agrees with the oracle. *)
let test_tuples_allocation () =
  let base = List.init 20_000 (fun i -> Atom.make "P" [ vi ((i * 7919) mod 20_000); vs "p" ]) in
  let extras = List.init 50 (fun i -> Atom.make "P" [ vi (-i - 1); v_null ]) in
  let removes = List.filteri (fun i _ -> i mod 500 = 0) base in
  let d, n = build_pair (base, extras, removes) in
  let rows = Instance.rel_cardinal d "P" in
  let set, words = Alloc.allocated (fun () -> Instance.tuples d "P") in
  Alcotest.(check bool) "the oracle's tuples" true
    (List.equal Tuple.equal (Tuple.Set.elements set)
       (Naive.Tset.elements (Naive.tuple_set n "P")));
  Alcotest.(check bool)
    (Printf.sprintf "tuples of %d rows: %.0f words <= 4 per row + 64" rows words)
    true
    (words <= (4. *. float_of_int rows) +. 64.)

(* [Tuple.compare] and [Tuple.equal] allocate nothing: a set of tuples
   sorts through them. *)
let test_tuple_compare_allocation () =
  let a = t [ vi 1; vs "x"; v_null ] and b = t [ vi 1; vs "x"; vi 2 ] in
  let n = 1000 in
  let _, words =
    Alloc.allocated (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Tuple.compare a b));
          ignore (Sys.opaque_identity (Tuple.equal a b));
          ignore (Sys.opaque_identity (Tuple.equal a a))
        done)
  in
  Alcotest.(check (float 0.)) "words for 3000 calls" 0. words

(* Membership is a binary search over the sorted segment: the first [mem]
   on a fresh instance builds no index, so it allocates a constant (a hash
   index over R's and S's rows would cost 72k and 117k words at this
   size). *)
let test_first_mem_allocation () =
  let w = Workload.Gen.scale_workload ~tuples:20_000 () in
  let d = Instance.of_atoms (Instance.atoms w.Workload.Gen.d) in
  let r = List.hd (Instance.atoms (Instance.filter (fun a -> Atom.pred a = "R") d)) in
  let s = List.hd (List.rev (Instance.atoms d)) in
  let absent = Atom.make "S" [ vs "never interned anywhere"; vi 1 ] in
  List.iter
    (fun (label, a, expected) ->
      let found, words = Alloc.allocated (fun () -> Instance.mem a d) in
      Alcotest.(check bool) label expected found;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words <= 16" label words)
        true (words <= 16.))
    [ ("first R row", r, true); ("last S row", s, true); ("absent", absent, false) ]

(* A bulk build whose codes span far more values than it has cells (old
   constants next to new ones, as in a server that has loaded other
   files) finds its distinct codes by sorting them, not through an array
   over the span: it agrees with the oracle all the same. *)
let test_build_sparse_codes () =
  let old = List.init 40 (fun i -> vs (Printf.sprintf "sparse old %d" i)) in
  List.iter (fun v -> ignore (Relational.Symtab.intern v)) old;
  for i = 0 to 4_999 do
    ignore (Relational.Symtab.intern (vs (Printf.sprintf "sparse filler %d" i)))
  done;
  let atoms =
    List.concat
      (List.mapi
         (fun i v ->
           [
             Atom.make "P" [ v; vs (Printf.sprintf "sparse new %d" (i mod 7)) ];
             Atom.make "P" [ vi (-i); v ];
           ])
         old)
  in
  let d = Instance.of_atoms atoms and n = Naive.of_atoms atoms in
  Alcotest.(check bool) "observables" true (same_observables atoms d n)

let qcheck = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "relational"
    [
      ( "value",
        [
          Alcotest.test_case "order" `Quick test_value_order;
          Alcotest.test_case "equal" `Quick test_value_equal;
          Alcotest.test_case "comparable" `Quick test_value_comparable;
          Alcotest.test_case "roundtrip" `Quick test_value_roundtrip;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "basic" `Quick test_tuple_basic;
          Alcotest.test_case "compare" `Quick test_tuple_compare;
          Alcotest.test_case "project" `Quick test_tuple_project;
          Alcotest.test_case "compare allocates nothing" `Quick
            test_tuple_compare_allocation;
        ] );
      ( "instance",
        [
          Alcotest.test_case "basic" `Quick test_instance_basic;
          Alcotest.test_case "add/remove" `Quick test_instance_add_remove;
          Alcotest.test_case "set ops" `Quick test_instance_setops;
          Alcotest.test_case "active domain" `Quick test_instance_active_domain;
          Alcotest.test_case "symdiff self" `Quick test_instance_symdiff_self;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basic" `Quick test_schema_basic;
          Alcotest.test_case "duplicate" `Quick test_schema_duplicate;
        ] );
      ( "projection",
        [
          Alcotest.test_case "example 10" `Quick test_projection_example10;
          Alcotest.test_case "collapses duplicates" `Quick
            test_projection_collapses_duplicates;
          Alcotest.test_case "zero-ary" `Quick test_projection_zero_ary;
          Alcotest.test_case "restrict" `Quick test_restrict_to;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "table" `Quick test_pretty_table;
          Alcotest.test_case "atoms line" `Quick test_pretty_atoms_line;
          Alcotest.test_case "empty relation" `Quick test_pretty_empty_relation;
          Alcotest.test_case "hash" `Quick test_hash_consistent;
          Alcotest.test_case "instance compare" `Quick test_instance_compare_order;
        ] );
      ( "properties",
        qcheck
          [
            prop_symdiff_commutes;
            prop_union_cardinal;
            prop_atoms_roundtrip;
            prop_projection_cardinal;
            prop_hash_equal_coherent;
            prop_hash_discriminates_constructors;
          ] );
      ( "tuple set",
        Alcotest.test_case "tuples of a relation" `Quick test_tuples_allocation
        :: qcheck [ prop_set_oracle ] );
      ( "columnar vs naive",
        Alcotest.test_case "compaction crossing" `Quick
          test_compaction_crossing
        :: Alcotest.test_case "relation walk allocation" `Quick test_walk_allocation
        :: Alcotest.test_case "first mem allocation" `Quick test_first_mem_allocation
        :: Alcotest.test_case "build over sparse codes" `Quick test_build_sparse_codes
        :: Alcotest.test_case "index words per row" `Quick test_index_words
        :: qcheck
             [
               prop_naive_differential;
               prop_naive_differential_binary;
               prop_naive_differential_rebuilt;
               prop_naive_near_equal;
               prop_mixed_arities;
               prop_iter_matching;
             ] );
    ]
