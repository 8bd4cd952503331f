(* The benchmark's workloads: seeded generators of surface (.cqa) text, and
   the per-client update/query rounds replayed by the session and serve
   layers.  README.md records why each workload exists. *)

module Instance = Relational.Instance
module Value = Relational.Value

type kind = Oneshot_scale | Conflict_mix

let all = [ ("oneshot_scale", Oneshot_scale); ("conflict_mix", Conflict_mix) ]

let of_name n = List.assoc_opt n all

(* The query every workload asks, by name, as [cqanull cqa --query q1] or
   the [cqa q1] request would. *)
let query_name = "q1"

let v = Ic.Term.var
let atom p ts = Ic.Patom.make p ts

(* q1(x) :- exists y. P(x, y) *)
let exists_query pred =
  Query.Qsyntax.make ~name:query_name ~head:[ "x" ]
    (Query.Qsyntax.Exists ([ "y" ], Query.Qsyntax.Atom (atom pred [ v "x"; v "y" ])))

(* The scale_workload family: FK chain S[2] -> R[1], key on R, NNC on
   R[1], 4 FD duplicates + 4 orphans = 8 fixed conflict components.
   [smoke] shrinks it to 2k tuples. *)
let scale_text ~smoke ~seed =
  let w =
    Workload.Gen.scale_workload ~seed
      ~tuples:(if smoke then 2_000 else 50_000)
      ~fd_conflicts:4 ~orphans:4 ()
  in
  Lang.Emit.file ~ics:w.Workload.Gen.ics
    ~queries:[ (query_name, exists_query "S") ]
    w.Workload.Gen.d

(* conflict_mix: one component family per routing tier, each over its own
   predicates, around a small consistent core.  Constants carry a seeded
   offset so every seed is a different instance of the same shape. *)
type mix = {
  clusters : int;  (* disjunctive: weighted FD/RIC clusters (S, R, T) *)
  weight : int;
  padding : int;
  cliques : int;  (* direct: FD cliques on F *)
  width : int;
  chains : int;  (* shifted: broken RIC chains Ch1 -> Ch2 -> Ch3 *)
  triples : int;  (* enumerated: A(x), B(x) -> exists y. C(x, y) *)
  core : int;  (* consistent tuples per family *)
}

let mix_shape ~smoke =
  if smoke then
    { clusters = 3; weight = 4; padding = 3; cliques = 2; width = 3; chains = 2;
      triples = 2; core = 5 }
  else
    { clusters = 12; weight = 12; padding = 10; cliques = 4; width = 3;
      chains = 3; triples = 3; core = 40 }

let mix_instance ~smoke ~seed =
  let m = mix_shape ~smoke in
  let rng = Random.State.make [| seed; 0xc0f1 |] in
  let off = 1 + Random.State.int rng 90_000 in
  let sym p i = Value.str (Printf.sprintf "%s%d" p (off + i)) in
  let int i = Value.int (off + i) in
  let range n f = List.concat (List.init n f) in
  let facts =
    (* disjunctive: cluster i = S(a_i), T(a_i), R(a_i, c_0..c_{w-1}) *)
    range m.clusters (fun i ->
        ("S", [ sym "a" i ]) :: ("T", [ sym "a" i ])
        :: List.init m.weight (fun j -> ("R", [ sym "a" i; sym "c" j ])))
    @ range m.padding (fun j ->
          [ ("S", [ sym "p" j ]); ("R", [ sym "p" j; sym "b" j ]);
            ("T", [ sym "p" j ]) ])
    (* direct: key i of F has [width] pairwise-conflicting values *)
    @ range m.cliques (fun i ->
          List.init m.width (fun j -> ("F", [ int i; sym "f" j ])))
    @ List.init m.core (fun j -> ("F", [ int (1_000 + j); sym "g" j ]))
    (* shifted: Ch1(k_i, _) whose Ch2 support is missing *)
    @ List.init m.chains (fun i -> ("Ch1", [ sym "k" i; sym "d" i ]))
    @ range m.core (fun j ->
          [ ("Ch1", [ sym "m" j; sym "d" j ]); ("Ch2", [ sym "m" j; sym "e" j ]);
            ("Ch3", [ sym "m" j; sym "h" j ]) ])
    (* enumerated: A(e_i), B(e_i) with no C(e_i, _) *)
    @ range m.triples (fun i -> [ ("A", [ sym "e" i ]); ("B", [ sym "e" i ]) ])
    @ range m.core (fun j ->
          [ ("A", [ sym "n" j ]); ("B", [ sym "n" j ]);
            ("C", [ sym "n" j; sym "o" j ]) ])
  in
  let ics =
    [
      Ic.Constr.generic ~name:"s_r" ~ante:[ atom "S" [ v "x" ] ]
        ~cons:[ atom "R" [ v "x"; v "y" ] ] ();
      Ic.Constr.generic ~name:"r_t" ~ante:[ atom "R" [ v "x"; v "y" ] ]
        ~cons:[ atom "T" [ v "x" ] ] ();
      Ic.Builder.functional_dependency ~name:"fd_r" ~pred:"R" ~arity:2
        ~lhs:[ 1 ] ~rhs:2 ();
      Ic.Builder.functional_dependency ~name:"fd_f" ~pred:"F" ~arity:2
        ~lhs:[ 1 ] ~rhs:2 ();
      Ic.Constr.generic ~name:"ch12" ~ante:[ atom "Ch1" [ v "x"; v "y" ] ]
        ~cons:[ atom "Ch2" [ v "x"; v "z" ] ] ();
      Ic.Constr.generic ~name:"ch23" ~ante:[ atom "Ch2" [ v "x"; v "z" ] ]
        ~cons:[ atom "Ch3" [ v "x"; v "w" ] ] ();
      Ic.Constr.generic ~name:"ab_c"
        ~ante:[ atom "A" [ v "x" ]; atom "B" [ v "x" ] ]
        ~cons:[ atom "C" [ v "x"; v "y" ] ] ();
    ]
  in
  (Instance.of_list facts, ics)

(* The .cqa text the measured program receives. *)
let text ~smoke ~seed = function
  | Conflict_mix ->
      let d, ics = mix_instance ~smoke ~seed in
      Lang.Emit.file ~ics ~queries:[ (query_name, exists_query "R") ] d
  | Oneshot_scale -> scale_text ~smoke ~seed

(* One client round, as protocol request lines: insert a supported tuple,
   read, insert an orphan (a fresh violation, so a re-plan and a cache
   miss), read, delete both.  Ids are fresh per seed, client and round. *)
let round kind ~seed ~(d : Instance.t) ~client ~round =
  let slot = ((seed land 0xff) * 4_000_000) + (client * 2_000_000) + (2 * round) in
  let fact p vs = Lang.Emit.fact (Relational.Atom.make p vs) in
  let strip f = String.sub f 0 (String.length f - 1) in
  let supported, orphan =
    match kind with
    | Oneshot_scale ->
        (* a parent key held by exactly one R tuple, so the new child is
           supported and joins no conflict component *)
        let parents = max 1 (Instance.rel_cardinal d "R") in
        let single k =
          let n = ref 0 in
          Instance.iter_matching d "R" ~pos:0 (Value.int k) (fun _ -> incr n);
          !n = 1
        in
        let rec pick k = if single k then k else pick ((k + 1) mod parents) in
        let k = pick (Hashtbl.hash (seed, client, round) mod parents) in
        ( fact "S" [ Value.int (2_000_000_000 + slot); Value.int k ],
          fact "S"
            [ Value.int (2_000_000_001 + slot); Value.int (3_500_000_000 + slot) ] )
    | Conflict_mix ->
        ( fact "F" [ Value.int (10_000_000 + slot); Value.str "fresh" ],
          fact "S" [ Value.str (Printf.sprintf "z%d" slot) ] )
  in
  [
    "insert " ^ strip supported;
    "cqa " ^ query_name;
    "insert " ^ strip orphan;
    "cqa " ^ query_name;
    Printf.sprintf "delete %s delete %s" supported (strip orphan);
  ]

let is_read line = String.starts_with ~prefix:"cqa " line
