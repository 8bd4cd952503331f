module Instance = Relational.Instance
module Value = Relational.Value

type t = {
  label : string;
  d : Relational.Instance.t;
  ics : Ic.Constr.t list;
}

let v = Ic.Term.var
let atom p ts = Ic.Patom.make p ts

let sym prefix i = Value.str (Printf.sprintf "%s%d" prefix i)

let maybe_null rng rate value =
  if Random.State.float rng 1.0 < rate then Value.null else value

let fk_workload ?(seed = 42) ~n_parent ~n_child ~orphan_rate ~null_rate () =
  let rng = Random.State.make [| seed |] in
  let parents =
    List.init n_parent (fun i ->
        ("R", [ sym "p" i; maybe_null rng null_rate (sym "d" i) ]))
  in
  let children =
    List.init n_child (fun i ->
        let orphan = Random.State.float rng 1.0 < orphan_rate in
        let target =
          if orphan then sym "missing" i
          else sym "p" (Random.State.int rng (max 1 n_parent))
        in
        ("S", [ maybe_null rng null_rate (sym "c" i); target ]))
  in
  {
    label = Printf.sprintf "fk n_parent=%d n_child=%d orphan=%.2f null=%.2f"
        n_parent n_child orphan_rate null_rate;
    d = Instance.of_list (parents @ children);
    ics =
      Ic.Builder.key ~name_prefix:"key_r" ~pred:"R" ~arity:2 ~key:[ 1 ] ()
      @ [
          Ic.Builder.foreign_key ~name:"fk" ~child:"S" ~child_arity:2
            ~child_cols:[ 2 ] ~parent:"R" ~parent_arity:2 ~parent_cols:[ 1 ] ();
          Ic.Constr.not_null ~name:"nn_r1" ~pred:"R" ~arity:2 ~pos:1 ();
        ];
  }

let fk_workload_det ~n_parent ~n_child ~orphans ~null_refs () =
  let parents =
    List.init n_parent (fun i -> ("R", [ sym "p" i; sym "d" i ]))
  in
  let children =
    List.init n_child (fun i ->
        let target =
          if i < orphans then sym "missing" i
          else if i < orphans + null_refs then Value.null
          else sym "p" (i mod max 1 n_parent)
        in
        ("S", [ sym "c" i; target ]))
  in
  {
    label =
      Printf.sprintf "fk-det parents=%d children=%d orphans=%d null_refs=%d"
        n_parent n_child orphans null_refs;
    d = Instance.of_list (parents @ children);
    ics =
      Ic.Builder.key ~name_prefix:"key_r" ~pred:"R" ~arity:2 ~key:[ 1 ] ()
      @ [
          Ic.Builder.foreign_key ~name:"fk" ~child:"S" ~child_arity:2
            ~child_cols:[ 2 ] ~parent:"R" ~parent_arity:2 ~parent_cols:[ 1 ] ();
          Ic.Constr.not_null ~name:"nn_r1" ~pred:"R" ~arity:2 ~pos:1 ();
        ];
  }

let fd_workload ?(seed = 42) ?(width = 2) ~n ~dup_rate () =
  let rng = Random.State.make [| seed |] in
  (* the first conflicting value keeps its historical name so [width = 2]
     (the default) stays byte-identical to the pre-width generator *)
  let extra i j =
    if j = 0 then sym "w" i else Value.str (Printf.sprintf "w%d_%d" j i)
  in
  let rows =
    List.concat
      (List.init n (fun i ->
           let base = ("R", [ sym "k" i; sym "v" i ]) in
           if Random.State.float rng 1.0 < dup_rate then
             base
             :: List.init (width - 1) (fun j -> ("R", [ sym "k" i; extra i j ]))
           else [ base ]))
  in
  {
    label =
      (if width = 2 then Printf.sprintf "fd n=%d dup=%.2f" n dup_rate
       else Printf.sprintf "fd n=%d dup=%.2f width=%d" n dup_rate width);
    d = Instance.of_list rows;
    ics = [ Ic.Builder.functional_dependency ~name:"fd" ~pred:"R" ~arity:2 ~lhs:[ 1 ] ~rhs:2 () ];
  }

let check_workload ?(seed = 42) ~n ~viol_rate ~null_rate () =
  let rng = Random.State.make [| seed |] in
  let rows =
    List.init n (fun i ->
        let salary =
          if Random.State.float rng 1.0 < null_rate then Value.null
          else if Random.State.float rng 1.0 < viol_rate then
            Value.int (Random.State.int rng 100)
          else Value.int (101 + Random.State.int rng 900)
        in
        ("Emp", [ Value.int i; maybe_null rng null_rate (sym "n" i); salary ]))
  in
  {
    label = Printf.sprintf "check n=%d viol=%.2f null=%.2f" n viol_rate null_rate;
    d = Instance.of_list rows;
    ics =
      [
        Ic.Builder.check ~name:"salary_pos"
          (atom "Emp" [ v "i"; v "n"; v "s" ])
          [ Ic.Builtin.cmp Ic.Builtin.Gt (Ic.Builtin.evar "s") (Ic.Builtin.eint 100) ];
      ];
  }

let chain_workload ?(seed = 42) ~n ~broken () =
  let rng = Random.State.make [| seed |] in
  ignore rng;
  let supported =
    List.concat
      (List.init (max 0 (n - broken)) (fun i ->
           [
             ("S", [ sym "a" i ]);
             ("Q", [ sym "a" i ]);
             ("R", [ sym "a" i ]);
             ("T", [ sym "a" i; sym "b" i ]);
           ]))
  in
  let dangling = List.init broken (fun i -> ("S", [ sym "x" i ])) in
  {
    label = Printf.sprintf "chain n=%d broken=%d" n broken;
    d = Instance.of_list (supported @ dangling);
    ics =
      [
        Ic.Constr.generic ~name:"ic1" ~ante:[ atom "S" [ v "x" ] ]
          ~cons:[ atom "Q" [ v "x" ] ] ();
        Ic.Constr.generic ~name:"ic2" ~ante:[ atom "Q" [ v "x" ] ]
          ~cons:[ atom "R" [ v "x" ] ] ();
        Ic.Constr.generic ~name:"ic3" ~ante:[ atom "Q" [ v "x" ] ]
          ~cons:[ atom "T" [ v "x"; v "y" ] ] ();
      ];
  }

let disjunctive_uic ~width =
  let cons = List.init width (fun j -> atom (Printf.sprintf "Q%d" (j + 1)) [ v "x" ]) in
  {
    label = Printf.sprintf "disjunctive width=%d" width;
    d = Instance.of_list [ ("P", [ Value.str "a" ]); ("P", [ Value.str "b" ]) ];
    ics = [ Ic.Constr.generic ~name:"wide" ~ante:[ atom "P" [ v "x" ] ] ~cons () ];
  }

let bilateral_loop ?(seed = 42) ~n () =
  let rng = Random.State.make [| seed |] in
  let rows =
    List.init n (fun i ->
        ("P", [ sym "a" i; sym "a" (Random.State.int rng n) ]))
  in
  {
    label = Printf.sprintf "bilateral n=%d" n;
    d = Instance.of_list rows;
    ics =
      [
        Ic.Constr.generic ~name:"sym"
          ~ante:[ atom "P" [ v "x"; v "y" ] ]
          ~cons:[ atom "P" [ v "y"; v "x" ] ]
          ();
      ];
  }

let clusters_workload ?(padding = 0) ?(weight = 1) ~k () =
  (* k independent conflict clusters over SHARED predicates, so no split
     by shared predicate can separate them but the tuple-level conflict
     graph can: cluster i is a bare S(a_i) violating
     S(x) -> exists y. R(x,y); repairing by insertion fires
     R(x,y) -> T(x) in cascade.  Each cluster has exactly two repairs
     (delete S(a_i), or insert R(a_i, null) and T(a_i)), so Rep(D, IC) has
     2^k elements while the per-component searches stay constant-size.
     [padding] adds fully supported S/R/T triples that end up in the
     untouched core (their S -> R potential violations exercise the
     support-atom machinery).

     [weight >= 2] makes each cluster's component search expensive instead
     of constant-size: cluster i becomes S(a_i), T(a_i) and [weight]
     FD-conflicting tuples R(a_i, c_0) .. R(a_i, c_{weight-1}) under the
     added FD R[1] -> R[2].  The minimal repairs keep exactly one of the
     conflicting R-tuples (deleting them all is dominated: it forces a
     second fix for S(a_i)), so each component has [weight] repairs and a
     search space exponential in [weight], while the components stay
     pairwise independent and the recombination exact — the knob the
     parallel speedup table E16 turns. *)
  let clusters =
    if weight <= 1 then List.init k (fun i -> [ ("S", [ sym "a" i ]) ])
    else
      List.init k (fun i ->
          ("S", [ sym "a" i ]) :: ("T", [ sym "a" i ])
          :: List.init weight (fun j -> ("R", [ sym "a" i; sym "c" j ])))
  in
  let clusters = List.concat clusters in
  let pad =
    List.concat
      (List.init padding (fun j ->
           [
             ("S", [ sym "p" j ]);
             ("R", [ sym "p" j; sym "b" j ]);
             ("T", [ sym "p" j ]);
           ]))
  in
  {
    label =
      (if weight <= 1 then Printf.sprintf "clusters k=%d padding=%d" k padding
       else
         Printf.sprintf "clusters k=%d padding=%d weight=%d" k padding weight);
    d = Instance.of_list (clusters @ pad);
    ics =
      [
        Ic.Constr.generic ~name:"s_r"
          ~ante:[ atom "S" [ v "x" ] ]
          ~cons:[ atom "R" [ v "x"; v "y" ] ]
          ();
        Ic.Constr.generic ~name:"r_t"
          ~ante:[ atom "R" [ v "x"; v "y" ] ]
          ~cons:[ atom "T" [ v "x" ] ]
          ();
      ]
      @
      if weight <= 1 then []
      else
        [
          Ic.Builder.functional_dependency ~name:"fd_r" ~pred:"R" ~arity:2
            ~lhs:[ 1 ] ~rhs:2 ();
        ];
  }

let random_case ?(seed = 42) () =
  (* Small random schema, instance and constraint set for differential
     tests (decomposed vs monolithic repairs and CQA).  Kept tiny so the
     exhaustive searches finish instantly even over ~10^3 cases. *)
  let rng = Random.State.make [| seed; 0x5eed |] in
  let pool = [| Value.str "a"; Value.str "b"; Value.str "c"; Value.null |] in
  let pick () = pool.(Random.State.int rng (Array.length pool)) in
  let tuples pred arity =
    List.init
      (Random.State.int rng 4)
      (fun _ -> (pred, List.init arity (fun _ -> pick ())))
  in
  let d =
    Instance.of_list
      (tuples "P" 1 @ tuples "Q" 1 @ tuples "R" 2 @ tuples "S" 1)
  in
  let menu =
    [|
      (fun () ->
        Ic.Constr.generic ~name:"p_q"
          ~ante:[ atom "P" [ v "x" ] ]
          ~cons:[ atom "Q" [ v "x" ] ]
          ());
      (fun () ->
        Ic.Constr.generic ~name:"p_r"
          ~ante:[ atom "P" [ v "x" ] ]
          ~cons:[ atom "R" [ v "x"; v "y" ] ]
          ());
      (fun () ->
        Ic.Constr.generic ~name:"r_s"
          ~ante:[ atom "R" [ v "x"; v "y" ] ]
          ~cons:[ atom "S" [ v "x" ] ]
          ());
      (fun () ->
        Ic.Builder.functional_dependency ~name:"fd_r" ~pred:"R" ~arity:2
          ~lhs:[ 1 ] ~rhs:2 ());
      (fun () -> Ic.Constr.not_null ~name:"nn_r2" ~pred:"R" ~arity:2 ~pos:2 ());
      (fun () -> Ic.Constr.not_null ~name:"nn_p1" ~pred:"P" ~arity:1 ~pos:1 ());
      (fun () ->
        Ic.Builder.denial ~name:"no_ps" [ atom "P" [ v "x" ]; atom "S" [ v "x" ] ]);
      (fun () ->
        Ic.Constr.generic ~name:"q_p"
          ~ante:[ atom "Q" [ v "x" ] ]
          ~cons:[ atom "P" [ v "x" ] ]
          ());
    |]
  in
  let n_ics = 1 + Random.State.int rng 3 in
  let ics =
    List.init n_ics (fun _ -> menu.(Random.State.int rng (Array.length menu)) ())
  in
  (* deduplicate by label so the constraint list is a set *)
  let ics =
    List.fold_left
      (fun acc ic ->
        if List.exists (fun ic' -> Ic.Constr.label ic' = Ic.Constr.label ic) acc
        then acc
        else ic :: acc)
      [] ics
    |> List.rev
  in
  { label = Printf.sprintf "random seed=%d" seed; d; ics }

let route_case ?(seed = 42) () =
  (* Like {!random_case}, but the constraint menu is stratified to exercise
     every routing tier: FDs, denials and NNCs (Direct candidates), UICs
     and a RIC (Shifted), a bilateral UIC pair (Disjunctive) and a
     general-existential constraint (Enumerated). *)
  let rng = Random.State.make [| seed; 0x40e |] in
  let pool = [| Value.str "a"; Value.str "b"; Value.str "c"; Value.null |] in
  let pick () = pool.(Random.State.int rng (Array.length pool)) in
  let tuples pred arity =
    List.init
      (Random.State.int rng 4)
      (fun _ -> (pred, List.init arity (fun _ -> pick ())))
  in
  let d =
    Instance.of_list
      (tuples "P" 1 @ tuples "Q" 1 @ tuples "R" 2 @ tuples "S" 1)
  in
  let menu =
    [|
      (fun () ->
        Ic.Builder.functional_dependency ~name:"fd_r" ~pred:"R" ~arity:2
          ~lhs:[ 1 ] ~rhs:2 ());
      (fun () ->
        Ic.Builder.denial ~name:"no_ps" [ atom "P" [ v "x" ]; atom "S" [ v "x" ] ]);
      (fun () ->
        Ic.Builder.denial ~name:"no_sym"
          [ atom "R" [ v "x"; v "y" ]; atom "R" [ v "y"; v "x" ] ]);
      (fun () -> Ic.Constr.not_null ~name:"nn_r2" ~pred:"R" ~arity:2 ~pos:2 ());
      (fun () -> Ic.Constr.not_null ~name:"nn_p1" ~pred:"P" ~arity:1 ~pos:1 ());
      (fun () ->
        Ic.Constr.generic ~name:"p_q"
          ~ante:[ atom "P" [ v "x" ] ]
          ~cons:[ atom "Q" [ v "x" ] ]
          ());
      (fun () ->
        Ic.Constr.generic ~name:"q_p"
          ~ante:[ atom "Q" [ v "x" ] ]
          ~cons:[ atom "P" [ v "x" ] ]
          ());
      (fun () ->
        Ic.Constr.generic ~name:"p_r"
          ~ante:[ atom "P" [ v "x" ] ]
          ~cons:[ atom "R" [ v "x"; v "y" ] ]
          ());
      (fun () ->
        Ic.Constr.generic ~name:"pq_r"
          ~ante:[ atom "P" [ v "x" ]; atom "Q" [ v "x" ] ]
          ~cons:[ atom "R" [ v "x"; v "y" ] ]
          ());
    |]
  in
  let n_ics = 1 + Random.State.int rng 3 in
  let ics =
    List.init n_ics (fun _ -> menu.(Random.State.int rng (Array.length menu)) ())
  in
  let ics =
    List.fold_left
      (fun acc ic ->
        if List.exists (fun ic' -> Ic.Constr.label ic' = Ic.Constr.label ic) acc
        then acc
        else ic :: acc)
      [] ics
    |> List.rev
  in
  { label = Printf.sprintf "route seed=%d" seed; d; ics }

let denial_workload ?(seed = 42) ~n ~viol_rate () =
  let rng = Random.State.make [| seed |] in
  let rows =
    List.concat
      (List.init n (fun i ->
           let j = Random.State.int rng n in
           let base = ("P", [ sym "a" i; sym "a" j ]) in
           if Random.State.float rng 1.0 < viol_rate then
             [ base; ("P", [ sym "a" j; sym "a" i ]) ]
           else [ base ]))
  in
  {
    label = Printf.sprintf "denial n=%d viol=%.2f" n viol_rate;
    d = Instance.of_list rows;
    ics =
      [
        Ic.Builder.denial ~name:"no_sym"
          [ atom "P" [ v "x"; v "y" ]; atom "P" [ v "y"; v "x" ] ];
      ];
  }

let scale_workload ?(seed = 42) ?(tuples = 100_000) ?(null_rate = 0.01)
    ?(fd_conflicts = 4) ?(orphans = 4) () =
  let rng = Random.State.make [| seed; tuples |] in
  (* integer ids intern densely; owners draw from a bounded pool so the FD
     key side dominates the symbol table, as real dimension tables do *)
  let conflicts = min fd_conflicts (max 0 (tuples - 2)) in
  let base = max 2 (tuples - conflicts) in
  let n_parent = max 1 (base * 2 / 5) in
  let n_child = base - n_parent in
  let owners = max 2 (n_parent / 16) in
  let parents =
    List.init n_parent (fun i ->
        let owner =
          maybe_null rng null_rate (Value.str (Printf.sprintf "o%d" (i mod owners)))
        in
        ("R", [ Value.int i; owner ]))
  in
  let conflict_rows =
    (* duplicate an existing key with a fresh owner: one FD 2-clique each *)
    List.init conflicts (fun j ->
        let key = Random.State.int rng (max 1 n_parent) in
        ("R", [ Value.int key; Value.str (Printf.sprintf "dup%d" j) ]))
  in
  let n_orphans = min orphans n_child in
  let children =
    List.init n_child (fun i ->
        let target =
          if i < n_orphans then Value.int (n_parent + 1 + i)
          else
            maybe_null rng null_rate
              (Value.int (Random.State.int rng (max 1 n_parent)))
        in
        ("S", [ Value.int (1_000_000_000 + i); target ]))
  in
  {
    label =
      Printf.sprintf "scale n=%d null=%.3f conflicts=%d orphans=%d" tuples
        null_rate conflicts n_orphans;
    d = Instance.of_list (parents @ conflict_rows @ children);
    ics =
      Ic.Builder.key ~name_prefix:"key_r" ~pred:"R" ~arity:2 ~key:[ 1 ] ()
      @ [
          Ic.Builder.foreign_key ~name:"fk" ~child:"S" ~child_arity:2
            ~child_cols:[ 2 ] ~parent:"R" ~parent_arity:2 ~parent_cols:[ 1 ] ();
          Ic.Constr.not_null ~name:"nn_r1" ~pred:"R" ~arity:2 ~pos:1 ();
        ];
  }
