(* Generated scenario families.  Every case below is emitted by a
   parameterized generator that also derives the expectations in closed
   form (repair counts from the per-conflict choice structure,
   certain/possible sets from which tuples survive every/some repair), so
   the engines are cross-checked against combinatorics computed
   independently of any engine code path. *)

let vs = Relational.Value.str

let expect ?consistent_db ?repairs ?repd ?certain ?possible () =
  {
    Case.consistent_db;
    repairs;
    repd;
    certain = Option.map Case.pin_rows certain;
    possible = Option.map Case.pin_rows possible;
  }

let pow base e =
  let rec go acc e = if e <= 0 then acc else go (acc * base) (e - 1) in
  go 1 e

let lines l = String.concat "\n" (List.filter (fun s -> s <> "") l) ^ "\n"
let tag p i = Printf.sprintf "%s%d" p i

(* ------------------------------------------------------------------ *)
(* fk_chain: P <- C <- G binary foreign keys.  An orphan child C(x, miss)
   repairs by deletion or by inserting P(miss, null) (|=_N-vacuous); an
   orphan grandchild G(x, cmiss) by deletion or by inserting
   C(cmiss, null), itself vacuous for the upper FK.  Choices are
   independent: 2^(oc + og) repairs. *)

let fk_chain ~name ~parents ~children ~orphan_children ~orphan_grandchildren
    () =
  let p = List.init parents (fun i -> Printf.sprintf "P(%s, %s)." (tag "p" i) (tag "d" i)) in
  let c =
    List.init children (fun i ->
        Printf.sprintf "C(%s, %s)." (tag "c" i) (tag "p" (i mod parents)))
  in
  let g =
    List.init children (fun i ->
        Printf.sprintf "G(%s, %s)." (tag "g" i) (tag "c" (i mod children)))
  in
  let oc =
    List.init orphan_children (fun i ->
        Printf.sprintf "C(%s, %s)." (tag "cx" i) (tag "miss" i))
  in
  let og =
    List.init orphan_grandchildren (fun i ->
        Printf.sprintf "G(%s, %s)." (tag "gx" i) (tag "cmiss" i))
  in
  let source =
    lines
      ([
         "relation P(k, d).";
         "relation C(k, p).";
         "relation G(k, c).";
       ]
      @ p @ c @ g @ oc @ og
      @ [
          "constraint fk_c: C(X, Y) -> P(Y, D).";
          "constraint fk_g: G(X, Y) -> C(Y, D).";
          "query children(X): exists Y. C(X, Y).";
        ])
  in
  let base = List.init children (fun i -> [ vs (tag "c" i) ]) in
  let orphaned = List.init orphan_children (fun i -> [ vs (tag "cx" i) ]) in
  let inserted =
    List.init orphan_grandchildren (fun i -> [ vs (tag "cmiss" i) ])
  in
  Case.make ~family:"fk_chain" ~query:"children"
    ~doc:
      (Printf.sprintf
         "FK chain P<-C<-G: %d parent(s), %d chain(s), %d orphan child(ren), \
          %d orphan grandchild(ren)"
         parents children orphan_children orphan_grandchildren)
    ~expect:
      (expect
         ~consistent_db:(orphan_children + orphan_grandchildren = 0)
         ~repairs:(pow 2 (orphan_children + orphan_grandchildren))
         ~certain:base
         ~possible:(base @ orphaned @ inserted)
         ())
    name source

(* ------------------------------------------------------------------ *)
(* fd_cluster: [conflicts] key clusters of [width] FD-conflicting rows;
   every repair keeps exactly one row per cluster: width^conflicts. *)

let fd_cluster ~name ~rows ~conflicts ~width () =
  let base =
    List.init rows (fun i ->
        Printf.sprintf "R(%s, %s)." (tag "k" i) (tag "v" i))
  in
  let dups =
    List.concat
      (List.init conflicts (fun i ->
           List.init (width - 1) (fun j ->
               Printf.sprintf "R(%s, w%d_%d)." (tag "k" i) j i)))
  in
  let source =
    lines
      ([ "relation R(k, a)." ] @ base @ dups
      @ [
          "constraint fd: R(K, A), R(K, B) -> A = B.";
          "query vals(K, A): R(K, A).";
        ])
  in
  let clean =
    List.init (rows - conflicts) (fun i ->
        let i = i + conflicts in
        [ vs (tag "k" i); vs (tag "v" i) ])
  in
  let conflicted =
    List.concat
      (List.init conflicts (fun i ->
           [ vs (tag "k" i); vs (tag "v" i) ]
           :: List.init (width - 1) (fun j ->
                  [ vs (tag "k" i); vs (Printf.sprintf "w%d_%d" j i) ])))
  in
  Case.make ~family:"fd_cluster" ~query:"vals"
    ~doc:
      (Printf.sprintf "FD clusters: %d row(s), %d conflict(s) of width %d"
         rows conflicts width)
    ~expect:
      (expect ~consistent_db:(conflicts = 0)
         ~repairs:(pow width conflicts) ~certain:clean
         ~possible:(clean @ conflicted) ())
    name source

(* ------------------------------------------------------------------ *)
(* cyclic_ric: the RIC cycle A -> B -> C -> A.  A dangling A(d) repairs
   by deletion or by the insertion cascade B(d), C(d) (closing the cycle
   back on the present A(d)): 2^dangling. *)

let cyclic_ric ~name ~complete ~dangling () =
  let triples =
    List.concat
      (List.init complete (fun i ->
           [
             Printf.sprintf "A(%s)." (tag "a" i);
             Printf.sprintf "B(%s)." (tag "a" i);
             Printf.sprintf "C(%s)." (tag "a" i);
           ]))
  in
  let loose = List.init dangling (fun i -> Printf.sprintf "A(%s)." (tag "d" i)) in
  let source =
    lines
      ([ "relation A(x)."; "relation B(x)."; "relation C(x)." ]
      @ triples @ loose
      @ [
          "constraint ab: A(X) -> B(X).";
          "constraint bc: B(X) -> C(X).";
          "constraint ca: C(X) -> A(X).";
          "query members(X): A(X).";
        ])
  in
  let base = List.init complete (fun i -> [ vs (tag "a" i) ]) in
  let extra = List.init dangling (fun i -> [ vs (tag "d" i) ]) in
  Case.make ~family:"cyclic_ric" ~query:"members"
    ~doc:
      (Printf.sprintf "cyclic RICs A->B->C->A: %d closed, %d dangling"
         complete dangling)
    ~expect:
      (expect ~consistent_db:(dangling = 0) ~repairs:(pow 2 dangling)
         ~certain:base ~possible:(base @ extra) ())
    name source

(* ------------------------------------------------------------------ *)
(* nnc_ric: the Example 20 conflict shape — the NNC sits on the RIC's
   existentially quantified attribute, so the constraint set fails the
   non-conflicting Assumption of Section 4.  Here the two repair classes
   genuinely differ, and the family pins both:

   - [Rep(D, IC)] recovers the arbitrary-constant repairs of reference
     [2]: an unassigned employee keeps Emp(u) by inserting Dept(u, c) for
     ANY constant c of the active domain (null is blocked by the NNC, but
     each constant fill is <=_D-incomparable with the deletion), giving a
     (|dom| + 1)-way choice per unassigned employee.  An unaudited
     assignment stays a two-way choice (insert the audit row, or delete
     the assignment and cascade the employee; re-pointing the assignment
     is beaten by the bare audit insertion):
     (|dom| + 1)^unassigned * 2^unaudited repairs, with the unassigned
     employees possible (not certain) answers.
   - [Rep_d(D, IC)] discards the constant fills in favour of deletion:
     2^unaudited repairs, and unassigned employees are not even possible.

   The program tier implements the null-padded program of Definition 9,
   which is sound only under the Assumption, so the runner skips it for
   this family (see {!Runner.tiers_for}). *)

let nnc_ric ~name ~staff ~unassigned ~unaudited () =
  let ok =
    List.concat
      (List.init staff (fun i ->
           [
             Printf.sprintf "Emp(%s)." (tag "s" i);
             Printf.sprintf "Dept(%s, %s)." (tag "s" i) (tag "dep" i);
             Printf.sprintf "Audit(%s)." (tag "s" i);
           ]))
  in
  let loose = List.init unassigned (fun i -> Printf.sprintf "Emp(%s)." (tag "u" i)) in
  let gaps =
    List.concat
      (List.init unaudited (fun i ->
           [
             Printf.sprintf "Emp(%s)." (tag "w" i);
             Printf.sprintf "Dept(%s, %s)." (tag "w" i) (tag "dw" i);
           ]))
  in
  let source =
    lines
      ([ "relation Emp(e)."; "relation Dept(e, d)."; "relation Audit(e)." ]
      @ ok @ loose @ gaps
      @ [
          "constraint ric: Emp(X) -> Dept(X, Y).";
          "constraint uic: Dept(X, Y) -> Audit(X).";
          "not_null Dept[2].";
          "query staff(X): Emp(X).";
        ])
  in
  let base = List.init staff (fun i -> [ vs (tag "s" i) ]) in
  let loose_rows = List.init unassigned (fun i -> [ vs (tag "u" i) ]) in
  let audited_gaps = List.init unaudited (fun i -> [ vs (tag "w" i) ]) in
  (* active domain: s_i and dep_i per staff, u_i, w_i and dw_i per gap *)
  let dom = (2 * staff) + unassigned + (2 * unaudited) in
  Case.make ~family:"nnc_ric" ~query:"staff"
    ~doc:
      (Printf.sprintf
         "NNC/RIC conflicts: %d staff, %d unassigned (constant fills vs \
          deletion), %d unaudited (two-way)"
         staff unassigned unaudited)
    ~expect:
      (expect
         ~consistent_db:(unassigned + unaudited = 0)
         ~repairs:(pow (dom + 1) unassigned * pow 2 unaudited)
         ~repd:(pow 2 unaudited) ~certain:base
         ~possible:(base @ loose_rows @ audited_gaps)
         ())
    name source

(* ------------------------------------------------------------------ *)
(* session_stream: a consistent base plus an insert/delete stream — the
   update-statement replay is the point (the session and serve tiers
   apply it through the incremental engine).  Each dangling insert and
   each revoked support is an independent two-way violation. *)

let session_stream ~name ~base ~added ~dangling ~revoked () =
  let start =
    List.concat
      (List.init base (fun i ->
           [
             Printf.sprintf "P(%s)." (tag "b" i);
             Printf.sprintf "Q(%s)." (tag "b" i);
           ]))
  in
  let stream =
    List.concat
      (List.init added (fun i ->
           [
             Printf.sprintf "insert P(%s)." (tag "n" i);
             Printf.sprintf "insert Q(%s)." (tag "n" i);
           ]))
    @ List.init dangling (fun i -> Printf.sprintf "insert P(%s)." (tag "x" i))
    @ List.init revoked (fun i -> Printf.sprintf "delete Q(%s)." (tag "b" i))
  in
  let source =
    lines
      ([ "relation P(x)."; "relation Q(x)." ]
      @ start
      @ [ "constraint pq: P(X) -> Q(X)."; "query members(X): P(X)." ]
      @ stream)
  in
  let kept =
    List.init (base - revoked) (fun i -> [ vs (tag "b" (i + revoked)) ])
    @ List.init added (fun i -> [ vs (tag "n" i) ])
  in
  let contested =
    List.init revoked (fun i -> [ vs (tag "b" i) ])
    @ List.init dangling (fun i -> [ vs (tag "x" i) ])
  in
  Case.make ~family:"session_stream" ~query:"members"
    ~doc:
      (Printf.sprintf
         "update stream: %d base pair(s), %d added, %d dangling insert(s), \
          %d revoked support(s)"
         base added dangling revoked)
    ~expect:
      (expect
         ~consistent_db:(dangling + revoked = 0)
         ~repairs:(pow 2 (dangling + revoked))
         ~certain:kept
         ~possible:(kept @ contested) ())
    name source

(* ------------------------------------------------------------------ *)

let families =
  [
    ( "fk_chain",
      [
        fk_chain ~name:"fk_chain_clean" ~parents:2 ~children:3
          ~orphan_children:0 ~orphan_grandchildren:0 ();
        fk_chain ~name:"fk_chain_orphans" ~parents:2 ~children:3
          ~orphan_children:2 ~orphan_grandchildren:1 ();
        fk_chain ~name:"fk_chain_deep" ~parents:1 ~children:2
          ~orphan_children:1 ~orphan_grandchildren:2 ();
      ] );
    ( "fd_cluster",
      [
        fd_cluster ~name:"fd_cluster_single" ~rows:3 ~conflicts:1 ~width:2 ();
        fd_cluster ~name:"fd_cluster_pair" ~rows:4 ~conflicts:2 ~width:2 ();
        fd_cluster ~name:"fd_cluster_wide" ~rows:3 ~conflicts:2 ~width:3 ();
      ] );
    ( "cyclic_ric",
      [
        cyclic_ric ~name:"cyclic_ric_clean" ~complete:2 ~dangling:0 ();
        cyclic_ric ~name:"cyclic_ric_dangling" ~complete:2 ~dangling:2 ();
        cyclic_ric ~name:"cyclic_ric_deep" ~complete:1 ~dangling:3 ();
      ] );
    ( "nnc_ric",
      [
        nnc_ric ~name:"nnc_ric_forced" ~staff:1 ~unassigned:2 ~unaudited:0 ();
        nnc_ric ~name:"nnc_ric_mixed" ~staff:1 ~unassigned:1 ~unaudited:2 ();
        nnc_ric ~name:"nnc_ric_audit" ~staff:2 ~unassigned:0 ~unaudited:3 ();
      ] );
    ( "session_stream",
      [
        session_stream ~name:"session_stream_clean" ~base:2 ~added:1
          ~dangling:0 ~revoked:0 ();
        session_stream ~name:"session_stream_churn" ~base:2 ~added:1
          ~dangling:1 ~revoked:1 ();
        session_stream ~name:"session_stream_revoke" ~base:3 ~added:0
          ~dangling:0 ~revoked:2 ();
      ] );
  ]

let all = List.concat_map snd families

let ensure_dir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

let write_corpus dir =
  ensure_dir dir;
  List.concat_map
    (fun (family, cases) ->
      let fdir = Filename.concat dir family in
      ensure_dir fdir;
      List.map
        (fun (c : Case.t) ->
          let path = Filename.concat fdir (c.Case.name ^ ".cqa") in
          Out_channel.with_open_text path (fun oc ->
              output_string oc (Printf.sprintf "%% %s\n" c.Case.doc);
              output_string oc c.Case.source);
          path)
        cases)
    families
