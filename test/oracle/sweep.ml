(* The sweep-based reference search: a chronological DPLL with no
   learning and no occurrence index, kept as the differential-testing
   oracle of [Asp.Solver.stable_models] (test_cdcl and test_asp assert
   model-set equality against it) and as the chronological baseline of
   the E4 and E21 bench tables.  It branches on the first unassigned atom
   of the first unsatisfied rule and tries false before true.  Unit
   propagation re-scans the whole rule array to fixpoint after every
   assignment; support propagation re-filters every true atom's supporter
   list.  [rules_touched] counts those per-rule visits; [queue_pushes] and
   the CDCL counters stay 0.  Every total model is verified stable by
   [Asp.Solver.is_stable_model], which counts the minimality checks.
   Same result as [Asp.Solver.stable_models]: the models as sorted lists
   of atom ids, [limit] capping how many, and more than
   [Budget.search_decisions] decisions raising [Budget.Exhausted]. *)

open Asp

let unk = 0
let tru = 1
let fls = 2

let stable_models ?limit ?stats g =
  let stats = match stats with Some s -> s | None -> Solver.new_stats () in
  let rules = Ground.rules g in
  let n = Ground.atom_count g in
  let value = Array.make n unk in
  (* supporting rules per atom: a stable model cannot hold an atom whose
     every head-rule has a classically false body *)
  let supporters = Array.make n [] in
  Array.iter
    (fun (r : Ground.grule) ->
      Array.iter (fun h -> supporters.(h) <- r :: supporters.(h)) r.Ground.ghead)
    rules;
  (* atoms in no head are false in every stable model *)
  for i = 0 to n - 1 do
    if supporters.(i) = [] then value.(i) <- fls
  done;
  let trail = ref [] in
  let assign i v =
    value.(i) <- v;
    trail := i :: !trail;
    stats.Solver.propagations <- stats.Solver.propagations + 1
  in
  let undo_to mark =
    let rec go () =
      if !trail != mark then
        match !trail with
        | [] -> ()
        | i :: rest ->
            value.(i) <- unk;
            trail := rest;
            go ()
    in
    go ()
  in
  let exception Conflict in
  let exception Done in
  let models = ref [] in
  let count = ref 0 in
  let rule_satisfied (r : Ground.grule) =
    Array.exists (fun h -> value.(h) = tru) r.Ground.ghead
    || Array.exists (fun p -> value.(p) = fls) r.Ground.gpos
    || Array.exists (fun x -> value.(x) = tru) r.Ground.gneg
  in
  let propagate_once () =
    let progress = ref false in
    Array.iter
      (fun (r : Ground.grule) ->
        stats.Solver.rules_touched <- stats.Solver.rules_touched + 1;
        if not (rule_satisfied r) then begin
          let unassigned = ref [] in
          let note kind i = unassigned := (kind, i) :: !unassigned in
          Array.iter (fun h -> if value.(h) = unk then note `T h) r.Ground.ghead;
          Array.iter (fun p -> if value.(p) = unk then note `F p) r.Ground.gpos;
          Array.iter (fun x -> if value.(x) = unk then note `T x) r.Ground.gneg;
          match !unassigned with
          | [] -> raise Conflict
          | [ (`T, i) ] ->
              assign i tru;
              progress := true
          | [ (`F, i) ] ->
              assign i fls;
              progress := true
          | _ -> ()
        end)
      rules;
    !progress
  in
  (* support propagation: for every true atom, some rule with it in the
     head must keep a body that can still become classically true; when a
     single such rule remains, its body is forced.  (Sound for stable
     models: if every supporter of a true atom had a false body, removing
     the atom would still model the reduct, contradicting minimality.) *)
  let body_false (r : Ground.grule) =
    Array.exists (fun p -> value.(p) = fls) r.Ground.gpos
    || Array.exists (fun x -> value.(x) = tru) r.Ground.gneg
  in
  let support_once () =
    let progress = ref false in
    for i = 0 to n - 1 do
      if value.(i) = tru then begin
        stats.Solver.rules_touched <-
          stats.Solver.rules_touched + List.length supporters.(i);
        match List.filter (fun r -> not (body_false r)) supporters.(i) with
        | [] -> raise Conflict
        | [ r ] ->
            Array.iter
              (fun p ->
                if value.(p) = unk then begin
                  assign p tru;
                  progress := true
                end)
              r.Ground.gpos;
            Array.iter
              (fun x ->
                if value.(x) = unk then begin
                  assign x fls;
                  progress := true
                end)
              r.Ground.gneg
        | _ -> ()
      end
    done;
    !progress
  in
  let propagate () =
    let continue_ = ref true in
    while !continue_ do
      let a = propagate_once () in
      let b = support_once () in
      continue_ := a || b
    done
  in
  let pick_branch () =
    let cand = ref None in
    (try
       Array.iter
         (fun (r : Ground.grule) ->
           if (not (rule_satisfied r)) && !cand = None then begin
             Array.iter
               (fun h -> if !cand = None && value.(h) = unk then cand := Some h)
               r.Ground.ghead;
             Array.iter
               (fun p -> if !cand = None && value.(p) = unk then cand := Some p)
               r.Ground.gpos;
             Array.iter
               (fun x -> if !cand = None && value.(x) = unk then cand := Some x)
               r.Ground.gneg;
             if !cand <> None then raise Exit
           end)
         rules
     with Exit -> ());
    !cand
  in
  let record_candidate () =
    stats.Solver.candidates <- stats.Solver.candidates + 1;
    let m = ref [] in
    for i = n - 1 downto 0 do
      if value.(i) = tru then m := i :: !m
    done;
    let m = !m in
    if Solver.is_stable_model ~stats g m then begin
      models := m :: !models;
      incr count;
      match limit with Some l when !count >= l -> raise Done | _ -> ()
    end
  in
  let rec search () =
    let mark = !trail in
    (try
       propagate ();
       match pick_branch () with
       | None -> record_candidate ()
       | Some i ->
           stats.Solver.decisions <- stats.Solver.decisions + 1;
           Budget.check_search_decisions stats.Solver.decisions;
           let mark2 = !trail in
           assign i fls;
           search ();
           undo_to mark2;
           assign i tru;
           search ();
           undo_to mark2
     with Conflict -> ());
    undo_to mark
  in
  (* [~limit:0] (or less) asks for no model: answered without searching *)
  (match limit with
  | Some l when l <= 0 -> ()
  | _ -> ( try search () with Done -> ()));
  (* deterministic order: sort models *)
  List.sort (List.compare Int.compare) !models
