type stats = {
  mutable decisions : int;
  mutable propagations : int;
  mutable candidates : int;
  mutable minimality_checks : int;
  mutable queue_pushes : int;
  mutable rules_touched : int;
  mutable conflicts : int;
  mutable learned : int;
  mutable restarts : int;
  mutable backjump_len : int;
  mutable phase_saved : int;
}

let new_stats () =
  { decisions = 0; propagations = 0; candidates = 0; minimality_checks = 0;
    queue_pushes = 0; rules_touched = 0; conflicts = 0; learned = 0;
    restarts = 0; backjump_len = 0; phase_saved = 0 }

let pp_stats ppf s =
  Fmt.pf ppf
    "decisions=%d propagations=%d candidates=%d minimality_checks=%d \
     queue_pushes=%d rules_touched=%d"
    s.decisions s.propagations s.candidates s.minimality_checks s.queue_pushes
    s.rules_touched

let pp_search_stats ppf s =
  Fmt.pf ppf "conflicts=%d learned=%d restarts=%d backjump_len=%d phase_saved=%d"
    s.conflicts s.learned s.restarts s.backjump_len s.phase_saved

(* Assignment values *)
let unk = 0
let tru = 1
let fls = 2

module Iset = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Gelfond-Lifschitz reduct and stability checking.

   Membership in the candidate M is tested through a dense bool array
   rather than a balanced set — every hot path below probes it per literal
   occurrence. *)

let reduct rules in_m =
  rules
  |> Array.to_list
  |> List.filter_map (fun (r : Ground.grule) ->
         if Array.exists (fun x -> in_m.(x)) r.Ground.gneg then None
         else Some (r.Ground.ghead, r.Ground.gpos))

(* Least model of the definite part of a positive reduct, by
   Dowling-Gallier counting: each rule keeps the number of its not yet
   derived positive occurrences, and deriving an atom decrements the
   counter of every rule occurrence of that atom; a rule fires when its
   counter hits zero.  Empty heads are constraints and must have
   unsatisfied bodies (M classically satisfies them, and we only accept
   when the least model equals M).  Derivation of any atom outside M
   refutes equality immediately. *)
let normal_reduct_stable ~n reduct_rules in_m m_size =
  let rules_arr = Array.of_list reduct_rules in
  let nr = Array.length rules_arr in
  let remaining = Array.make nr 0 in
  let pocc = Array.make n [] in
  Array.iteri
    (fun ri (_, pos) ->
      remaining.(ri) <- Array.length pos;
      Array.iter (fun p -> pocc.(p) <- ri :: pocc.(p)) pos)
    rules_arr;
  let derived = Array.make n false in
  let count = ref 0 in
  let inside = ref true in
  let q = Queue.create () in
  let derive h =
    if not derived.(h) then begin
      derived.(h) <- true;
      if in_m.(h) then incr count else inside := false;
      List.iter
        (fun ri ->
          remaining.(ri) <- remaining.(ri) - 1;
          if remaining.(ri) = 0 then Queue.add ri q)
        pocc.(h)
    end
  in
  Array.iteri (fun ri _ -> if remaining.(ri) = 0 then Queue.add ri q) rules_arr;
  while !inside && not (Queue.is_empty q) do
    let ri = Queue.pop q in
    match fst rules_arr.(ri) with [| h |] -> derive h | _ -> ()
  done;
  !inside && !count = m_size

(* Search for a model of the positive reduct properly contained in M.
   Clauses range over the atoms of M only: a reduct rule with some positive
   body atom outside M is vacuously satisfied by any M' ⊆ M, and head atoms
   outside M are false in any such M'.

   The sub-search is a chronological DPLL over occurrence counters:
   per-clause (#true-head, #unassigned-head, #false-pos, #unassigned-pos)
   counters, occurrence lists over the local atom indexes, a worklist of
   clauses to re-examine, and a satisfied-clause count so the "all clauses
   satisfied" test is O(1). *)
let exists_smaller_model ?stats ~n reduct_rules in_m m_list =
  (match stats with
  | Some s -> s.minimality_checks <- s.minimality_checks + 1
  | None -> ());
  let atoms = Array.of_list m_list in
  let nm = Array.length atoms in
  let local = Array.make n (-1) in
  Array.iteri (fun i x -> local.(x) <- i) atoms;
  let clauses =
    List.filter_map
      (fun (head, pos) ->
        if Array.for_all (fun p -> in_m.(p)) pos then
          let head_in =
            Array.to_list head
            |> List.filter_map (fun h -> if in_m.(h) then Some local.(h) else None)
            |> Array.of_list
          in
          let pos_in = Array.map (fun p -> local.(p)) pos in
          (* clause: one of head_in true, or one of pos_in false *)
          Some (head_in, pos_in)
        else None)
      reduct_rules
    |> Array.of_list
  in
  let nc = Array.length clauses in
  let head_true = Array.make nc 0 in
  let head_unk = Array.make nc 0 in
  let pos_false = Array.make nc 0 in
  let pos_unk = Array.make nc 0 in
  let hocc = Array.make nm [] in
  let pocc = Array.make nm [] in
  Array.iteri
    (fun c (head, pos) ->
      head_unk.(c) <- Array.length head;
      pos_unk.(c) <- Array.length pos;
      Array.iter (fun h -> hocc.(h) <- c :: hocc.(h)) head;
      Array.iter (fun p -> pocc.(p) <- c :: pocc.(p)) pos)
    clauses;
  let satisfied c = head_true.(c) > 0 || pos_false.(c) > 0 in
  let n_sat = ref 0 in
  let n_true = ref 0 in
  let value = Array.make nm unk in
  let q = Queue.create () in
  let inq = Array.make nc false in
  let push c =
    if (not inq.(c)) && not (satisfied c) then begin
      inq.(c) <- true;
      Queue.add c q
    end
  in
  let clear_queue () =
    Queue.iter (fun c -> inq.(c) <- false) q;
    Queue.clear q
  in
  let trail = ref [] in
  let assign i v =
    value.(i) <- v;
    trail := i :: !trail;
    if v = tru then incr n_true;
    List.iter
      (fun c ->
        let was = satisfied c in
        head_unk.(c) <- head_unk.(c) - 1;
        if v = tru then head_true.(c) <- head_true.(c) + 1;
        if (not was) && satisfied c then incr n_sat;
        push c)
      hocc.(i);
    List.iter
      (fun c ->
        let was = satisfied c in
        pos_unk.(c) <- pos_unk.(c) - 1;
        if v = fls then pos_false.(c) <- pos_false.(c) + 1;
        if (not was) && satisfied c then incr n_sat;
        push c)
      pocc.(i)
  in
  let unassign i =
    let v = value.(i) in
    value.(i) <- unk;
    if v = tru then decr n_true;
    List.iter
      (fun c ->
        let was = satisfied c in
        head_unk.(c) <- head_unk.(c) + 1;
        if v = tru then head_true.(c) <- head_true.(c) - 1;
        if was && not (satisfied c) then decr n_sat)
      hocc.(i);
    List.iter
      (fun c ->
        let was = satisfied c in
        pos_unk.(c) <- pos_unk.(c) + 1;
        if v = fls then pos_false.(c) <- pos_false.(c) - 1;
        if was && not (satisfied c) then decr n_sat)
      pocc.(i)
  in
  let undo_to mark =
    let rec go () =
      if !trail != mark then
        match !trail with
        | [] -> ()
        | i :: rest ->
            trail := rest;
            unassign i;
            go ()
    in
    go ()
  in
  let exception Conflict in
  let exception Found in
  let process c =
    inq.(c) <- false;
    if not (satisfied c) then
      match head_unk.(c) + pos_unk.(c) with
      | 0 -> raise Conflict
      | 1 ->
          let head, pos = clauses.(c) in
          if head_unk.(c) > 0 then
            Array.iter (fun h -> if value.(h) = unk then assign h tru) head
          else Array.iter (fun p -> if value.(p) = unk then assign p fls) pos
      | _ -> ()
  in
  let propagate () = while not (Queue.is_empty q) do process (Queue.pop q) done in
  let pick_branch () =
    let res = ref None in
    (try
       for c = 0 to nc - 1 do
         if not (satisfied c) then begin
           let head, pos = clauses.(c) in
           Array.iter (fun h -> if !res = None && value.(h) = unk then res := Some h) head;
           Array.iter (fun p -> if !res = None && value.(p) = unk then res := Some p) pos;
           if !res <> None then raise Exit
         end
       done
     with Exit -> ());
    !res
  in
  let rec search () =
    let mark = !trail in
    (try
       propagate ();
       if !n_sat = nc then begin
         (* with unassigned atoms completed to false: proper subset iff
            some atom is false or unassigned *)
         if !n_true < nm then raise Found
       end
       else begin
         match pick_branch () with
         | None -> ()
         | Some i ->
             let mark2 = !trail in
             assign i fls;
             search ();
             undo_to mark2;
             assign i tru;
             search ();
             undo_to mark2
       end
     with Conflict -> clear_queue ());
    undo_to mark
  in
  try
    for c = 0 to nc - 1 do push c done;
    search ();
    false
  with Found -> true

let is_stable_in ~n rules ?stats m =
  let in_m = Array.make n false in
  List.iter (fun a -> in_m.(a) <- true) m;
  (* M must classically satisfy every rule *)
  let models_rule (r : Ground.grule) =
    Array.exists (fun h -> in_m.(h)) r.Ground.ghead
    || Array.exists (fun p -> not in_m.(p)) r.Ground.gpos
    || Array.exists (fun x -> in_m.(x)) r.Ground.gneg
  in
  Array.for_all models_rule rules
  &&
  let red = reduct rules in_m in
  let normal = List.for_all (fun (h, _) -> Array.length h <= 1) red in
  if normal then normal_reduct_stable ~n red in_m (List.length m)
  else
    (* constraints of the reduct are classically satisfied by M; minimality
       is the remaining question *)
    not (exists_smaller_model ?stats ~n red in_m m)

let is_stable_model ?stats g m =
  is_stable_in ~n:(Ground.atom_count g) (Ground.rules g) ?stats m

(* [~limit:0] (or less) asks for no model.  The search compares the model
   count with the limit only after recording a model, so it answers it
   here, without searching. *)
let no_model_wanted = function Some l -> l <= 0 | None -> false

(* ------------------------------------------------------------------ *)
(* Enumeration of stable models: conflict-driven clause learning.

   The search runs over the classical clause view of the rules (some head
   true, some positive body atom false, or some negative body atom true).
   Propagation is two-watched-literal (Watch), conflicts are analyzed to a
   first-UIP learned nogood (Learn) with non-chronological backjumping,
   branching follows VSIDS activities with false-first polarity, and
   Luby-scheduled restarts reset the trail without losing learned clauses.

   Support propagation keeps two kinds of counters — per rule a body-death
   count, per atom a live-supporter count — and materializes its
   inferences as clauses so conflict analysis can resolve over them:
   when a true atom [a] is down to one live supporter, each forced body
   literal [l] gets the reason clause [l | ~a | w1 | ... | wk] where the
   [wi] re-assert a currently-true body-falsifying witness of each other
   supporter; at zero live supporters the same clause without [l] is the
   conflict.  These clauses (like the supportedness inference itself) are
   sound for stable models though not classical consequences, so the
   learned nogoods may prune classical models that could never be stable —
   every candidate still passes [is_stable_in], and the differential suite
   pins the model sets to the sweep-based reference search of the tests
   (test/oracle/sweep.ml).

   Enumeration is blocking-clause-free: a total assignment that survives
   propagation is a candidate; its full complement clause is analyzed like
   a conflict, so the learned resolvent (falsified by exactly this
   assignment among the remaining ones) both blocks the model and backjumps
   the search.  Restarts are safe because those resolvents persist.

   Decisions made after every original clause is already satisfied merely
   complete the assignment with false (the sweep search completes such
   candidates for free), so they are not counted against the per-search
   cap or the budget. *)

let stable_models ?budget ?limit ?(support_propagation = true) ?stats g =
  let stats = match stats with Some s -> s | None -> new_stats () in
  let { Ground.idx_rules = rules; head_occ; pos_occ; neg_occ } = Ground.index g in
  let n = Ground.atom_count g in
  let nr = Array.length rules in
  let w = Watch.create n in
  let lrn = Learn.create n in
  let exception Empty_clause in
  let exception Done in
  (* scratch literal marks for dedupe/tautology tests *)
  let mark = Array.make (max (2 * n) 1) false in
  let clause_of_rule (r : Ground.grule) =
    let buf = ref [] in
    let add l =
      if not mark.(l) then begin
        mark.(l) <- true;
        buf := l :: !buf
      end
    in
    Array.iter (fun h -> add (2 * h)) r.Ground.ghead;
    Array.iter (fun p -> add ((2 * p) + 1)) r.Ground.gpos;
    Array.iter (fun x -> add (2 * x)) r.Ground.gneg;
    let lits = Array.of_list (List.rev !buf) in
    let taut = Array.exists (fun l -> mark.(l lxor 1)) lits in
    Array.iter (fun l -> mark.(l) <- false) lits;
    if taut then None
    else if Array.length lits = 0 then raise Empty_clause
    else Some lits
  in
  (* satisfaction tracking over the original clauses only: completion-time
     detection ("every rule already satisfied") needs it, learned clauses
     are excluded on purpose *)
  let lit_occ = Array.make (max (2 * n) 1) [] in
  let units = ref [] in
  let n_orig = ref 0 in
  let build () =
    Array.iter
      (fun r ->
        match clause_of_rule r with
        | None -> ()
        | Some lits ->
            let ci = !n_orig in
            incr n_orig;
            Array.iter (fun l -> lit_occ.(l) <- ci :: lit_occ.(l)) lits;
            let cid = Watch.add_clause w lits in
            if Array.length lits = 1 then units := (lits.(0), cid) :: !units)
      rules
  in
  let sat_cnt = ref [||] in
  let n_sat = ref 0 in
  (* support state: body-death counts per rule, live-supporter counts per
     atom, and a worklist of atoms to re-examine *)
  let dead_cnt = Array.make (max nr 1) 0 in
  let live_supp = Array.make (max n 1) 0 in
  for a = 0 to n - 1 do
    live_supp.(a) <- Array.length head_occ.(a)
  done;
  let supp_q = Queue.create () in
  let supp_inq = Array.make (max n 1) false in
  let push_supp a =
    if support_propagation && not supp_inq.(a) then begin
      supp_inq.(a) <- true;
      Queue.add a supp_q;
      stats.queue_pushes <- stats.queue_pushes + 1
    end
  in
  let clear_supp () =
    Queue.iter (fun a -> supp_inq.(a) <- false) supp_q;
    Queue.clear supp_q
  in
  let bump_dead ri =
    dead_cnt.(ri) <- dead_cnt.(ri) + 1;
    if dead_cnt.(ri) = 1 then
      Array.iter
        (fun h ->
          live_supp.(h) <- live_supp.(h) - 1;
          if Watch.atom_value w h = tru then push_supp h)
        rules.(ri).Ground.ghead
  in
  let drop_dead ri =
    dead_cnt.(ri) <- dead_cnt.(ri) - 1;
    if dead_cnt.(ri) = 0 then
      Array.iter
        (fun h -> live_supp.(h) <- live_supp.(h) + 1)
        rules.(ri).Ground.ghead
  in
  (* counter maintenance trails the Watch trail through [shead]; the scan
     runs before any backjump, so undo always reverses scanned entries *)
  let shead = ref 0 in
  let scan_trail () =
    while !shead < Watch.trail_size w do
      let l = Watch.trail_lit w !shead in
      incr shead;
      stats.propagations <- stats.propagations + 1;
      let a = l lsr 1 in
      if l land 1 = 0 then begin
        Array.iter bump_dead neg_occ.(a);
        push_supp a
      end
      else Array.iter bump_dead pos_occ.(a);
      List.iter
        (fun ci ->
          !sat_cnt.(ci) <- !sat_cnt.(ci) + 1;
          if !sat_cnt.(ci) = 1 then incr n_sat)
        lit_occ.(l)
    done
  in
  let on_undo l =
    let a = l lsr 1 in
    Learn.save_phase lrn a (l land 1 = 0);
    if l land 1 = 0 then Array.iter drop_dead neg_occ.(a)
    else Array.iter drop_dead pos_occ.(a);
    List.iter
      (fun ci ->
        !sat_cnt.(ci) <- !sat_cnt.(ci) - 1;
        if !sat_cnt.(ci) = 0 then decr n_sat)
      lit_occ.(l)
  in
  let backjump_to lvl =
    clear_supp ();
    Watch.backjump w lvl ~on_undo;
    shead := Watch.trail_size w;
    (* mid-search clauses can lose unit detection across a backjump (see
       Watch); re-seeding the worklist restores the support inferences *)
    if support_propagation then
      for a = 0 to n - 1 do
        if Watch.atom_value w a = tru && live_supp.(a) <= 1 then push_supp a
      done
  in
  (* [~a] plus one currently-true body-falsifying witness, complemented,
     per dead supporter of [a] other than [skip]; deduped, all false *)
  let support_guard a skip =
    let acc = ref [] in
    let add l =
      if not mark.(l) then begin
        mark.(l) <- true;
        acc := l :: !acc
      end
    in
    add ((2 * a) + 1);
    Array.iter
      (fun ri ->
        if ri <> skip && dead_cnt.(ri) > 0 then begin
          let r = rules.(ri) in
          let wl = ref (-1) in
          Array.iter
            (fun p -> if !wl = -1 && Watch.atom_value w p = fls then wl := 2 * p)
            r.Ground.gpos;
          Array.iter
            (fun x ->
              if !wl = -1 && Watch.atom_value w x = tru then wl := (2 * x) + 1)
            r.Ground.gneg;
          if !wl >= 0 then add !wl
        end)
      head_occ.(a);
    let lits = List.rev !acc in
    List.iter (fun l -> mark.(l) <- false) lits;
    lits
  in
  let process_supp a =
    supp_inq.(a) <- false;
    if Watch.atom_value w a <> tru then `Ok
    else
      match live_supp.(a) with
      | 0 -> `Conflict (Array.of_list (support_guard a (-1)))
      | 1 ->
          let found = ref (-1) in
          Array.iter
            (fun ri -> if !found = -1 && dead_cnt.(ri) = 0 then found := ri)
            head_occ.(a);
          stats.rules_touched <- stats.rules_touched + Array.length head_occ.(a);
          if !found < 0 then `Ok
          else begin
            let r = rules.(!found) in
            let guard = support_guard a !found in
            let force l =
              if Watch.lit_value w l = unk then begin
                let lits = Array.of_list (l :: guard) in
                let cid = Watch.add_clause w lits in
                ignore (Watch.enqueue w ~reason:cid l)
              end
            in
            Array.iter (fun p -> force (2 * p)) r.Ground.gpos;
            Array.iter (fun x -> force ((2 * x) + 1)) r.Ground.gneg;
            `Ok
          end
      | _ -> `Ok
  in
  (* unit propagation and support inference to mutual fixpoint; returns the
     conflict clause's literals, or None *)
  let rec propagate_all () =
    let confl = Watch.propagate w in
    scan_trail ();
    if confl >= 0 then Some (Watch.clause_lits w confl)
    else if Queue.is_empty supp_q then None
    else begin
      let conflict = ref None in
      let acted = ref false in
      while (not !acted) && !conflict = None && not (Queue.is_empty supp_q) do
        match process_supp (Queue.pop supp_q) with
        | `Conflict c -> conflict := Some c
        | `Ok -> if Watch.trail_size w > !shead then acted := true
      done;
      match !conflict with Some c -> Some c | None -> propagate_all ()
    end
  in
  (* Learn from a falsified clause (a real conflict or the complement of a
     just-recorded candidate), backjump, assert.  Raises [Done] when the
     clause is violated at level 0 — the search space is exhausted. *)
  let handle_nogood ~conflict clits =
    if conflict then begin
      stats.conflicts <- stats.conflicts + 1;
      match budget with Some b -> Budget.tick_conflict b | None -> ()
    end;
    let maxlev =
      Array.fold_left (fun m l -> max m (Watch.level_of w (l lsr 1))) 0 clits
    in
    if maxlev = 0 then raise Done;
    if maxlev < Watch.decision_level w then backjump_to maxlev;
    let learned, bj = Learn.analyze lrn w clits in
    Learn.decay lrn;
    let jump = Watch.decision_level w - bj in
    stats.learned <- stats.learned + 1;
    stats.backjump_len <- stats.backjump_len + jump;
    (match budget with
    | Some b ->
        Budget.note_learned b;
        Budget.note_backjump b jump
    | None -> ());
    backjump_to bj;
    let cid = Watch.add_clause w learned in
    ignore (Watch.enqueue w ~reason:cid learned.(0))
  in
  let models = ref [] in
  let count = ref 0 in
  let record_candidate () =
    stats.candidates <- stats.candidates + 1;
    (match budget with Some b -> Budget.check_deadline b | None -> ());
    let m = ref [] in
    for a = n - 1 downto 0 do
      if Watch.atom_value w a = tru then m := a :: !m
    done;
    let m = !m in
    if is_stable_in ~n rules ~stats m then begin
      models := m :: !models;
      incr count;
      match limit with Some l when !count >= l -> raise Done | _ -> ()
    end
  in
  (* completion-aware branching: while some original clause is unsatisfied,
     decide by VSIDS activity; once all are satisfied, the remaining
     decisions just complete the assignment with false *)
  let pick () =
    if !n_sat = !n_orig then begin
      let a = ref (-1) in
      (try
         for i = 0 to n - 1 do
           if Watch.atom_value w i = unk then begin
             a := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !a < 0 then `Total else `Decide (!a, true)
    end
    else begin
      let best = ref (-1) in
      let besta = ref neg_infinity in
      for i = 0 to n - 1 do
        if Watch.atom_value w i = unk && Learn.activity lrn i > !besta then begin
          best := i;
          besta := Learn.activity lrn i
        end
      done;
      if !best < 0 then `Total else `Decide (!best, false)
    end
  in
  let restart_base = 64 in
  let luby_i = ref 1 in
  let threshold = ref (restart_base * Learn.luby 1) in
  let conflicts_since = ref 0 in
  (try
     if no_model_wanted limit then raise Done;
     build ();
     sat_cnt := Array.make (max !n_orig 1) 0;
     (* level-0 seeds: atoms in no rule head are unsupported in every
        stable model; input unit clauses assert themselves.  A failed
        enqueue is a root-level contradiction — no models. *)
     for a = 0 to n - 1 do
       if Array.length head_occ.(a) = 0 then
         if not (Watch.enqueue w ~reason:(-1) ((2 * a) + 1)) then raise Done
     done;
     List.iter
       (fun (l, cid) ->
         if not (Watch.enqueue w ~reason:cid l) then raise Done)
       !units;
     while true do
       match propagate_all () with
       | Some clits ->
           incr conflicts_since;
           handle_nogood ~conflict:true clits
       | None ->
           if !conflicts_since >= !threshold && Watch.decision_level w > 0
           then begin
             stats.restarts <- stats.restarts + 1;
             (match budget with Some b -> Budget.note_restart b | None -> ());
             conflicts_since := 0;
             incr luby_i;
             threshold := restart_base * Learn.luby !luby_i;
             backjump_to 0
           end
           else begin
             match pick () with
             | `Decide (a, completion) ->
                 if not completion then begin
                   stats.decisions <- stats.decisions + 1;
                   Budget.check_search_decisions stats.decisions;
                   match budget with
                   | Some b -> Budget.tick_decision b
                   | None -> ()
                 end;
                 Watch.push_level w;
                 (* completion decisions must stay false (sound for stable
                    models); only real branch points consult the saved
                    phase *)
                 let l =
                   if (not completion) && Learn.phase lrn a then begin
                     stats.phase_saved <- stats.phase_saved + 1;
                     (match budget with
                     | Some b -> Budget.note_phase_saved b
                     | None -> ());
                     2 * a
                   end
                   else (2 * a) + 1
                 in
                 ignore (Watch.enqueue w ~reason:(-1) l)
             | `Total ->
                 record_candidate ();
                 if Watch.decision_level w = 0 then raise Done;
                 let blocking =
                   Array.init n (fun a ->
                       if Watch.atom_value w a = tru then (2 * a) + 1
                       else 2 * a)
                 in
                 handle_nogood ~conflict:false blocking
           end
     done
   with
  | Done -> ()
  | Empty_clause -> ());
  List.sort (List.compare Int.compare) !models

let stable_models_atoms ?budget ?limit ?stats g =
  stable_models ?budget ?limit ?stats g
  |> List.map (fun m -> Ground.model_atoms g m)

(* Cautious/brave consequences over the already-sorted model list, by set
   intersection/union instead of the quadratic List.mem filters; [None]
   when there is no stable model. *)

let cautious ?budget ?stats g =
  match stable_models ?budget ?stats g with
  | [] -> None
  | m :: rest ->
      Some
        (Iset.elements
           (List.fold_left
              (fun acc model -> Iset.inter acc (Iset.of_list model))
              (Iset.of_list m) rest))

let brave ?budget ?stats g =
  match stable_models ?budget ?stats g with
  | [] -> None
  | models ->
      Some
        (Iset.elements
           (List.fold_left
              (fun acc model -> Iset.union acc (Iset.of_list model))
              Iset.empty models))
