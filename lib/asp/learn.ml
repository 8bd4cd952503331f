(* First-UIP conflict analysis, VSIDS branching activities and the Luby
   restart sequence for the CDCL search of Solver.

   [analyze] resolves the conflict clause backwards along the trail,
   expanding the reason clause of each current-level literal until exactly
   one current-level literal remains (the first unique implication point).
   Level-0 literals are dropped: everything assigned at level 0 holds in
   every remaining stable model (input units, unsupported-atom fixings and
   nogoods asserted there), so the resolvent stays sound without them. *)

type t = {
  act : float array;  (* per-atom VSIDS activity *)
  seen : bool array;  (* analysis scratch, clean between calls *)
  mutable inc : float;  (* current bump amount *)
  phase : bool array;
      (* last polarity each atom was assigned before being undone; false
         (the engine's default polarity) until an atom is first unassigned
         while true, so saving is behavior-neutral up to that point *)
}

let create n =
  {
    act = Array.make (max n 1) 0.;
    seen = Array.make (max n 1) false;
    inc = 1.0;
    phase = Array.make (max n 1) false;
  }

let activity t a = t.act.(a)
let save_phase t a v = t.phase.(a) <- v
let phase t a = t.phase.(a)

let bump t a =
  t.act.(a) <- t.act.(a) +. t.inc;
  if t.act.(a) > 1e100 then begin
    (* rescale everything to keep the ordering and dodge overflow *)
    Array.iteri (fun i v -> t.act.(i) <- v *. 1e-100) t.act;
    t.inc <- t.inc *. 1e-100
  end

(* Dividing the increment instead of multiplying every activity is the
   standard exponential-decay trick: one float op per conflict. *)
let decay t = t.inc <- t.inc /. 0.95

(* Reluctant-doubling sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... (1-indexed);
   restart intervals scale with it so short runs dominate but arbitrarily
   long runs still happen. *)
let rec luby i =
  (* find k with 2^k - 1 = i (then luby = 2^(k-1)), else recurse *)
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do incr k done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

(* [analyze t w conflict] — 1UIP resolution of a clause whose literals are
   all false under [w]'s assignment, at least one at the current decision
   level (which must be positive).  Returns the learned clause (asserting
   literal at index 0, a deepest remaining literal at index 1) and the
   backjump level.  Bumps the activity of every resolved-over atom. *)
let analyze t w conflict =
  let dl = Watch.decision_level w in
  let learned = ref [] in
  let pathc = ref 0 in
  let p = ref (-1) in
  let idx = ref (Watch.trail_size w - 1) in
  let clause = ref conflict in
  let first = ref true in
  let continue_ = ref true in
  while !continue_ do
    (* skip index 0 of a reason clause: it is the pivot [p] itself *)
    let start = if !first then 0 else 1 in
    let lits = !clause in
    for j = start to Array.length lits - 1 do
      let q = lits.(j) in
      let v = q lsr 1 in
      if (not t.seen.(v)) && Watch.level_of w v > 0 then begin
        t.seen.(v) <- true;
        bump t v;
        if Watch.level_of w v >= dl then incr pathc
        else learned := q :: !learned
      end
    done;
    first := false;
    (* next pivot: the most recent trail literal marked seen — necessarily
       at the current level while [pathc] > 0 *)
    while not t.seen.(Watch.trail_lit w !idx lsr 1) do decr idx done;
    let pl = Watch.trail_lit w !idx in
    decr idx;
    t.seen.(pl lsr 1) <- false;
    decr pathc;
    p := pl;
    if !pathc > 0 then clause := Watch.clause_lits w (Watch.reason_of w (pl lsr 1))
    else continue_ := false
  done;
  let out = Array.of_list ((!p lxor 1) :: List.rev !learned) in
  Array.iter (fun q -> t.seen.(q lsr 1) <- false) out;
  (* backjump level: deepest level below [dl] among the kept literals; move
     one literal of that level to index 1 so the clause watches it *)
  let bj = ref 0 and bi = ref (-1) in
  for i = 1 to Array.length out - 1 do
    let lv = Watch.level_of w (out.(i) lsr 1) in
    if lv > !bj then begin
      bj := lv;
      bi := i
    end
  done;
  if !bi > 1 then begin
    let tmp = out.(1) in
    out.(1) <- out.(!bi);
    out.(!bi) <- tmp
  end;
  (out, !bj)
