module Value = Relational.Value
module Atom = Relational.Atom
module Tuple = Relational.Tuple
module Instance = Relational.Instance
module Decompose = Repair.Decompose
module Assign = Semantics.Assign

type method_ = ModelTheoretic | LogicProgram | CautiousProgram | Auto

type outcome = {
  consistent : Tuple.Set.t;
  possible : Tuple.Set.t;
  standard : Tuple.Set.t;
  repair_count : int;
  exhausted : Budget.exhausted option;
}

type solved = {
  minimal : Instance.t list;
  states : Instance.t list option;
  tier : Budget.tier option;
}

type store = {
  find : string -> (solved * Relational.Value.t array) option;
  add : string -> solved * Relational.Value.t array -> unit;
}

let cannot_decompose =
  "the cautious-program method cannot decompose: it materializes no \
   per-component repairs to recombine; use the model-theoretic or \
   logic-program engine with ~decompose, or drop ~decompose"

let outcome_of_answer_sets ?exhausted standard repair_count answer_sets =
  let consistent =
    match answer_sets with
    | [] -> Tuple.Set.empty
    | s :: rest -> List.fold_left Tuple.Set.inter s rest
  in
  let possible = List.fold_left Tuple.Set.union Tuple.Set.empty answer_sets in
  { consistent; possible; standard; repair_count; exhausted }

let outcome_of_repairs ?semantics ~standard q repairs =
  outcome_of_answer_sets standard (List.length repairs)
    (List.map (fun r -> Qeval.answers ?semantics r q) repairs)

(* ------------------------------------------------------------------ *)
(* Decomposed CQA (Repair.Decompose).

   The per-component answer algebra requires the factorizable query
   fragment of {!Qsafe.shape} (positive existential conjunctive, every
   variable in a database atom): answers are then insensitive to atoms of
   predicates the query does not mention. *)

let component_preds (c : Decompose.component) =
  Relational.Atom.Set.fold
    (fun a acc ->
      let p = Relational.Atom.pred a in
      if List.mem p acc then acc else p :: acc)
    c.Decompose.atoms []

(* Every repair of the plan's instance: the cross product of the
   per-component minimal repairs over the core or, when cross-component
   covering is possible, the product of the consistent states (only the
   model-theoretic search yields them) filtered globally against the
   instance the plan was made from. *)
let full_repairs ~plan ~minimal states =
  let core = plan.Decompose.core in
  if plan.Decompose.product_exact then
    List.of_seq (Decompose.product core minimal)
  else
    let d =
      List.fold_left
        (fun d (c : Decompose.component) -> Instance.union d c.Decompose.sub)
        core plan.Decompose.components
    in
    Repair.Order.minimal_among ~d
      (List.of_seq (Decompose.product core (Option.get states)))

(* The standard answers the core lacks, for a single-atom query.  D is
   the core plus the components' slices, and a single atom's answers are
   additive, so an answer over D is missing from the core's only if every
   witness of it is a slice atom.  So only the heads of the components'
   atoms matching the query atom that are standard answers are tested,
   each once, with one join over the core seeded on it
   ({!Qeval.witnessed}).  The atoms include insertion candidates outside
   D, whose heads the test decides like any other. *)
let unwitnessed ?semantics ~(plan : Decompose.plan) ~standard (q : Qsyntax.t) =
  let atom = List.hd (Qsyntax.atoms q.Qsyntax.body) in
  let pred = Ic.Patom.pred atom and terms = Ic.Patom.terms atom in
  let head (a : Atom.t) heads =
    if not (String.equal (Atom.pred a) pred) then heads
    else
      match Assign.match_tuple Assign.empty terms (Atom.args a) with
      | None -> heads
      | Some theta ->
          Array.of_list (List.map (Assign.lookup_exn theta) q.Qsyntax.head)
          :: heads
  in
  let heads =
    List.fold_left
      (fun heads (c : Decompose.component) ->
        Atom.Set.fold head c.Decompose.atoms heads)
      [] plan.Decompose.components
  in
  let candidates = Tuple.Set.inter standard (Tuple.Set.of_list heads) in
  if Tuple.Set.is_empty candidates then candidates
  else
    let witnessed = Qeval.witnessed ?semantics plan.Decompose.core q in
    Tuple.Set.of_list
      (Tuple.Set.fold
         (fun h acc -> if witnessed h then acc else h :: acc)
         candidates [])

let factorized_outcome ?semantics ?(jobs = 1) ?states ?exhausted ~plan
    ~minimal ~standard (q : Qsyntax.t) =
  let core = plan.Decompose.core in
  let components = plan.Decompose.components in
  let counts = List.map List.length minimal in
  let repair_count = Decompose.count_product counts in
  let eval r = Qeval.answers ?semantics r q in
  let shape = Qsafe.shape q in
  if
    (not plan.Decompose.product_exact)
    || shape = Qsafe.Opaque
    || List.exists (fun l -> l = []) minimal
  then
    (* evaluate over the recombined repair list; still
       profits from the per-component search *)
    let reps = full_repairs ~plan ~minimal states in
    outcome_of_answer_sets ?exhausted standard
      (List.length reps) (List.map eval reps)
  else
    let qpreds = Qsyntax.preds q in
    let relevant =
      List.filter
        (fun (c, _) ->
          List.exists
            (fun p -> List.mem p qpreds)
            (component_preds c))
        (List.combine components minimal)
    in
    match relevant with
    | [] ->
        (* no component touches a query predicate: every
           repair has exactly D's tuples there *)
        { consistent = standard; possible = standard;
          standard; repair_count; exhausted }
    | _ -> (
        match shape with
        | Qsafe.Opaque -> assert false (* excluded above *)
        | Qsafe.Single ->
            (* single-atom query: answers are additive,
               eval (core ∪ r) = eval core ∪ eval r, so
               Inter_choices (A ∪ Union_i B_i) =
               A ∪ Union_i Inter_c B_i,c with A the core's
               answers — derived from the standard answers,
               never evaluated — and each repair evaluated
               alone *)
            let eval_component (_, reps) =
              let sets = List.map eval reps in
              ( List.fold_left Tuple.Set.inter
                  (List.hd sets) (List.tl sets),
                List.fold_left Tuple.Set.union
                  Tuple.Set.empty sets )
            in
            (* the per-component answer algebra is as
               independent as the solves: evaluate each
               component's answer sets on the pool too *)
            let per_component =
              if jobs <= 1 || List.length relevant <= 1
              then List.map eval_component relevant
              else
                Parallel.Pool.with_pool ~jobs
                  ~init:(fun w ->
                    Budget.set_worker_slot (w + 1))
                  (fun pool ->
                    Parallel.Pool.map pool eval_component
                      relevant)
            in
            let removed = unwitnessed ?semantics ~plan ~standard q in
            (* the core's answers are [standard \ removed], so a result
               is [(standard \ removed) ∪ added] = [standard \ (removed
               \ added) ∪ (added \ standard)]: the small sets are
               combined first, and the standard answers take one diff and
               one union, each of which returns them unchanged, without a
               copy, when it has nothing to remove or add *)
            let over_core sets =
              let added = List.fold_left Tuple.Set.union Tuple.Set.empty sets in
              Tuple.Set.union
                (Tuple.Set.diff standard (Tuple.Set.diff removed added))
                (Tuple.Set.diff added standard)
            in
            {
              consistent = over_core (List.map fst per_component);
              possible = over_core (List.map snd per_component);
              standard;
              repair_count;
              exhausted;
            }
        | Qsafe.Join ->
            (* join query: answers can join atoms across
               components — recombine, but only over the
               components that mention a query
               predicate *)
            let sets =
              Seq.map eval
                (Decompose.product core
                   (List.map snd relevant))
            in
            let consistent, possible =
              match sets () with
              | Seq.Nil ->
                  (Tuple.Set.empty, Tuple.Set.empty)
              | Seq.Cons (s, rest) ->
                  Seq.fold_left
                    (fun (i, u) s ->
                      ( Tuple.Set.inter i s,
                        Tuple.Set.union u s ))
                    (s, s) rest
            in
            { consistent; possible; standard; repair_count;
              exhausted })

(* ------------------------------------------------------------------ *)
(* The one decomposed pipeline: a computed plan, one solver per
   component, the prefix-rule merge of Repair.Decompose, and the
   recombination. *)

(* One component on the strategy the method and the plan call for.  An
   exact [Auto] plan routes the component to its tier ({!Route.Tier}): the
   repair-less direct computation, the repair program (statically-HCF
   components run it shifted — {!Core.Engine} consults {!Asp.Shift}
   internally), or enumeration.  An inexact plan needs the consistent
   states for the global filter, which only the model-theoretic search
   yields, so [Auto] enumerates there, like [ModelTheoretic] always does.
   Every enumeration is tagged [Enumerated], so the entries a session
   caches under one key agree on their tier whichever method solved
   them. *)
let solve_component ?budget method_ (plan : Decompose.plan) c =
  let enumerate () =
    Decompose.map_solved
      (fun (minimal, states, _) ->
        { minimal; states = Some states; tier = Some Budget.Enumerated })
      (Repair.Enumerate.solve_component ?budget plan c)
  in
  let program tier =
    Decompose.map_solved
      (fun minimal -> { minimal; states = None; tier })
      (Core.Engine.solve_component ?budget c)
  in
  match method_ with
  | Auto when plan.Decompose.product_exact -> (
      let v = Route.Tier.component c in
      match v.Route.Tier.tier with
      | Budget.Direct -> (
          match
            Route.Direct.minimal_repairs ?budget (Option.get v.Route.Tier.direct)
          with
          | minimal ->
              Decompose.Solved
                { minimal; states = None; tier = Some Budget.Direct }
          | exception Budget.Exhausted e -> Decompose.Tripped e)
      | (Budget.Shifted | Budget.Disjunctive) as tier -> program (Some tier)
      | Budget.Enumerated -> enumerate ())
  | Auto | ModelTheoretic -> enumerate ()
  | LogicProgram -> program None
  | CautiousProgram -> Decompose.Failed cannot_decompose

(* ------------------------------------------------------------------ *)
(* Solve memos.

   A solve step can go through a store of solved components, probed and
   filled by key.  A key names the strategy, then digests what the solve
   reads.  An exact [Auto] plan keys a component by its shape
   ({!Decompose.shape_key}), so isomorphic components share one solve: a
   hit carries the stored results over to the asking component through
   the renaming between the two keys' constants.  Every other component,
   and the monolithic program, is keyed by content, which renames
   nothing. *)

(* The key of one component's solve; [None] leaves it unmemoized.  With
   [shapes_only] only shape keys memoize: within one request no two
   components have the same content, so a content key could never hit,
   and on a large instance its universe digest is not free. *)
let component_key ~shapes_only method_ (plan : Decompose.plan) c =
  let key tag id constants = Some (tag ^ ":" ^ id, constants) in
  let content tag id = if shapes_only then None else key tag (id ()) [||] in
  let with_universe () =
    Decompose.fingerprint ~universe:plan.Decompose.universe
      ~nnc_positions:plan.Decompose.nnc_positions c
  in
  match (method_, plan.Decompose.product_exact) with
  | Auto, true -> (
      match Decompose.shape_key plan c with
      | Some k -> key "auto" k.Decompose.id k.Decompose.constants
      | None -> content "auto" with_universe)
  (* [Auto] on an inexact plan enumerates, like [ModelTheoretic], over the
     universe *)
  | (Auto | ModelTheoretic), _ -> content "enum" with_universe
  | (LogicProgram | CautiousProgram), _ ->
      content "prog" (fun () -> Decompose.fingerprint c)

(* The monolithic program reads the whole instance: its key is the
   content of the instance as one component. *)
let whole_key d ics =
  let whole =
    {
      Decompose.atoms = Relational.Atom.Set.empty;
      sub = d;
      support = Instance.empty;
      ics;
    }
  in
  Some ("mono:" ^ Decompose.fingerprint whole, [||])

(* A hit's results carried from the component that solved them to the
   asking one: renamed and re-sorted, which is exactly what the asking
   component's own solve returns, since every tier sorts its minimal
   repairs by [Instance.compare].  The states keep their order: only an
   inexact plan reads them, and it never keys by shape. *)
let carry ~from ~into (e : solved) =
  match Decompose.renaming ~from ~into with
  | None -> e
  | Some rename ->
      {
        e with
        minimal = List.sort Instance.compare (List.map rename e.minimal);
        states = Option.map (List.map rename) e.states;
      }

let memoized store key solve =
  match store with
  | None -> solve ()
  | Some store -> (
      match key () with
      | None -> solve ()
      | Some (id, into) -> (
          match store.find id with
          | Some (e, from) -> Decompose.Solved (carry ~from ~into e)
          | None -> (
              match solve () with
              | Decompose.Solved e as r ->
                  store.add id (e, into);
                  r
              | r -> r)))

(* The request-local store of the cold [Auto] path: pool workers share
   it, so a mutex guards the table.  It lives for one request. *)
let request_store () =
  let table = Hashtbl.create 16 and lock = Mutex.create () in
  {
    find = (fun id -> Mutex.protect lock (fun () -> Hashtbl.find_opt table id));
    add = (fun id e -> Mutex.protect lock (fun () -> Hashtbl.replace table id e));
  }

(* The logic-program engine yields only minimal repairs, which do not
   recombine exactly on an inexact plan: it solves the whole instance
   instead, and says so in the stats instead of degrading invisibly. *)
let whole_repairs ?budget ?store d ics =
  (match budget with
  | Some b ->
      Budget.note_degraded b ~stage:"decompose"
        "inexact component product (cross-component null covering): \
         logic-program engine computed monolithic repairs instead"
  | None -> ());
  match
    memoized store
      (fun () -> whole_key d ics)
      (fun () ->
        match Core.Engine.repairs ?budget d ics with
        | Ok minimal -> Decompose.Solved { minimal; states = None; tier = None }
        | Error msg -> Decompose.Failed msg)
  with
  | Decompose.Solved e -> Ok e.minimal
  | Decompose.Failed msg -> Error msg
  | Decompose.Tripped e -> Error (Budget.message e)

(* Every component through the memo and the prefix-rule merge.  Without
   a [store], an exact [Auto] plan solves through a request-local one,
   keyed by shape only; the other methods solve every component, as the
   reference oracles of that path.  The kept results' tiers are counted
   here, once, so a memoized solve counts exactly like a fresh one. *)
let solve_plan ?budget ?jobs ?store method_ (plan : Decompose.plan) =
  (match (budget, method_, plan.Decompose.product_exact) with
  | Some b, Auto, false ->
      Budget.note_degraded b ~stage:"route"
        "inexact component product (cross-component null covering): whole \
         plan routed to decomposed enumeration"
  | _ -> ());
  let filler c =
    let base = Decompose.base c in
    { minimal = [ base ]; states = Some [ base ]; tier = None }
  in
  let store, shapes_only =
    match store with
    | Some _ -> (store, false)
    | None when method_ = Auto && plan.Decompose.product_exact ->
        (Some (request_store ()), true)
    | None -> (None, true)
  in
  let solve c =
    memoized store
      (fun () -> component_key ~shapes_only method_ plan c)
      (fun () -> solve_component ?budget method_ plan c)
  in
  Result.map
    (fun ((results, kept, _) as merged) ->
      (match budget with
      | Some b when method_ = Auto ->
          List.iteri
            (fun i e ->
              if i < kept then Option.iter (Budget.note_route b) e.tier)
            results
      | _ -> ());
      merged)
    (Decompose.solve ?budget ?jobs ~filler solve plan.Decompose.components)

(* The consistent states the global filter of an inexact plan needs; the
   strategy enumerates there, so every result carries them. *)
let states_of (plan : Decompose.plan) results =
  if plan.Decompose.product_exact then None
  else Some (List.map (fun e -> Option.get e.states) results)

let outcome_of_plan ?semantics ?budget ?(jobs = 1) ?store ~method_ ~standard
    ~plan d ics q =
  match plan.Decompose.components with
  | [] ->
      (* consistent instance: the only repair is D itself *)
      Ok
        {
          consistent = standard;
          possible = standard;
          standard;
          repair_count = 1;
          exhausted = None;
        }
  | _ when (not plan.Decompose.product_exact) && method_ = LogicProgram ->
      Result.map
        (outcome_of_repairs ?semantics ~standard q)
        (whole_repairs ?budget ?store d ics)
  | _ ->
      Result.bind (solve_plan ?budget ~jobs ?store method_ plan)
        (fun (results, kept, exhausted) ->
          match exhausted with
          | Some e when kept = 0 ->
              (* nothing was solved: there is no partial work to return *)
              Error (Budget.message e)
          | _ ->
              Ok
                (factorized_outcome ?semantics ~jobs
                   ?states:(states_of plan results) ?exhausted ~plan
                   ~minimal:(List.map (fun e -> e.minimal) results)
                   ~standard q))

let repairs_of_plan ?budget ?(jobs = 1) ?store ~method_ ~plan d ics =
  match plan.Decompose.components with
  | [] -> Ok [ d ]
  | _ when (not plan.Decompose.product_exact) && method_ = LogicProgram ->
      whole_repairs ?budget ?store d ics
  | _ ->
      Result.bind (solve_plan ?budget ~jobs ?store method_ plan)
        (fun (results, _, exhausted) ->
          match exhausted with
          | Some e ->
              (* the full repair set cannot degrade gracefully *)
              Error (Budget.message e)
          | None ->
              Ok
                (full_repairs ~plan
                   ~minimal:(List.map (fun e -> e.minimal) results)
                   (states_of plan results)))

let repairs ?budget ?jobs ~method_ d ics =
  match Decompose.plan ?budget d ics with
  | exception Budget.Exhausted e -> Error (Budget.message e)
  | plan -> repairs_of_plan ?budget ?jobs ~method_ ~plan d ics

let consistent_answers ?(method_ = LogicProgram) ?semantics ?budget
    ?(decompose = false) ?jobs d ics q =
  let standard () = Qeval.answers ?semantics d q in
  match method_ with
  | CautiousProgram when decompose -> Error cannot_decompose
  | CautiousProgram ->
      Result.map
        (fun (o : Progcqa.outcome) ->
          {
            consistent = o.Progcqa.consistent;
            possible = o.Progcqa.possible;
            standard = standard ();
            repair_count = o.Progcqa.stable_models;
            exhausted = None;
          })
        (Progcqa.consistent_answers ?budget d ics q)
  | ModelTheoretic when not decompose ->
      Result.map
        (fun reps -> outcome_of_repairs ?semantics ~standard:(standard ()) q reps)
        (Budget.guard (fun () -> Ok (Repair.Enumerate.repairs ?budget d ics)))
  | LogicProgram when not decompose ->
      Result.map
        (fun reps -> outcome_of_repairs ?semantics ~standard:(standard ()) q reps)
        (Core.Engine.repairs ?budget d ics)
  | ModelTheoretic | LogicProgram | Auto -> (
      (* routing always decomposes (per-component verdicts): ~decompose is
         implied for Auto *)
      let standard = standard () in
      match Decompose.plan ?budget d ics with
      | exception Budget.Exhausted e -> Error (Budget.message e)
      | plan ->
          outcome_of_plan ?semantics ?budget ?jobs ~method_ ~standard ~plan d
            ics q)

let certain ?method_ ?semantics ?budget ?decompose ?jobs d ics q =
  if not (Qsyntax.is_boolean q) then Error "certain: query has head variables"
  else
    Result.map
      (fun o -> Tuple.Set.mem (Tuple.make []) o.consistent)
      (consistent_answers ?method_ ?semantics ?budget ?decompose ?jobs d ics
         { q with Qsyntax.head = [] })

(* An answer set in the syntax of [Tuple.pp] lists, "{(a, b), (c, null)}",
   written to the formatter as one string: the set holds no break hint and
   opens no box, so one token prints exactly the bytes the per-value tokens
   did, wherever the outcome is nested.

   The string is written in place: one pass sizes it, a second writes
   every value straight into the bytes, integers digit by digit, and the
   bytes become the string without a copy.  Everything is local to the
   call, so concurrent renders (a server's pool domains) share nothing. *)

(* The decimal digits of a non-positive integer (the negative side holds
   [min_int]), by comparisons: ten digits at most for a search of four,
   then ten at a time.  Counting by a loop dividing by ten, once, with a
   writer that starts from the first digit, made the one-shot request of
   the [oneshot_scale] benchmark (three sets of 30k ten-digit keys)
   slower: 25.9 against 22.9 ms median over four alternating 35 s pairs
   on a 2-core Xeon.  Alone, sizing and writing 30k such keys takes 1.2
   ms this way, 1.9 ms that way. *)
let rec digits n =
  if n > -10_000_000_000 then
    if n > -100_000 then
      if n > -100 then if n > -10 then 1 else 2
      else if n > -1_000 then 3
      else if n > -10_000 then 4
      else 5
    else if n > -10_000_000 then if n > -1_000_000 then 6 else 7
    else if n > -100_000_000 then 8
    else if n > -1_000_000_000 then 9
    else 10
  else 10 + digits (n / 10_000_000_000)

let int_length i = if i < 0 then 1 + digits i else digits (-i)

let value_length = function
  | Value.Null -> 4
  | Value.Int i -> int_length i
  | Value.Str s -> String.length s

(* "(" values separated by ", " ")" *)
let tuple_length (t : Tuple.t) =
  let n = ref (2 + (2 * Int.max 0 (Array.length t - 1))) in
  for i = 0 to Array.length t - 1 do
    n := !n + value_length t.(i)
  done;
  !n

(* The digits of the non-positive [n], the last one at [p], one per step:
   [q * 10 - n] is the digit [n / 10] drops.  From the length [digits]
   gives, backwards: a tail call, unlike a writer that starts with the
   first digit. *)
let rec write_digits b n p =
  let q = n / 10 in
  Bytes.set b p (Char.unsafe_chr (48 + ((q * 10) - n)));
  if q < 0 then write_digits b q (p - 1)

let write_separator b pos =
  Bytes.set b pos ',';
  Bytes.set b (pos + 1) ' '

(* Each writer writes at [pos] and returns the position after it. *)
let write_value b pos = function
  | Value.Null ->
      Bytes.blit_string "null" 0 b pos 4;
      pos + 4
  | Value.Str s ->
      Bytes.blit_string s 0 b pos (String.length s);
      pos + String.length s
  | Value.Int i ->
      let stop = pos + int_length i in
      if i < 0 then Bytes.set b pos '-';
      write_digits b (if i < 0 then i else -i) (stop - 1);
      stop

let write_tuple b pos (t : Tuple.t) =
  Bytes.set b pos '(';
  let pos = ref (pos + 1) in
  for i = 0 to Array.length t - 1 do
    if i > 0 then begin
      write_separator b !pos;
      pos := !pos + 2
    end;
    pos := write_value b !pos t.(i)
  done;
  Bytes.set b !pos ')';
  !pos + 1

let answer_set_string s =
  (* the braces, and ", " after every tuple but the last *)
  let size =
    Tuple.Set.fold (fun t n -> n + tuple_length t + 2) s 2
    - if Tuple.Set.is_empty s then 0 else 2
  in
  let b = Bytes.create size in
  Bytes.set b 0 '{';
  let stop =
    Tuple.Set.fold
      (fun t pos ->
        if pos = 1 then write_tuple b pos t
        else begin
          write_separator b pos;
          write_tuple b (pos + 2) t
        end)
      s 1
  in
  Bytes.set b stop '}';
  Bytes.unsafe_to_string b

(* The three sets are often equal, or two of them (a consistent instance,
   an untouched query relation): each distinct set is written once, and
   equal ones share its string. *)
let pp_outcome ppf o =
  let consistent = answer_set_string o.consistent in
  let possible =
    if Tuple.Set.equal o.possible o.consistent then consistent
    else answer_set_string o.possible
  in
  let standard =
    if Tuple.Set.equal o.standard o.possible then possible
    else if Tuple.Set.equal o.standard o.consistent then consistent
    else answer_set_string o.standard
  in
  Fmt.pf ppf "@[<v>consistent: %s@,possible:   %s@,standard:   %s@,repairs:    %d%a@]"
    consistent possible standard o.repair_count
    Fmt.(option (fun ppf e -> pf ppf "@,partial:    %a" Budget.pp_exhausted e))
    o.exhausted
