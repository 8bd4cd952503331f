module Tuple = Relational.Tuple
module Instance = Relational.Instance

type method_ = ModelTheoretic | LogicProgram | CautiousProgram | Auto

(* The two repair-materializing engines as their own type: the dispatch on
   [CautiousProgram] happens exactly once, in [consistent_answers], so the
   repair-materializing helpers below cannot be reached with it — the
   former [assert false] arms are unrepresentable. *)
type materializer = Enumerator | ProgramEngine

type outcome = {
  consistent : Tuple.Set.t;
  possible : Tuple.Set.t;
  standard : Tuple.Set.t;
  repair_count : int;
  exhausted : Budget.exhausted option;
}

let repairs_of mat ?budget max_effort d ics =
  match mat with
  | Enumerator -> (
      match Repair.Enumerate.repairs ?budget ?max_states:max_effort d ics with
      | reps -> Ok reps
      | exception Repair.Enumerate.Budget_exceeded n ->
          Error (Budget.message (Budget.States n))
      | exception Budget.Exhausted e -> Error (Budget.message e))
  | ProgramEngine -> Core.Engine.repairs ?budget ?max_decisions:max_effort d ics

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

let component_preds (c : Repair.Decompose.component) =
  Relational.Atom.Set.fold
    (fun a acc ->
      let p = Relational.Atom.pred a in
      if List.mem p acc then acc else p :: acc)
    c.Repair.Decompose.atoms []

(* Per-component repair lists (locally <=_D-minimal), plus the consistent
   states needed for the inexact-product fallback when the model-theoretic
   engine is in use.  Exhaustion mid-run keeps the solved prefix (the
   unsolved components degrade to their base slice) with the marker. *)
let solve_components mat ?budget ?(jobs = 1) max_effort d ics
    (plan : Repair.Decompose.plan) =
  match mat with
  | Enumerator ->
      let r =
        Repair.Enumerate.decomposed ?budget ?max_states:max_effort ~jobs d ics
      in
      (* the degraded filler components of a partial outcome are the ones
         with zero explored states (a real search explores >= 1) *)
      let completed =
        List.length (List.filter (fun n -> n > 0) r.Repair.Enumerate.explored)
      in
      Ok
        ( r.Repair.Enumerate.minimal,
          Some r.Repair.Enumerate.states,
          completed,
          r.Repair.Enumerate.exhausted )
  | ProgramEngine ->
      Result.map
        (fun (r : Core.Engine.components_result) ->
          (r.Core.Engine.solved, None, r.Core.Engine.completed,
           r.Core.Engine.exhausted))
        (Core.Engine.solve_components ?budget ?max_decisions:max_effort ~jobs
           plan)

(* The factorized answer combination over already-solved components: the
   common tail of decomposed CQA here and of the session engine's cached
   path ({!Session}) — sharing it is what makes session answers
   byte-identical to a cold decomposed run by construction. *)
let factorized_outcome ?semantics ?(jobs = 1) ?states ?exhausted ~plan
    ~minimal ~standard (q : Qsyntax.t) =
  let core = plan.Repair.Decompose.core in
  let components = plan.Repair.Decompose.components in
  let counts = List.map List.length minimal in
  let repair_count = Repair.Decompose.count_product counts in
  let eval r = Qeval.answers ?semantics r q in
  let full_repairs () =
    if plan.Repair.Decompose.product_exact then
      List.of_seq (Repair.Decompose.product core minimal)
    else
      (* model-theoretic engine: recombine the consistent states and
         filter globally, against the instance the plan was made from *)
      let d =
        List.fold_left
          (fun d (c : Repair.Decompose.component) ->
            Instance.union d c.Repair.Decompose.sub)
          core components
      in
      Repair.Order.minimal_among ~d
        (List.of_seq (Repair.Decompose.product core (Option.get states)))
  in
  let shape = Qsafe.shape q in
  if
    (not plan.Repair.Decompose.product_exact)
    || shape = Qsafe.Opaque
    || List.exists (fun l -> l = []) minimal
  then
    (* evaluate over the recombined repair list; still
       profits from the per-component search *)
    let reps = full_repairs () in
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
               answers — the core is evaluated once, each
               repair alone *)
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
            let base = eval core in
            {
              consistent =
                List.fold_left
                  (fun acc (i, _) -> Tuple.Set.union acc i)
                  base per_component;
              possible =
                List.fold_left
                  (fun acc (_, u) -> Tuple.Set.union acc u)
                  base per_component;
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
                (Repair.Decompose.product core
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

let decomposed_outcome mat ?budget ?semantics ?(jobs = 1) max_effort d ics
    (q : Qsyntax.t) =
  let standard = Qeval.answers ?semantics d q in
  match Repair.Decompose.plan ?budget d ics with
  | exception Budget.Exhausted e -> Error (Budget.message e)
  | plan -> (
      match plan.Repair.Decompose.components with
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
      | _
        when (not plan.Repair.Decompose.product_exact) && mat = ProgramEngine
        ->
          (* the logic-program engine only yields per-component minimal
             repairs, which cannot be recombined exactly here — stay
             monolithic, and say so in the stats instead of degrading
             invisibly *)
          (match budget with
          | Some b ->
              Budget.note_degraded b ~stage:"decompose"
                "inexact component product (cross-component null covering): \
                 logic-program engine computed monolithic repairs instead"
          | None -> ());
          Result.map
            (outcome_of_repairs ?semantics ~standard q)
            (repairs_of mat ?budget max_effort d ics)
      | _ ->
          Result.bind (solve_components mat ?budget ~jobs max_effort d ics plan)
            (fun (minimal, states, completed, exhausted) ->
              match exhausted with
              | Some e when completed = 0 ->
                  (* nothing was solved: there is no partial work to
                     return *)
                  Error (Budget.message e)
              | _ ->
                  Ok
                    (factorized_outcome ?semantics ~jobs ?states ?exhausted
                       ~plan ~minimal ~standard q)))

(* ------------------------------------------------------------------ *)
(* Routed CQA: the [Auto] method.

   Every conflict component is classified by {!Route.Tier} and solved on
   the cheapest sound engine: the repair-less direct computation
   ({!Route.Direct}), the repair program (statically-HCF components run it
   shifted — {!Core.Engine} consults {!Asp.Shift} internally), or the
   model-theoretic enumeration as last resort.  The merge follows the
   decomposed engines' prefix rule, so partial outcomes under exhaustion
   have the same shape as a cold decomposed run. *)

type routed_solved =
  | Rsolved of Instance.t list
  | Rtrip of Budget.exhausted
  | Rerr of string

let routed_solve ?budget ?(jobs = 1) max_effort (plan : Repair.Decompose.plan)
    =
  let verdicts = Route.Tier.plan plan in
  (match budget with
  | Some b ->
      List.iter
        (fun (v : Route.Tier.verdict) -> Budget.note_route b v.Route.Tier.tier)
        verdicts
  | None -> ());
  let solve_one ((c : Repair.Decompose.component), (v : Route.Tier.verdict)) =
    let base = Instance.union c.Repair.Decompose.sub c.Repair.Decompose.support in
    match v.Route.Tier.tier with
    | Budget.Direct -> (
        let a = Option.get v.Route.Tier.direct in
        match Route.Direct.minimal_repairs ?budget a with
        | reps ->
            (match budget with
            | Some b -> Budget.note_worker_component b
            | None -> ());
            Rsolved reps
        | exception Budget.Exhausted e -> Rtrip e)
    | Budget.Shifted | Budget.Disjunctive -> (
        match
          Core.Engine.solve_components ?budget ?max_decisions:max_effort
            { plan with Repair.Decompose.components = [ c ] }
        with
        | Error msg -> Rerr msg
        | Ok { Core.Engine.exhausted = Some e; _ } -> Rtrip e
        | Ok { Core.Engine.solved = [ reps ]; _ } -> Rsolved reps
        | Ok _ -> assert false)
    | Budget.Enumerated -> (
        match
          Repair.Enumerate.search ?budget ?max_states:max_effort
            ~universe:plan.Repair.Decompose.universe
            ~nnc_positions:plan.Repair.Decompose.nnc_positions base
            c.Repair.Decompose.ics
        with
        | states ->
            (match budget with
            | Some b -> Budget.note_worker_component b
            | None -> ());
            Rsolved (Repair.Order.minimal_among ~d:base states)
        | exception Repair.Enumerate.Budget_exceeded n ->
            Rtrip (Budget.States n)
        | exception Budget.Exhausted e -> Rtrip e)
  in
  let tasks = List.combine plan.Repair.Decompose.components verdicts in
  let results =
    if jobs <= 1 || List.length tasks <= 1 then
      (* sequential: stop at the first trip so no budget is spent past it *)
      let rec seq acc stopped = function
        | [] -> List.rev acc
        | task :: rest ->
            if stopped then seq (`Unsolved :: acc) stopped rest
            else
              let r = solve_one task in
              let stopped =
                match r with Rsolved _ -> stopped | _ -> true
              in
              seq (`Run r :: acc) stopped rest
      in
      seq [] false tasks
    else
      Parallel.Pool.with_pool ~jobs
        ~init:(fun w -> Budget.set_worker_slot (w + 1))
        (fun pool ->
          Parallel.Pool.map pool (fun task -> `Run (solve_one task)) tasks)
  in
  (* prefix-rule merge, in plan order: everything from the first trip on
     degrades to its unrepaired base slice *)
  let rec scan minimal completed = function
    | [] -> Ok (List.rev minimal, completed, None)
    | (`Run (Rsolved reps), (_, v)) :: rest ->
        (* the program tiers run through Core.Engine, which notes kept
           components itself *)
        (match (budget, v.Route.Tier.tier) with
        | Some b, (Budget.Direct | Budget.Enumerated) ->
            Budget.note_component b
        | _ -> ());
        scan (reps :: minimal) (completed + 1) rest
    | (`Run (Rerr m), _) :: _ -> Error m
    | ((`Run (Rtrip _) | `Unsolved), _) :: _ as remaining ->
        let ex =
          match remaining with
          | (`Run (Rtrip ex), _) :: _ -> ex
          | _ -> assert false
        in
        let degraded =
          List.map
            (fun (_, (c, _)) ->
              [ Instance.union c.Repair.Decompose.sub c.Repair.Decompose.support ])
            remaining
        in
        Ok (List.rev_append minimal degraded, completed, Some ex)
  in
  scan [] 0 (List.combine results tasks)

let routed_outcome ?budget ?semantics ?(jobs = 1) max_effort d ics
    (q : Qsyntax.t) =
  let standard = Qeval.answers ?semantics d q in
  match Repair.Decompose.plan ?budget d ics with
  | exception Budget.Exhausted e -> Error (Budget.message e)
  | plan -> (
      match plan.Repair.Decompose.components with
      | [] ->
          Ok
            {
              consistent = standard;
              possible = standard;
              standard;
              repair_count = 1;
              exhausted = None;
            }
      | components when not plan.Repair.Decompose.product_exact ->
          (* cross-component null covering: per-component minimal repairs
             do not recombine exactly, so no per-tier dispatch is sound —
             route the whole plan to the decomposed enumeration, which
             re-filters the recombined states globally *)
          (match budget with
          | Some b ->
              Budget.note_degraded b ~stage:"route"
                "inexact component product (cross-component null covering): \
                 whole plan routed to decomposed enumeration";
              List.iter
                (fun _ -> Budget.note_route b Budget.Enumerated)
                components
          | None -> ());
          decomposed_outcome Enumerator ?budget ?semantics ~jobs max_effort d
            ics q
      | _ ->
          Result.bind (routed_solve ?budget ~jobs max_effort plan)
            (fun (minimal, completed, exhausted) ->
              match exhausted with
              | Some e when completed = 0 -> Error (Budget.message e)
              | _ ->
                  Ok
                    (factorized_outcome ?semantics ~jobs ?exhausted ~plan
                       ~minimal ~standard q)))

let consistent_answers ?(method_ = LogicProgram) ?semantics ?budget ?max_effort
    ?(decompose = false) ?jobs d ics q =
  match method_ with
  | Auto ->
      (* routing always decomposes (per-component verdicts); ~decompose
         is implied *)
      ignore decompose;
      routed_outcome ?budget ?semantics ?jobs max_effort d ics q
  | CautiousProgram ->
      if decompose then
        Error
          "the cautious-program method cannot decompose: it materializes no \
           per-component repairs to recombine; use the model-theoretic or \
           logic-program engine with ~decompose, or drop ~decompose"
      else
        Result.map
          (fun (o : Progcqa.outcome) ->
            {
              consistent = o.Progcqa.consistent;
              possible = o.Progcqa.possible;
              standard = Qeval.answers ?semantics d q;
              repair_count = o.Progcqa.stable_models;
              exhausted = None;
            })
          (Progcqa.consistent_answers ?budget ?max_decisions:max_effort d ics q)
  | ModelTheoretic | LogicProgram ->
      let mat =
        if method_ = ModelTheoretic then Enumerator else ProgramEngine
      in
      if decompose then
        decomposed_outcome mat ?budget ?semantics ?jobs max_effort d ics q
      else
        Result.map
          (fun repairs ->
            let answer_sets =
              List.map (fun r -> Qeval.answers ?semantics r q) repairs
            in
            outcome_of_answer_sets
              (Qeval.answers ?semantics d q)
              (List.length repairs) answer_sets)
          (repairs_of mat ?budget max_effort d ics)

let certain ?method_ ?semantics ?budget ?max_effort ?decompose ?jobs d ics q =
  if not (Qsyntax.is_boolean q) then Error "certain: query has head variables"
  else
    Result.map
      (fun o -> Tuple.Set.mem (Tuple.make []) o.consistent)
      (consistent_answers ?method_ ?semantics ?budget ?max_effort ?decompose
         ?jobs d ics
         { q with Qsyntax.head = [] })

(* An answer set in the syntax of [Tuple.pp] lists, "{(a, b), (c, null)}",
   written to the formatter as one string: the set holds no break hint and
   opens no box, so one token prints exactly the bytes the per-value tokens
   did, wherever the outcome is nested. *)
let answer_set_string s =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '{';
  let first = ref true in
  Tuple.Set.iter
    (fun t ->
      if !first then first := false else Buffer.add_string buf ", ";
      Buffer.add_char buf '(';
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Relational.Value.to_string v))
        t;
      Buffer.add_char buf ')')
    s;
  Buffer.add_char buf '}';
  Buffer.contents buf

let pp_outcome ppf o =
  let pp_set ppf s = Format.pp_print_string ppf (answer_set_string s) in
  Fmt.pf ppf "@[<v>consistent: %a@,possible:   %a@,standard:   %a@,repairs:    %d%a@]"
    pp_set o.consistent pp_set o.possible pp_set o.standard o.repair_count
    Fmt.(option (fun ppf e -> pf ppf "@,partial:    %a" Budget.pp_exhausted e))
    o.exhausted
