module Atom = Relational.Atom
module Instance = Relational.Instance
module Nullsat = Semantics.Nullsat

exception Budget_exceeded of int

type action = Actions.action = Delete of Atom.t | Insert of Atom.t

let pp_action = Actions.pp_action
let fixes = Actions.fixes

module Iset = Set.Make (struct
  type t = Instance.t

  let compare = Instance.compare
end)

let search ?budget ?(max_states = 200_000) ?universe ?nnc_positions ?explored d
    ics =
  (* The universe and NNC positions are instance-global (Proposition 1):
     per-component sub-searches receive the full instance's, already
     computed once by the planner, instead of refolding the active domain
     for every component. *)
  let universe =
    match universe with Some u -> u | None -> Candidates.universe d ics
  in
  let nnc_positions =
    match nnc_positions with
    | Some n -> n
    | None -> Actions.nnc_positions_of ics
  in
  let seen = ref Iset.empty in
  let consistent = ref [] in
  let count = match explored with Some r -> r := 0; r | None -> ref 0 in
  (* violations are tracked per constraint and recomputed only for the
     constraints mentioning the predicate an action touched — a constraint's
     violations depend solely on the tuples of its own predicates *)
  let rec explore state per_ic =
    if not (Iset.mem state !seen) then begin
      seen := Iset.add state !seen;
      incr count;
      if !count > max_states then raise (Budget_exceeded max_states);
      (match budget with Some b -> Budget.tick_state b | None -> ());
      match List.concat_map snd per_ic with
      | [] -> consistent := state :: !consistent
      | violations ->
          (* branch on the fixes of EVERY current violation: an insertion
             made for one constraint can be the only way another
             constraint's violation is resolved in some repair (e.g. a UIC
             consequent witnessing a RIC), so restricting to the first
             violation's own actions would lose repairs *)
          let actions =
            Actions.dedup_actions
              (List.concat_map
                 (Actions.fixes ~universe ~nnc_positions state)
                 violations)
          in
          List.iter
            (fun act ->
              let state' = Actions.apply state act in
              let touched =
                match act with Delete a | Insert a -> Atom.pred a
              in
              let per_ic' =
                List.map
                  (fun (ic, vs) ->
                    if List.mem touched (Ic.Constr.preds ic) then
                      (ic, Nullsat.violations state' ic)
                    else (ic, vs))
                  per_ic
              in
              explore state' per_ic')
            actions
    end
  in
  explore d (List.map (fun ic -> (ic, Nullsat.violations d ic)) ics);
  List.rev !consistent

let consistent_states ?budget ?max_states d ics = search ?budget ?max_states d ics

(* ------------------------------------------------------------------ *)
(* Conflict-component decomposition (see Decompose) *)

type decomposed = {
  plan : Decompose.plan;
  minimal : Instance.t list list;
  states : Instance.t list list;
  explored : int list;
  exhausted : Budget.exhausted option;
}

let solve_component ?budget ?max_states (plan : Decompose.plan)
    (c : Decompose.component) =
  let base = Decompose.base c in
  let explored = ref 0 in
  match
    search ?budget ?max_states ~universe:plan.Decompose.universe
      ~nnc_positions:plan.Decompose.nnc_positions ~explored base
      c.Decompose.ics
  with
  | states ->
      (* Minimality is component-local: the symmetric differences of two
         recombined repairs split by component, so filtering each
         component's states against its own base replaces the cross
         product's quadratic filter by per-component ones. *)
      Decompose.Solved (Order.minimal_among ~d:base states, states, !explored)
  | exception Budget_exceeded n -> Decompose.Tripped (Budget.States n)
  | exception Budget.Exhausted e -> Decompose.Tripped e

let decomposed ?budget ?max_states ?jobs d ics =
  let plan = Decompose.plan ?budget d ics in
  let filler c =
    let base = Decompose.base c in
    ([ base ], [ base ], 0)
  in
  match
    Decompose.solve ?budget ?jobs ~filler
      (solve_component ?budget ?max_states plan)
      plan.Decompose.components
  with
  | Error _ -> assert false (* the search trips, it never fails *)
  | Ok (solved, _, exhausted) ->
      {
        plan;
        minimal = List.map (fun (m, _, _) -> m) solved;
        states = List.map (fun (_, s, _) -> s) solved;
        explored = List.map (fun (_, _, e) -> e) solved;
        exhausted;
      }

let repairs ?budget ?max_states ?(decompose = false) ?(jobs = 1) d ics =
  if not decompose then
    Order.minimal_among ~d (search ?budget ?max_states d ics)
  else
    let r = decomposed ?budget ?max_states ~jobs d ics in
    (* [repairs] promises the full repair set, so a partial decomposition
       cannot be returned here — re-raise and let the result-returning
       engines (Cqa, Engine) do the graceful degradation. *)
    (match r.exhausted with
    | Some (Budget.States n) -> raise (Budget_exceeded n)
    | Some e -> raise (Budget.Exhausted e)
    | None -> ());
    match r.plan.Decompose.components with
    | [] -> [ d ]
    | _ ->
        if r.plan.Decompose.product_exact then
          List.of_seq (Decompose.product r.plan.Decompose.core r.minimal)
        else
          (* Cross-component covering could beat a product of locally
             minimal repairs (or keep a locally non-minimal component in a
             global repair), so recombine the consistent states and filter
             globally — still cheaper than the monolithic search, which
             explores the product state space instead of recombining it. *)
          Order.minimal_among ~d
            (List.of_seq (Decompose.product r.plan.Decompose.core r.states))
