module Atom = Relational.Atom
module Instance = Relational.Instance
module Nullsat = Semantics.Nullsat

type action = Actions.action = Delete of Atom.t | Insert of Atom.t

let pp_action = Actions.pp_action
let fixes = Actions.fixes

module Iset = Set.Make (struct
  type t = Instance.t

  let compare = Instance.compare
end)

let search ?budget ?universe ?nnc_positions ?explored d ics =
  (* The universe and NNC positions are instance-global (Proposition 1):
     per-component sub-searches receive the full instance's, already
     computed once by the planner, instead of refolding the active domain
     for every component. *)
  let nnc_positions =
    match nnc_positions with
    | Some n -> n
    | None -> Actions.nnc_positions_of ics
  in
  let universe =
    match universe with
    | Some u -> u
    | None -> Actions.insertion_universe ~nnc_positions d ics
  in
  let seen = ref Iset.empty in
  let consistent = ref [] in
  let count = match explored with Some r -> r := 0; r | None -> ref 0 in
  (* violations are tracked per constraint and recomputed only for the
     constraints mentioning the predicate an action touched — a constraint's
     violations depend solely on the tuples of its own predicates *)
  let rec explore state per_ic =
    (* [state] is unseen: the caller tests before it recomputes the
       successor's violations *)
    seen := Iset.add state !seen;
    incr count;
    Budget.check_search_states !count;
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
            if not (Iset.mem state' !seen) then begin
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
              explore state' per_ic'
            end)
          actions
  in
  explore d (List.map (fun ic -> (ic, Nullsat.violations d ic)) ics);
  List.rev !consistent

let repairs ?budget d ics = Order.minimal_among ~d (search ?budget d ics)

(* ------------------------------------------------------------------ *)
(* One conflict component (see Decompose) *)

let solve_component ?budget (plan : Decompose.plan) (c : Decompose.component)
    =
  let base = Decompose.base c in
  let explored = ref 0 in
  match
    search ?budget ~universe:plan.Decompose.universe
      ~nnc_positions:plan.Decompose.nnc_positions ~explored base
      c.Decompose.ics
  with
  | states ->
      (* Minimality is component-local: the symmetric differences of two
         recombined repairs split by component, so filtering each
         component's states against its own base replaces the cross
         product's quadratic filter by per-component ones. *)
      Decompose.Solved (Order.minimal_among ~d:base states, states, !explored)
  | exception Budget.Exhausted e -> Decompose.Tripped e
