module Value = Relational.Value
module Instance = Relational.Instance

type violation = {
  ic : Ic.Constr.t;
  theta : Assign.t;
  matched : Relational.Atom.t list;
}

let pp_violation ppf v =
  Fmt.pf ppf "@[<h>%s violated by %a under %a@]" (Ic.Constr.label v.ic)
    Fmt.(list ~sep:(any ", ") Relational.Atom.pp)
    v.matched Assign.pp v.theta

let phi_holds g theta =
  let lookup x = Assign.lookup_exn theta x in
  List.exists (Ic.Builtin.eval lookup) g.Ic.Constr.phi

(* Compiled once on partial application: the consequent atoms become
   existence tests prepared for the universal variables. *)
let consequent_holds d g =
  let bound = Ic.Constr.universal_vars g in
  let probes = List.map (Assign.prepared_exists d ~bound) g.Ic.Constr.cons in
  fun theta -> List.exists (fun p -> p theta) probes || phi_holds g theta

(* Generic constraint: a total antecedent match violates unless a relevant
   universal variable is bound to null (the IsNull disjuncts of formula (4))
   or the consequent holds.  The antecedent runs as one compiled join from
   [seed] (empty for a full check); the null escape reads codes, each
   consequent atom is a compiled probe reading the join's slots, [phi]'s
   equalities compare codes and only its other built-ins decode.  A
   violation's binding and witness atoms are built when it is reported,
   never for a satisfied match.  The join is consumed as it is produced,
   so callers that only want the first witness (consistency checks)
   abort after one match instead of materializing every violation. *)
let iter_violations ?(seed = Assign.empty) d g ic ~f =
  let module J = Assign.Join in
  let bound = List.map fst (Assign.bindings seed) in
  let j = J.compile d ~bound g.Ic.Constr.ante in
  let relevant = J.slots_of j (Ic.Relevant.relevant_universal_vars g) in
  let probes = List.map (J.probe j d) g.Ic.Constr.cons in
  let phi = J.builtins j g.Ic.Constr.phi in
  J.iter j seed (fun () ->
      if not (J.any_null j relevant || List.exists (fun p -> p ()) probes || phi ())
      then f { ic; theta = J.assignment j; matched = J.witness j })

let generic_violations d g ic =
  let acc = ref [] in
  iter_violations d g ic ~f:(fun v -> acc := v :: !acc);
  List.rev !acc

(* NNC offenders are exactly the posting list of [null] at the constrained
   column — one index probe instead of a relation scan.  The accumulator is
   consed over the ascending probe, preserving the historical (descending)
   report order of the set-fold implementation. *)
let nnc_violations (n : (string * int * int)) ic d =
  let pred, _arity, pos = n in
  let acc = ref [] in
  Instance.iter_matching d pred ~pos:(pos - 1) Value.null (fun t ->
      acc :=
        { ic; theta = Assign.empty; matched = [ Relational.Atom.of_tuple pred t ] }
        :: !acc);
  !acc

let violations d ic =
  match ic with
  | Ic.Constr.Generic g -> generic_violations d g ic
  | Ic.Constr.NotNull n -> nnc_violations (n.pred, n.arity, n.pos) ic d

(* Early-exit path: stop at the first witness instead of materializing the
   full violation list. *)
let has_violation d ic =
  let exception Witness in
  match
    match ic with
    | Ic.Constr.Generic g -> iter_violations d g ic ~f:(fun _ -> raise Witness)
    | Ic.Constr.NotNull n ->
        Instance.iter_matching d n.pred ~pos:(n.pos - 1) Value.null (fun _ ->
            raise Witness)
  with
  | () -> false
  | exception Witness -> true

let satisfies d ic = not (has_violation d ic)

let check d ics = List.concat_map (violations d) ics
let consistent d ics = List.for_all (satisfies d) ics

(* ------------------------------------------------------------------ *)
(* Literal Definition 4: project, then evaluate psi_N on the projection. *)

let satisfies_literal d ic =
  match ic with
  | Ic.Constr.NotNull _ -> satisfies d ic
  | Ic.Constr.Generic g ->
      let da = Ic.Relevant.project_instance ic d in
      let ante_p = List.map (Ic.Relevant.project_atom ic) g.Ic.Constr.ante in
      let cons_p = List.map (Ic.Relevant.project_atom ic) g.Ic.Constr.cons in
      let relevant = Ic.Relevant.relevant_universal_vars g in
      let matches = Assign.join da Assign.empty ante_p in
      let bound = List.concat_map Ic.Patom.vars ante_p in
      let cons_p = List.map (Assign.prepared_exists da ~bound) cons_p in
      List.for_all
        (fun theta ->
          let null_escape =
            List.exists
              (fun x ->
                match Assign.find theta x with
                | Some v -> Value.is_null v
                | None -> false)
              relevant
          in
          null_escape
          || List.exists (fun p -> p theta) cons_p
          || phi_holds g theta)
        matches

(* ------------------------------------------------------------------ *)
(* Canonical violation order *)

let compare_violation a b =
  (* matched is in antecedent order, so (ic, matched) determines theta *)
  match Ic.Constr.compare a.ic b.ic with
  | 0 -> List.compare Relational.Atom.compare a.matched b.matched
  | c -> c

let canonical_violations vs = List.sort_uniq compare_violation vs

(* ------------------------------------------------------------------ *)
(* Admission checking *)

(* Violations of a generic constraint that involve one given ground atom,
   computed by {e seeding} the antecedent join instead of enumerating every
   violation and filtering: for each antecedent position whose predicate
   matches, unify the atom against it, and run the join from the resulting
   partial assignment — the join's index probes then restrict every other
   antecedent atom to the seed's bindings.  The same match can be reached
   from several seed positions, so callers deduplicate
   ({!canonical_violations}). *)
let iter_seeded_violations d g ic atom ~f =
  let pred = Relational.Atom.pred atom in
  let args = Relational.Atom.args atom in
  List.iter
    (fun ante_atom ->
      if String.equal (Ic.Patom.pred ante_atom) pred then
        match Assign.match_tuple Assign.empty (Ic.Patom.terms ante_atom) args with
        | None -> ()
        | Some seed ->
            iter_violations ~seed d g ic ~f:(fun v ->
                if List.exists (Relational.Atom.equal atom) v.matched then f v))
    g.Ic.Constr.ante

(* One seeded pass per relevant constraint, instead of materializing every
   violation of every constraint and filtering afterwards.  Constraints
   that do not mention the atom's predicate in their antecedent cannot
   match it and are skipped outright; for NNCs the answer is a direct
   probe of the atom itself.  The result is canonical (sorted,
   deduplicated). *)
let violations_involving d ics atom =
  let pred = Relational.Atom.pred atom in
  let acc = ref [] in
  List.iter
    (fun ic ->
      if List.mem pred (Ic.Constr.preds ic) then
        match ic with
        | Ic.Constr.Generic g ->
            iter_seeded_violations d g ic atom ~f:(fun v -> acc := v :: !acc)
        | Ic.Constr.NotNull n ->
            if
              String.equal n.pred pred
              && Relational.Atom.arity atom = n.arity
              && Value.is_null (Relational.Atom.args atom).(n.pos - 1)
              && Instance.mem atom d
            then acc := { ic; theta = Assign.empty; matched = [ atom ] } :: !acc)
    ics;
  canonical_violations !acc

(* ------------------------------------------------------------------ *)
(* Incremental maintenance.

   The violation set of a constraint is a function of the tuples of the
   predicates it mentions alone, so an update batch leaves every
   constraint whose relations are untouched with exactly its previous
   violations.  Touched constraints split further: when the delta stays
   out of a generic constraint's consequent, insertions can only create
   violations (every new antecedent match uses a new tuple, and none of
   its witnesses changed) and deletions can only remove them — one
   seeded [violations_involving] probe per inserted atom plus a filter
   over the previous violations replaces the full join.

   A constraint whose consequent predicates are touched used to be
   re-evaluated from scratch; it is now maintained by probes seeded on the
   delta's atoms:

   - a previous violation survives unless a matched atom was deleted or an
     inserted tuple now witnesses its consequent (one prepared probe per
     kept violation);
   - an inserted antecedent atom contributes its seeded violations as in
     the fast tier;
   - a deleted atom matching a consequent pattern may orphan antecedent
     matches it was the last witness of.  Unifying the deleted tuple
     against the consequent atom and restricting to the constraint's
     universal variables yields exactly the bindings the lost witness
     could have served; the antecedent join seeded with that restriction
     re-derives every such match, and the standard violation test (on the
     new instance) filters the ones that still have another witness.

   Completeness: a violation of the new instance either reuses only old
   tuples — then it was either already a violation (kept) or was silenced
   by a witness that must have been deleted (orphan seed finds it) — or
   matches an inserted tuple (insertion seed finds it).  The result is
   canonicalized, which also collapses seeds rediscovering the same
   match. *)

type delta_stats = { reused : int; fast : int; rescanned : int }

let check_delta ~before ~inserted ~deleted d ics =
  let touched_preds =
    List.sort_uniq String.compare
      (List.map Relational.Atom.pred (inserted @ deleted))
  in
  let reused = ref 0 and fast = ref 0 and rescanned = ref 0 in
  let per_ic ic =
    let preds = Ic.Constr.preds ic in
    if not (List.exists (fun p -> List.mem p touched_preds) preds) then begin
      incr reused;
      List.filter (fun v -> Ic.Constr.equal v.ic ic) before
    end
    else
      match ic with
      | Ic.Constr.NotNull n ->
          (* per-tuple constraint: drop deleted offenders, add inserted
             ones — no other tuple can change its status *)
          incr fast;
          let offender a =
            String.equal (Relational.Atom.pred a) n.pred
            && Relational.Atom.arity a = n.arity
            && Value.is_null (Relational.Atom.args a).(n.pos - 1)
          in
          List.filter
            (fun v ->
              Ic.Constr.equal v.ic ic
              && not (List.exists
                          (fun a ->
                            List.exists (Relational.Atom.equal a) v.matched)
                          deleted))
            before
          @ List.filter_map
              (fun a ->
                if offender a then
                  Some { ic; theta = Assign.empty; matched = [ a ] }
                else None)
              inserted
      | Ic.Constr.Generic g ->
          let cons_touched =
            List.exists
              (fun p -> List.mem p touched_preds)
              (Ic.Constr.cons_preds ic)
          in
          if cons_touched then begin
            incr rescanned;
            let ante_preds = Ic.Constr.ante_preds ic in
            let consequent_holds = consequent_holds d g in
            let kept =
              List.filter
                (fun v ->
                  Ic.Constr.equal v.ic ic
                  && (not
                        (List.exists
                           (fun a ->
                             List.exists (Relational.Atom.equal a) v.matched)
                           deleted))
                  && not (consequent_holds v.theta))
                before
            in
            let from_inserts =
              List.concat_map
                (fun a ->
                  if List.mem (Relational.Atom.pred a) ante_preds then
                    violations_involving d [ ic ] a
                  else [])
                inserted
            in
            let universal = Ic.Constr.universal_vars g in
            let orphans = ref [] in
            List.iter
              (fun a ->
                let pred = Relational.Atom.pred a in
                List.iter
                  (fun cons_atom ->
                    if String.equal (Ic.Patom.pred cons_atom) pred then
                      match
                        Assign.match_tuple Assign.empty
                          (Ic.Patom.terms cons_atom)
                          (Relational.Atom.args a)
                      with
                      | None -> ()
                      | Some theta0 ->
                          let seed = Assign.restrict theta0 universal in
                          iter_violations ~seed d g ic ~f:(fun v ->
                              orphans := v :: !orphans))
                  g.Ic.Constr.cons)
              deleted;
            kept @ from_inserts @ !orphans
          end
          else begin
            incr fast;
            let kept =
              List.filter
                (fun v ->
                  Ic.Constr.equal v.ic ic
                  && not
                       (List.exists
                          (fun a ->
                            List.exists (Relational.Atom.equal a) v.matched)
                          deleted))
                before
            in
            let fresh =
              List.concat_map
                (fun a ->
                  if List.mem (Relational.Atom.pred a) preds then
                    violations_involving d [ ic ] a
                  else [])
                inserted
            in
            kept @ fresh
          end
  in
  let result = canonical_violations (List.concat_map per_ic ics) in
  (result, { reused = !reused; fast = !fast; rescanned = !rescanned })
