(* The Value-level join that the compiled joins of [Semantics.Assign]
   replaced, kept as their differential oracle.  Every row is unified as a
   [Value.t] tuple against the atom's terms, extending a string-keyed
   assignment, and index probes go through [Instance.iter_matching]: slow,
   but a direct reading of the join's specification.  The greedy atom order
   and the probe/scan choice are the ones the compiled join must reproduce
   match for match. *)

module Assign = Semantics.Assign
module Instance = Relational.Instance
module Value = Relational.Value

(* first position of the atom whose term is ground under theta, with its
   value, if any — the position whose column's postings are probed *)
let bound_position theta atom =
  let rec go i = function
    | [] -> None
    | t :: rest -> (
        match Assign.value_of_term theta t with
        | Some value -> Some (i, value)
        | None -> go (i + 1) rest)
  in
  go 0 (Ic.Patom.terms atom)

let iter_atom d theta atom f =
  match bound_position theta atom with
  | Some (pos, value) -> Instance.iter_matching d (Ic.Patom.pred atom) ~pos value f
  | None -> Instance.iter_rel d (Ic.Patom.pred atom) f

(* Greedy join ordering: at each step match the not-yet-matched atom with
   the most bound positions (constants and already-bound variables); ties
   go to the smaller relation, then to the earlier atom.  Witnesses are
   reported in the original order. *)
let iter_join_with_witness d a atoms ~f =
  let arr = Array.of_list atoms in
  let n = Array.length arr in
  let bound_score theta atom =
    List.fold_left
      (fun score t ->
        match t with
        | Ic.Term.Const _ -> score + 1
        | Ic.Term.Var x -> if Option.is_some (Assign.find theta x) then score + 1 else score)
      0 (Ic.Patom.terms atom)
  in
  let witness = Array.make n None in
  let used = Array.make n false in
  let rec go theta count =
    if count = n then f theta (List.map Option.get (Array.to_list witness))
    else begin
      let best = ref (-1) and best_key = ref (-1, 0) in
      for i = 0 to n - 1 do
        if not used.(i) then begin
          let key =
            (bound_score theta arr.(i), -Instance.rel_cardinal d (Ic.Patom.pred arr.(i)))
          in
          if !best = -1 || key > !best_key then begin
            best := i;
            best_key := key
          end
        end
      done;
      let i = !best in
      let atom = arr.(i) in
      used.(i) <- true;
      iter_atom d theta atom (fun t ->
          match Assign.match_tuple theta (Ic.Patom.terms atom) t with
          | None -> ()
          | Some theta' ->
              witness.(i) <- Some (Relational.Atom.of_tuple (Ic.Patom.pred atom) t);
              go theta' (count + 1));
      used.(i) <- false;
      witness.(i) <- None
    end
  in
  go a 0

let join_with_witness d a atoms =
  let acc = ref [] in
  iter_join_with_witness d a atoms ~f:(fun theta ws -> acc := (theta, ws) :: !acc);
  List.rev !acc

let atom_matches d a atom =
  let acc = ref [] in
  iter_atom d a atom (fun t ->
      match Assign.match_tuple a (Ic.Patom.terms atom) t with
      | Some a' -> acc := a' :: !acc
      | None -> ());
  !acc

let exists_match d a atom =
  let exception Found in
  match
    iter_atom d a atom (fun t ->
        if Option.is_some (Assign.match_tuple a (Ic.Patom.terms atom) t) then raise Found)
  with
  | () -> false
  | exception Found -> true

(* [Nullsat.check] on the oracle join: a total antecedent match violates
   unless a relevant universal variable is null or the consequent holds. *)
let generic_violations d g ic =
  let relevant = Ic.Relevant.relevant_universal_vars g in
  let acc = ref [] in
  iter_join_with_witness d Assign.empty g.Ic.Constr.ante ~f:(fun theta witness ->
      let null_escape =
        List.exists
          (fun x ->
            match Assign.find theta x with Some v -> Value.is_null v | None -> false)
          relevant
      in
      if
        not
          (null_escape
          || List.exists (exists_match d theta) g.Ic.Constr.cons
          || List.exists (Ic.Builtin.eval (Assign.lookup_exn theta)) g.Ic.Constr.phi)
      then acc := { Semantics.Nullsat.ic; theta; matched = witness } :: !acc);
  List.rev !acc

let nnc_violations d ic pred pos =
  let acc = ref [] in
  Instance.iter_matching d pred ~pos:(pos - 1) Value.null (fun t ->
      acc :=
        {
          Semantics.Nullsat.ic;
          theta = Assign.empty;
          matched = [ Relational.Atom.of_tuple pred t ];
        }
        :: !acc);
  !acc

let check d ics =
  List.concat_map
    (fun ic ->
      match ic with
      | Ic.Constr.Generic g -> generic_violations d g ic
      | Ic.Constr.NotNull n -> nnc_violations d ic n.pred n.pos)
    ics
