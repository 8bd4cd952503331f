module Atom = Relational.Atom
module Instance = Relational.Instance
module Value = Relational.Value
module Nullsat = Semantics.Nullsat

type action = Delete of Atom.t | Insert of Atom.t

let pp_action ppf = function
  | Delete a -> Fmt.pf ppf "delete %a" Atom.pp a
  | Insert a -> Fmt.pf ppf "insert %a" Atom.pp a

(* NOT NULL-constrained positions, as (predicate, position) pairs. *)
let nnc_positions_of ics =
  List.filter_map
    (function
      | Ic.Constr.NotNull n -> Some (n.pred, n.pos)
      | Ic.Constr.Generic _ -> None)
    ics

(* Ground instantiations of a consequent atom under the antecedent
   assignment [theta].  Existential positions take [null]; positions under a
   conflicting NNC range over the non-null universe instead. *)
let insertions ~universe ~nnc_positions theta atom =
  let pred = Ic.Patom.pred atom in
  let terms = Ic.Patom.terms atom in
  (* copied out of the universe only if some existential position is
     NOT NULL-constrained — otherwise every choice is [null] *)
  let non_null_universe =
    lazy (List.filter (fun v -> not (Value.is_null v)) universe)
  in
  (* Collect the distinct existential variables together with whether any of
     their positions is NOT NULL-constrained. *)
  let existentials =
    List.mapi (fun i t -> (i + 1, t)) terms
    |> List.filter_map (fun (pos, t) ->
           match t with
           | Ic.Term.Const _ -> None
           | Ic.Term.Var x ->
               if Option.is_some (Semantics.Assign.find theta x) then None
               else Some (x, List.mem (pred, pos) nnc_positions))
  in
  let existentials =
    (* deduplicate per variable, a variable is constrained if any of its
       positions is *)
    List.fold_left
      (fun acc (x, constrained) ->
        match List.assoc_opt x acc with
        | None -> (x, constrained) :: acc
        | Some c ->
            (x, c || constrained) :: List.remove_assoc x acc)
      [] existentials
    |> List.rev
  in
  let rec assignments theta = function
    | [] -> [ theta ]
    | (x, constrained) :: rest ->
        let choices =
          if constrained then Lazy.force non_null_universe else [ Value.null ]
        in
        List.concat_map
          (fun v ->
            match Semantics.Assign.bind theta x v with
            | Some theta' -> assignments theta' rest
            | None -> [])
          choices
  in
  List.map
    (fun theta' -> Ic.Patom.ground (Semantics.Assign.lookup_exn theta') atom)
    (assignments theta existentials)

(* Whether [insertions] reads the universe for some consequent atom of
   [ics]: only an existential position under a NOT NULL constraint ranges
   over it, every other one takes [null]. *)
let reads_universe ~nnc_positions ics =
  List.exists
    (function
      | Ic.Constr.NotNull _ -> false
      | Ic.Constr.Generic g ->
          List.exists
            (fun atom ->
              List.exists
                (fun x ->
                  List.exists
                    (fun pos -> List.mem (Ic.Patom.pred atom, pos) nnc_positions)
                    (Ic.Patom.positions_of atom (Ic.Term.var x)))
                (Ic.Constr.existential_vars_of_atom g atom))
            g.Ic.Constr.cons)
    ics

(* Only an insertion at a NOT NULL-constrained existential position reads
   the universe (Example 20); every other candidate is null there, and
   folding the active domain of a large instance for it would cost more
   than planning its conflicts. *)
let insertion_universe ~nnc_positions d ics =
  if reads_universe ~nnc_positions ics then Candidates.universe d ics else []

(* Deduplicate actions, first occurrence wins, through an action-keyed
   table — the List.mem scans this replaces were quadratic in the number of
   candidate actions per state. *)
let dedup_actions actions =
  let seen : (action, unit) Hashtbl.t = Hashtbl.create 16 in
  List.filter
    (fun a ->
      if Hashtbl.mem seen a then false
      else begin
        Hashtbl.add seen a ();
        true
      end)
    actions

let fixes ~universe ~nnc_positions d (v : Nullsat.violation) =
  let deletions = List.map (fun a -> Delete a) v.Nullsat.matched in
  let inserts =
    match v.Nullsat.ic with
    | Ic.Constr.NotNull _ -> []
    | Ic.Constr.Generic g ->
        List.concat_map
          (fun atom ->
            insertions ~universe ~nnc_positions v.Nullsat.theta atom
            |> List.filter (fun a -> not (Instance.mem a d))
            |> List.map (fun a -> Insert a))
          g.Ic.Constr.cons
  in
  (* deduplicate deletions (the same tuple can match several antecedent
     atoms) *)
  dedup_actions (deletions @ inserts)

let apply d = function
  | Delete a -> Instance.remove a d
  | Insert a -> Instance.add a d
