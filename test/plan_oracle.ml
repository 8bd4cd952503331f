(* The plan oracle: the round-based conflict-component planner that
   [Repair.Decompose.plan] replaced, kept as the reference its worklist
   closure is differentially tested against (test_decompose.ml).  Each
   closure round rescans every potential violation of the extended
   instance until a round activates nothing, then the support fixpoint
   rescans them until a round adds no support atom, and the attribution
   rescans them until no support atom's tags grow; the core is [d]
   filtered into fresh segments, and the universe is built as a set. *)

module Atom = Relational.Atom
module Instance = Relational.Instance
module Value = Relational.Value
module Assign = Semantics.Assign
module Nullsat = Semantics.Nullsat
module Decompose = Repair.Decompose
module Actions = Repair.Actions

(* Proposition 1's universe, adom(D) ∪ const(IC) ∪ {null}, sorted. *)
let universe d ics =
  let module Vset = Set.Make (Value) in
  Vset.elements
    (Vset.add Value.null
       (Vset.union
          (Vset.of_list (Instance.active_domain d))
          (Vset.of_list (Repair.Candidates.constants_of_ics ics))))

(* Union-find over ground atoms.  An absent key is its own singleton
   class. *)

type uf = (Atom.t, Atom.t) Hashtbl.t

let uf_create () : uf = Hashtbl.create 64

let rec uf_find (uf : uf) a =
  match Hashtbl.find_opt uf a with
  | None -> a
  | Some p when Atom.equal p a -> a
  | Some p ->
      let r = uf_find uf p in
      Hashtbl.replace uf a r;
      r

let uf_union uf a b =
  let ra = uf_find uf a and rb = uf_find uf b in
  if not (Atom.equal ra rb) then Hashtbl.replace uf ra rb

let uf_merge_all uf = function
  | [] -> ()
  | a :: rest -> List.iter (uf_union uf a) rest

(* Potential violations: antecedent matches over the extended instance,
   null-escape and built-in filtered, with no consequent-existence check. *)

let phi_holds g theta =
  let lookup x = Assign.lookup_exn theta x in
  List.exists (Ic.Builtin.eval lookup) g.Ic.Constr.phi

let null_escape g =
  let relevant = Ic.Relevant.relevant_universal_vars g in
  fun theta ->
    List.exists
      (fun x ->
        match Assign.find theta x with
        | Some v -> Value.is_null v
        | None -> false)
      relevant

(* Ground consequent atoms of [g] present in [d_ext] under [theta]
   (existential positions match any value). *)
let cons_witnesses d_ext g theta =
  List.concat_map
    (fun c ->
      Join_oracle.atom_matches d_ext theta c
      |> List.map (fun theta' -> Ic.Patom.ground (Assign.lookup_exn theta') c))
    g.Ic.Constr.cons

let iter_pvs d_ext ics ~f =
  List.iter
    (function
      | Ic.Constr.NotNull _ -> ()
      | Ic.Constr.Generic g ->
          let escape = null_escape g in
          Join_oracle.iter_join_with_witness d_ext Assign.empty g.Ic.Constr.ante
            ~f:(fun theta witness ->
              if not (escape theta || phi_holds g theta) then f g theta witness))
    ics

(* The closure rescans every potential violation per round; the support
   fixpoint and its attribution likewise.  Returns the plan and the
   support fixpoint itself, which the components' supports must cover. *)

let plan_and_support d ics =
  let universe = universe d ics in
  let nnc_positions = Actions.nnc_positions_of ics in
  let uf = uf_create () in
  let active = ref Atom.Set.empty in
  let d_ext = ref d in
  let activate nodes =
    let fresh =
      List.filter (fun a -> not (Atom.Set.mem a !active)) nodes
    in
    List.iter
      (fun a ->
        active := Atom.Set.add a !active;
        if not (Instance.mem a !d_ext) then d_ext := Instance.add a !d_ext)
      fresh;
    uf_merge_all uf nodes;
    fresh <> []
  in
  (* Seeds: the actual violations of d. *)
  List.iter
    (fun ic ->
      List.iter
        (fun (v : Nullsat.violation) ->
          let inserts =
            match v.Nullsat.ic with
            | Ic.Constr.NotNull _ -> []
            | Ic.Constr.Generic g ->
                List.concat_map
                  (Actions.insertions ~universe ~nnc_positions v.Nullsat.theta)
                  g.Ic.Constr.cons
          in
          ignore (activate (v.Nullsat.matched @ inserts)))
        (Nullsat.violations d ic))
    ics;
  (* Closure of the active set under cascades. *)
  let changed = ref (not (Atom.Set.is_empty !active)) in
  while !changed do
    changed := false;
    let snapshot = !d_ext in
    iter_pvs snapshot ics ~f:(fun g theta witness ->
        let witnesses = cons_witnesses snapshot g theta in
        let is_core a = Instance.mem a d && not (Atom.Set.mem a !active) in
        if not (List.exists is_core witnesses) then begin
          let live =
            List.exists (fun a -> Atom.Set.mem a !active) witness
            || witnesses <> []
          in
          if live then begin
            let inserts =
              List.concat_map
                (Actions.insertions ~universe ~nnc_positions theta)
                g.Ic.Constr.cons
            in
            if activate (witness @ witnesses @ inserts) then changed := true
          end
        end)
  done;
  (* Support: core witnesses keeping otherwise-matchable pvs satisfied. *)
  let support = ref Instance.empty in
  let support_changed = ref true in
  while !support_changed do
    support_changed := false;
    iter_pvs !d_ext ics ~f:(fun g theta witness ->
        let matchable =
          List.for_all
            (fun a -> Atom.Set.mem a !active || Instance.mem a !support)
            witness
        in
        if matchable then
          let witnesses = cons_witnesses !d_ext g theta in
          let core_witness =
            List.find_opt
              (fun a -> Instance.mem a d && not (Atom.Set.mem a !active))
              witnesses
          in
          match core_witness with
          | Some w when not (Instance.mem w !support) ->
              support := Instance.add w !support;
              support_changed := true
          | _ -> ())
  done;
  (* Attribution: each support atom is tagged with the classes of the
     active antecedent atoms, and the tags of the support antecedent atoms,
     of every potential violation it witnesses. *)
  let tags : (Atom.t, Atom.Set.t) Hashtbl.t = Hashtbl.create 16 in
  let tags_of a = Option.value ~default:Atom.Set.empty (Hashtbl.find_opt tags a) in
  let tags_changed = ref true in
  while !tags_changed do
    tags_changed := false;
    iter_pvs !d_ext ics ~f:(fun g theta witness ->
        let matchable =
          List.for_all
            (fun a -> Atom.Set.mem a !active || Instance.mem a !support)
            witness
        in
        if matchable then
          match
            List.find_opt
              (fun a -> Instance.mem a d && not (Atom.Set.mem a !active))
              (cons_witnesses !d_ext g theta)
          with
          | Some w ->
              let pulled =
                List.fold_left
                  (fun acc a ->
                    if Atom.Set.mem a !active then Atom.Set.add (uf_find uf a) acc
                    else Atom.Set.union (tags_of a) acc)
                  Atom.Set.empty witness
              in
              if not (Atom.Set.subset pulled (tags_of w)) then begin
                Hashtbl.replace tags w (Atom.Set.union pulled (tags_of w));
                tags_changed := true
              end
          | None -> ())
  done;
  (* Extract components in a deterministic order. *)
  let classes : (Atom.t, Atom.Set.t) Hashtbl.t = Hashtbl.create 16 in
  Atom.Set.iter
    (fun a ->
      let r = uf_find uf a in
      let prev =
        Option.value ~default:Atom.Set.empty (Hashtbl.find_opt classes r)
      in
      Hashtbl.replace classes r (Atom.Set.add a prev))
    !active;
  let components =
    Hashtbl.fold (fun r atoms acc -> (r, atoms) :: acc) classes []
    |> List.sort (fun (_, a) (_, b) ->
           Atom.compare (Atom.Set.min_elt a) (Atom.Set.min_elt b))
    |> List.map (fun (r, atoms) ->
           let preds =
             Atom.Set.fold
               (fun a acc ->
                 if List.mem (Atom.pred a) acc then acc else Atom.pred a :: acc)
               atoms []
           in
           let ics =
             List.filter
               (fun ic ->
                 List.exists (fun p -> List.mem p preds) (Ic.Constr.preds ic))
               ics
           in
           {
             Decompose.atoms;
             sub =
               Atom.Set.fold
                 (fun a acc -> if Instance.mem a d then Instance.add a acc else acc)
                 atoms Instance.empty;
             support =
               Instance.filter (fun a -> Atom.Set.mem r (tags_of a)) !support;
             ics;
           })
  in
  let core = Instance.filter (fun a -> not (Atom.Set.mem a !active)) d in
  (* Product exactness: per-component minimality implies global minimality
     unless a null-carrying atom of one component could cover (condition
     (b) of <=_D) an atom of another — only then can a cross product of
     locally minimal repairs be beaten through cross-component covering. *)
  let product_exact =
    let tagged =
      List.concat
        (List.mapi
           (fun i c -> List.map (fun a -> (i, a)) (Atom.Set.elements c.Decompose.atoms))
           components)
    in
    let by_pred : (string, (int * Atom.t) list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (i, a) ->
        let p = Atom.pred a in
        Hashtbl.replace by_pred p
          ((i, a) :: Option.value ~default:[] (Hashtbl.find_opt by_pred p)))
      tagged;
    (* Candidate covers of a null-carrying atom must agree with it on every
       non-null position, so within each predicate group a posting index
       keyed by (position, value) narrows the candidates to atoms sharing
       the probe value at the atom's first non-null position — replacing the
       pairwise scan of the whole group.  A fully-null atom constrains no
       position and falls back to the group. *)
    let exception Not_exact in
    try
      Hashtbl.iter
        (fun _ group ->
          let posting : (int * Value.t, (int * Atom.t) list) Hashtbl.t =
            Hashtbl.create 32
          in
          List.iter
            (fun (j, b) ->
              Array.iteri
                (fun p v ->
                  Hashtbl.replace posting (p, v)
                    ((j, b)
                    :: Option.value ~default:[] (Hashtbl.find_opt posting (p, v))))
                (Atom.args b))
            group;
          List.iter
            (fun (i, a) ->
              if Atom.has_null a then begin
                let args = Atom.args a in
                let probe =
                  let rec go p =
                    if p >= Array.length args then None
                    else if Value.is_null args.(p) then go (p + 1)
                    else Some p
                  in
                  go 0
                in
                let candidates =
                  match probe with
                  | Some p ->
                      Option.value ~default:[]
                        (Hashtbl.find_opt posting (p, args.(p)))
                  | None -> group
                in
                if
                  List.exists
                    (fun (j, b) ->
                      i <> j && Repair.Order.matches_non_null_positions a b)
                    candidates
                then raise Not_exact
              end)
            group)
        by_pred;
      true
    with Not_exact -> false
  in
  ( { Decompose.core; components; universe; nnc_positions; product_exact },
    !support )
