module Atom = Relational.Atom
module Tuple = Relational.Tuple
module Instance = Relational.Instance
module Value = Relational.Value
module Assign = Semantics.Assign
module Nullsat = Semantics.Nullsat

type component = {
  atoms : Atom.Set.t;
  sub : Instance.t;
  support : Instance.t;
  ics : Ic.Constr.t list;
}

type plan = {
  core : Instance.t;
  components : component list;
  universe : Value.t list;
  nnc_positions : (string * int) list;
  product_exact : bool;
}

(* ------------------------------------------------------------------ *)
(* Atom-keyed tables hashed by the atom's tuple and compared with
   [Atom.equal]: the generic [Hashtbl] hashes the whole record and
   compares it with the polymorphic primitives, on every probe of the
   closure. *)

module Atbl = Hashtbl.Make (struct
  type t = Atom.t

  let equal = Atom.equal
  let hash a = Tuple.hash (Atom.args a)
end)

(* Fired potential violations, keyed by (constraint index, antecedent
   match). *)
module Fired = Hashtbl.Make (struct
  type t = int * Atom.t list

  let equal (i, w) (j, w') = Int.equal i j && List.equal Atom.equal w w'

  let hash (i, w) =
    List.fold_left (fun h a -> (h * 31) + Tuple.hash (Atom.args a)) i w
end)

(* Union-find over ground atoms.  An absent key is its own singleton
   class. *)

type uf = Atom.t Atbl.t

let uf_create () : uf = Atbl.create 64

let rec uf_find (uf : uf) a =
  match Atbl.find_opt uf a with
  | None -> a
  | Some p when Atom.equal p a -> a
  | Some p ->
      let r = uf_find uf p in
      Atbl.replace uf a r;
      r

let uf_union uf a b =
  let ra = uf_find uf a and rb = uf_find uf b in
  if not (Atom.equal ra rb) then Atbl.replace uf ra rb

let uf_merge_all uf = function
  | [] -> ()
  | a :: rest -> List.iter (uf_union uf a) rest

(* ------------------------------------------------------------------ *)
(* Potential violations.

   A potential violation (pv) of a generic constraint is an antecedent
   match over [d_ext] (the instance extended with every insertion candidate
   discovered so far) whose relevant universal variables are null-free and
   whose built-in disjunction does not hold — i.e. a match that becomes an
   actual violation in any search state containing its antecedent atoms and
   none of its consequent witnesses.  Dropping the consequent-existence
   check is what makes the analysis state-independent: a witness present in
   [d] may be deleted mid-search, an absent one may be inserted. *)

(* Compiled joins, kept for one instance at a time under a key naming
   what they join: the worklists run the joins of the same constraints,
   seeded on the same variables, from every atom they pop, and the instance
   they join over changes only when an activation inserts a candidate.
   The planner keeps antecedent and consequent joins in two caches: the
   callback of an antecedent join runs consequent joins, never a join of
   its own cache, which a compiled join would not survive. *)
type 'a joins = { mutable over : Instance.t; cache : (int * int * string list, 'a) Hashtbl.t }

let joins d = { over = d; cache = Hashtbl.create 16 }

let compiled joins d key compile =
  if joins.over != d then begin
    Hashtbl.reset joins.cache;
    joins.over <- d
  end;
  match Hashtbl.find_opt joins.cache key with
  | Some c -> c
  | None ->
      let c = compile () in
      Hashtbl.add joins.cache key c;
      c

(* Ground consequent atoms of the [i]th constraint [g] present in [d_ext]
   under the antecedent match [theta] (existential positions match any
   value), each consequent atom's matches last first. *)
let cons_witnesses joins d_ext i g theta =
  let module J = Assign.Join in
  List.concat
    (List.mapi
       (fun k c ->
         let j =
           compiled joins d_ext (i, k, []) (fun () ->
               J.compile d_ext ~bound:(Ic.Constr.universal_vars g) [ c ])
         in
         let acc = ref [] in
         J.iter j theta (fun () -> acc := Ic.Patom.ground (J.lookup j) c :: !acc);
         !acc)
       g.Ic.Constr.cons)

(* Potential violations of the [i]th constraint [g] whose antecedent match
   extends one of the [seeds] (partial assignments), in join order.  The
   null escape reads codes, [phi] is compiled with the join
   ({!Assign.Join.builtins}), and the binding and witness are built for
   the pvs only. *)
let iter_seeded_pvs joins d_ext i g seeds ~f =
  let module J = Assign.Join in
  List.iter
    (fun seed ->
      let bound = List.map fst (Assign.bindings seed) in
      let j, relevant, phi =
        compiled joins d_ext (i, -1, bound) (fun () ->
            let j = J.compile d_ext ~bound g.Ic.Constr.ante in
            ( j,
              J.slots_of j (Ic.Relevant.relevant_universal_vars g),
              J.builtins j g.Ic.Constr.phi ))
      in
      J.iter j seed (fun () ->
          if not (J.any_null j relevant || phi ()) then f (J.assignment j) (J.witness j)))
    seeds

(* The bindings under which the ground atom [a] matches one of [patoms]. *)
let seeds_of a patoms =
  List.filter_map
    (fun p ->
      if String.equal (Ic.Patom.pred p) (Atom.pred a) then
        Assign.match_tuple Assign.empty (Ic.Patom.terms p) (Atom.args a)
      else None)
    patoms

(* ------------------------------------------------------------------ *)
(* The conflict-component plan.

   Seeds are the actual violations of [d]: their matched tuples and every
   ground insertion candidate of their fixes form one class.  The closure
   then fires potential violations over [d_ext] until none is left:

   - a pv with a consequent witness in the untouched core can never fire
     (the witness is never deleted) — it is skipped;
   - otherwise a pv is {e live} if some antecedent atom is already active,
     or some consequent witness is (deleting that witness fires the pv).
     All its antecedent atoms, witnesses and insertion candidates join one
     class and become active — this is how a cascade drags core tuples into
     a component (inserting R(a) can fire R(x),T(x) -> false against a core
     T(a); deleting Q(a) for one constraint can orphan a core P(a) under
     P(x) -> Q(x)).

   Firing is monotone in the active set, and a pv's status can only change
   when one of its atoms — antecedent or consequent witness — becomes
   active, so the closure is a worklist of newly active atoms: a popped
   atom seeds every antecedent join where it matches an antecedent atom
   (the pvs it may make live) and where it matches a consequent atom, with
   the bindings restricted to the antecedent variables (the pvs whose core
   witness it stops being, or whose class it joins as a new witness).
   The joins of constraints without consequent atoms are seeded by
   insertion candidates only: their pvs over [d] alone are the check's
   violations.
   Fired pvs are recorded, so a witness appearing after its pv fired only
   joins that pv's class.  Every seeded join is bounded by index probes
   around the popped atom: the closure costs the conflicts, not the
   instance.

   After the active set stabilizes, a second worklist collects {e support}
   atoms: a pv whose antecedent is entirely active-or-support but which is
   permanently satisfied by a core witness needs that witness present in
   the component's search instance, or the per-component search would see
   a spurious violation.  Support atoms are inert — no live pv mentions
   them, so no repair action ever touches them.  That fixpoint is monotone
   too; a pv's antecedent can only become region-covered when one of its
   atoms enters the region, so the worklist starts from every active atom
   and continues from every new support atom.

   Each support atom is tagged with the components whose region pulled it
   in: the classes of the pv's active antecedent atoms, plus the tags of
   its support antecedent atoms.  An atom whose tags grow is queued again,
   so the tags reach the support atoms its pvs pull in after it.  The pvs
   that can match in a component's search instance are those whose
   antecedent atoms are all its own atoms or support atoms tagged with
   it, and each of them tags its witness with the component, so the
   component's support is the atoms tagged with its class.  Every support
   atom has a tag, so the components' supports cover the untagged
   fixpoint. *)

let plan ?budget d ics =
  (* Planning carries no decision/state counter, so the budget contributes
     its wall-clock deadline, probed once per worklist step. *)
  let tick () =
    match budget with Some b -> Budget.check_deadline b | None -> ()
  in
  let nnc_positions = Actions.nnc_positions_of ics in
  let universe = Actions.insertion_universe ~nnc_positions d ics in
  let generics =
    List.filter_map
      (function Ic.Constr.Generic g -> Some g | Ic.Constr.NotNull _ -> None)
      ics
    |> List.mapi (fun i g -> (i, g, Ic.Constr.universal_vars g))
  in
  let inserts g theta =
    List.concat_map
      (Actions.insertions ~universe ~nnc_positions theta)
      g.Ic.Constr.cons
  in
  let uf = uf_create () in
  let active : unit Atbl.t = Atbl.create 64 in
  let d_ext = ref d in
  (* newly active atoms, each with whether it is in [d]: [d_ext] is [d]
     plus the active candidates, so an atom not yet active is in [d]
     exactly when it is in [d_ext] *)
  let pending = Queue.create () in
  let activate nodes =
    List.iter
      (fun a ->
        if not (Atbl.mem active a) then begin
          Atbl.replace active a ();
          let in_d = Instance.mem a !d_ext in
          if not in_d then d_ext := Instance.add a !d_ext;
          Queue.add (a, in_d) pending
        end)
      nodes;
    uf_merge_all uf nodes
  in
  (* Seeds: the actual violations of d. *)
  List.iter
    (fun ic ->
      List.iter
        (fun (v : Nullsat.violation) ->
          let fixes =
            match v.Nullsat.ic with
            | Ic.Constr.NotNull _ -> []
            | Ic.Constr.Generic g -> inserts g v.Nullsat.theta
          in
          activate (v.Nullsat.matched @ fixes))
        (Nullsat.violations d ic))
    ics;
  (* Closure of the active set under cascades.  A pv of a constraint
     without consequent atoms (a denial, an FD) has no witness: it is only
     reached from a popped antecedent atom, so it fires, and its class is
     its antecedent.  Such a pv over atoms of [d] alone is an actual
     violation of [d] (the check applies the same null escape and built-in
     test, and there is no consequent to probe), so the seeds already
     activated and merged it: an atom of [d] seeds no denial join.  A pv
     with an insertion candidate among its atoms is reached from the
     candidate activated last, whose snapshot holds all of them.  Other
     fired pvs are recorded by (constraint index, antecedent match) with a
     member of their class. *)
  let fired : Atom.t Fired.t = Fired.create 64 in
  let ante_joins = joins d and cons_joins = joins d in
  let is_core a = (not (Atbl.mem active a)) && Instance.mem a d in
  let fire popped i g theta witness =
    if g.Ic.Constr.cons = [] then activate witness
    else
      match Fired.find_opt fired (i, witness) with
      | Some rep -> uf_union uf popped rep
      | None ->
          let witnesses = cons_witnesses cons_joins !d_ext i g theta in
          if
            (not (List.exists is_core witnesses))
            && (List.exists (Atbl.mem active) witness || witnesses <> [])
          then begin
            let nodes = witness @ witnesses @ inserts g theta in
            Fired.add fired (i, witness) (List.hd nodes);
            activate nodes
          end
  in
  while not (Queue.is_empty pending) do
    tick ();
    let a, in_d = Queue.pop pending in
    let snapshot = !d_ext in
    List.iter
      (fun (i, g, universal) ->
        if not (in_d && g.Ic.Constr.cons = []) then
          let seeds =
            seeds_of a g.Ic.Constr.ante
            @ List.map
                (fun s -> Assign.restrict s universal)
                (seeds_of a g.Ic.Constr.cons)
          in
          iter_seeded_pvs ante_joins snapshot i g seeds ~f:(fire a i g))
      generics
  done;
  let d_ext = !d_ext in
  let active_set = Atbl.fold (fun a () s -> Atom.Set.add a s) active Atom.Set.empty in
  (* Support: core witnesses keeping otherwise-matchable pvs satisfied
     (only constraints with consequent atoms have witnesses), each tagged
     with the classes (union-find representatives) that pulled it in. *)
  let witnessed = List.filter (fun (_, g, _) -> g.Ic.Constr.cons <> []) generics in
  let tags : Atom.Set.t Atbl.t = Atbl.create 16 in
  let in_region a = Atbl.mem active a || Atbl.mem tags a in
  let pulling witness =
    List.fold_left
      (fun acc a ->
        match Atbl.find_opt tags a with
        | Some t -> Atom.Set.union t acc
        | None -> Atom.Set.add (uf_find uf a) acc)
      Atom.Set.empty witness
  in
  let pending = Queue.create () in
  Atom.Set.iter (fun a -> Queue.add a pending) active_set;
  while not (Queue.is_empty pending) do
    tick ();
    let a = Queue.pop pending in
    List.iter
      (fun (i, g, _) ->
        iter_seeded_pvs ante_joins d_ext i g (seeds_of a g.Ic.Constr.ante)
          ~f:(fun theta witness ->
            if List.for_all in_region witness then
              let core_witness =
                List.find_opt is_core (cons_witnesses cons_joins d_ext i g theta)
              in
              match core_witness with
              | Some w -> (
                  let pulled = pulling witness in
                  match Atbl.find_opt tags w with
                  | Some t when Atom.Set.subset pulled t -> ()
                  | t ->
                      Atbl.replace tags w
                        (Option.fold ~none:pulled ~some:(Atom.Set.union pulled) t);
                      Queue.add w pending)
              | None -> ()))
      witnessed
  done;
  let support_of : Instance.t Atbl.t = Atbl.create 16 in
  Atbl.iter
    (fun w t ->
      Atom.Set.iter
        (fun r ->
          let prev =
            Option.value ~default:Instance.empty (Atbl.find_opt support_of r)
          in
          Atbl.replace support_of r (Instance.add w prev))
        t)
    tags;
  (* Extract components in a deterministic order. *)
  let classes : Atom.Set.t Atbl.t = Atbl.create 16 in
  Atom.Set.iter
    (fun a ->
      let r = uf_find uf a in
      let prev =
        Option.value ~default:Atom.Set.empty (Atbl.find_opt classes r)
      in
      Atbl.replace classes r (Atom.Set.add a prev))
    active_set;
  let components =
    Atbl.fold (fun r atoms acc -> (r, atoms) :: acc) classes []
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
             atoms;
             sub =
               Atom.Set.fold
                 (fun a acc -> if Instance.mem a d then Instance.add a acc else acc)
                 atoms Instance.empty;
             support =
               Option.value ~default:Instance.empty (Atbl.find_opt support_of r);
             ics;
           })
  in
  (* The core is [d] under a deletion overlay of the active atoms: it
     shares [d]'s segments and costs O(conflict), where filtering would
     re-intern every tuple. *)
  let core = Atom.Set.fold Instance.remove active_set d in
  (* Product exactness: per-component minimality implies global minimality
     unless a null-carrying atom of one component could cover (condition
     (b) of <=_D) an atom of another — only then can a cross product of
     locally minimal repairs be beaten through cross-component covering. *)
  let product_exact =
    let tagged =
      List.concat
        (List.mapi
           (fun i c -> List.map (fun a -> (i, a)) (Atom.Set.elements c.atoms))
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
                      i <> j && Order.matches_non_null_positions a b)
                    candidates
                then raise Not_exact
              end)
            group)
        by_pred;
      true
    with Not_exact -> false
  in
  { core; components; universe; nnc_positions; product_exact }

(* ------------------------------------------------------------------ *)
(* Solve keys and incremental plan maintenance (the memo keys of the
   solve step and the session engine's fast path). *)

(* One rendering of what a component solve reads, injective: every value
   is tagged with its type and every string is length-prefixed, so
   [Int 1], [Str "1"], [Null] and [Str "null"] render apart, and so do a
   variable and a constant of the same name.  Values render from the
   decoded value, never from physical codes, which depend on interning
   order.  Lists carry their length, so the rendering parses back
   uniquely. *)
let add_string buf s =
  Buffer.add_string buf (string_of_int (String.length s));
  Buffer.add_char buf ':';
  Buffer.add_string buf s

let add_int buf i =
  Buffer.add_string buf (string_of_int i);
  Buffer.add_char buf ';'

let add_value buf = function
  | Value.Null -> Buffer.add_char buf 'n'
  | Value.Int i ->
      Buffer.add_char buf 'i';
      add_int buf i
  | Value.Str s ->
      Buffer.add_char buf 's';
      add_string buf s

let add_list buf f l =
  add_int buf (List.length l);
  List.iter (f buf) l

let add_term buf = function
  | Ic.Term.Var x ->
      Buffer.add_char buf 'v';
      add_string buf x
  | Ic.Term.Const v ->
      Buffer.add_char buf 'c';
      add_value buf v

let add_patom buf p =
  add_string buf (Ic.Patom.pred p);
  add_list buf add_term (Ic.Patom.terms p)

let add_builtin buf = function
  | Ic.Builtin.False -> Buffer.add_char buf 'F'
  | Ic.Builtin.Cmp (op, l, r) ->
      Buffer.add_char buf
        (match op with
        | Ic.Builtin.Eq -> '='
        | Neq -> '!'
        | Lt -> '<'
        | Leq -> 'l'
        | Gt -> '>'
        | Geq -> 'g');
      List.iter
        (fun (e : Ic.Builtin.expr) ->
          add_term buf e.Ic.Builtin.base;
          add_int buf e.Ic.Builtin.offset)
        [ l; r ]

let add_name buf = function
  | None -> Buffer.add_char buf '-'
  | Some n ->
      Buffer.add_char buf '+';
      add_string buf n

let add_ic buf = function
  | Ic.Constr.Generic g ->
      Buffer.add_char buf 'G';
      add_name buf g.Ic.Constr.name;
      add_list buf add_patom g.Ic.Constr.ante;
      add_list buf add_patom g.Ic.Constr.cons;
      add_list buf add_builtin g.Ic.Constr.phi
  | Ic.Constr.NotNull n ->
      Buffer.add_char buf 'N';
      add_name buf n.name;
      add_string buf n.pred;
      add_int buf n.arity;
      add_int buf n.pos

module Vtbl = Hashtbl.Make (Value)

(* The atoms of an instance, each as its predicate and arguments; sets
   iterate in sorted order, so the rendering does not depend on the order
   the tuples arrived in. *)
let add_instance buf rename inst =
  add_int buf (Instance.cardinal inst);
  Instance.iter
    (fun a ->
      add_string buf (Atom.pred a);
      add_int buf (Atom.arity a);
      Array.iter (rename buf) (Atom.args a))
    inst

(* Constraint order is part of the content: the per-component searches
   traverse the constraint list in order, so two orderings are distinct
   solves even over the same set. *)
let render ?(universe = []) ?(nnc_positions = []) ~mode rename c =
  let buf = Buffer.create 256 in
  Buffer.add_char buf mode;
  add_instance buf rename c.sub;
  add_instance buf rename c.support;
  add_list buf add_ic c.ics;
  add_list buf add_value universe;
  add_list buf
    (fun buf (p, i) ->
      add_string buf p;
      add_int buf i)
    nnc_positions;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let fingerprint ?universe ?nnc_positions c =
  render ?universe ?nnc_positions ~mode:'c' add_value c

(* Orders and offsets read the values themselves: a renaming need not
   preserve [x < y] or [x = y + 1]. *)
let order_sensitive ics =
  List.exists
    (function
      | Ic.Constr.NotNull _ -> false
      | Ic.Constr.Generic g ->
          List.exists
            (function
              | Ic.Builtin.False -> false
              | Ic.Builtin.Cmp (op, l, r) -> (
                  l.Ic.Builtin.offset <> 0
                  || r.Ic.Builtin.offset <> 0
                  ||
                  match op with
                  | Ic.Builtin.Eq | Neq -> false
                  | Lt | Leq | Gt | Geq -> true))
            g.Ic.Constr.phi)
    ics

type key = { id : string; constants : Value.t array }

let shape_key (p : plan) c =
  if
    order_sensitive c.ics
    || Actions.reads_universe ~nnc_positions:p.nnc_positions c.ics
  then None
  else
    let ic_constants = Candidates.constants_of_ics c.ics in
    (* the repair program encodes [Str "null"] as its null constant *)
    let fixed v =
      Value.is_null v
      || Value.equal v (Value.str "null")
      || List.exists (Value.equal v) ic_constants
    in
    let index = Vtbl.create 16 and order = ref [] in
    let rename buf v =
      if fixed v then add_value buf v
      else begin
        let k =
          match Vtbl.find_opt index v with
          | Some k -> k
          | None ->
              let k = Vtbl.length index in
              Vtbl.add index v k;
              order := v :: !order;
              k
        in
        Buffer.add_char buf (match v with Value.Int _ -> 'I' | _ -> 'S');
        add_int buf k
      end
    in
    let id = render ~mode:'s' rename c in
    Some { id; constants = Array.of_list (List.rev !order) }

let renaming ~from ~into =
  if Array.for_all2 Value.equal from into then None
  else begin
    let map = Vtbl.create (Array.length from) in
    Array.iteri (fun i v -> Vtbl.replace map v into.(i)) from;
    let value v = Option.value ~default:v (Vtbl.find_opt map v) in
    Some
      (fun inst ->
        Instance.of_atoms
          (List.map
             (fun a -> Atom.of_tuple (Atom.pred a) (Array.map value (Atom.args a)))
             (Instance.atoms inst)))
  end

let refresh p d' ics ~inserted ~deleted ~violations_unchanged =
  (* Sound reuse of the whole partition.  The closure of [plan] is a
     monotone fixpoint seeded by the actual violations; with (1) the same
     violation set, (2) the same universe where an insertion reads it (so
     the same insertion candidates), (3) no delta atom inside any
     component's atoms or support, and (4) no delta predicate mentioned by any constraint that
     touches the active/support region, no rule application of the cold
     fixpoint on the new instance can differ: the first new activation
     would need a potential violation joining a delta atom with an active
     or support atom, and such a pv's constraint mentions both a region
     predicate and a delta predicate — excluded by (4).  The same argument
     keeps the support fixpoint's witness choices fixed.  Under the four
     conditions the cold plan of the new instance is the old plan with the
     delta folded into the untouched core. *)
  if not violations_unchanged then None
  else
    let delta = inserted @ deleted in
    let in_closure a =
      List.exists
        (fun c -> Atom.Set.mem a c.atoms || Instance.mem a c.support)
        p.components
    in
    if List.exists in_closure delta then None
    else
      let region_preds =
        List.sort_uniq String.compare
          (List.concat_map
             (fun c ->
               Atom.Set.fold (fun a acc -> Atom.pred a :: acc) c.atoms []
               @ Instance.fold (fun a acc -> Atom.pred a :: acc) c.support [])
             p.components)
      in
      let relevant_preds =
        List.concat_map
          (fun ic ->
            let preds = Ic.Constr.preds ic in
            if List.exists (fun pr -> List.mem pr region_preds) preds then
              preds
            else [])
          ics
        |> List.sort_uniq String.compare
      in
      let delta_preds =
        List.sort_uniq String.compare (List.map Atom.pred delta)
      in
      if List.exists (fun pr -> List.mem pr relevant_preds) delta_preds then
        None
      else if
        not
          (List.equal Value.equal
             (Actions.insertion_universe
                ~nnc_positions:(Actions.nnc_positions_of ics) d' ics)
             p.universe)
      then None
      else
        let core =
          List.fold_left
            (fun core a -> Instance.add a core)
            (List.fold_left
               (fun core a -> Instance.remove a core)
               p.core deleted)
            inserted
        in
        Some { p with core }

(* ------------------------------------------------------------------ *)
(* Lazy recombination *)

let product base choices =
  let rec go acc = function
    | [] -> Seq.return acc
    | cs :: rest ->
        Seq.concat_map (fun c -> go (Instance.union acc c) rest) (List.to_seq cs)
  in
  go base choices

let count_product counts = List.fold_left (fun n c -> n * c) 1 counts

(* ------------------------------------------------------------------ *)
(* Solving the components: the prefix rule *)

let base c = Instance.union c.sub c.support

type 'a solved = Solved of 'a | Tripped of Budget.exhausted | Failed of string

let map_solved f = function
  | Solved x -> Solved (f x)
  | Tripped e -> Tripped e
  | Failed m -> Failed m

let solve ?budget ?(jobs = 1) ~filler f components =
  let task c =
    let r = f c in
    (match (r, budget) with
    | Solved _, Some b -> Budget.note_worker_component b
    | _ -> ());
    r
  in
  let results =
    if jobs <= 1 || List.length components <= 1 then
      let rec seq acc = function
        | [] -> List.rev acc
        | c :: rest -> (
            match task c with
            | Solved _ as r -> seq (r :: acc) rest
            | r -> List.rev (r :: acc))
      in
      seq [] components
    else
      Parallel.Pool.with_pool ~jobs
        ~init:(fun w -> Budget.set_worker_slot (w + 1))
        (fun pool -> Parallel.Pool.map pool task components)
  in
  (* The scan runs in component order, exactly like the sequential
     traversal, so which worker tripped first never shows.  The sequential
     results end at their first trip or failure, so they never run out
     before the components do. *)
  let rec scan kept n components results =
    match (components, results) with
    | [], _ -> Ok (List.rev kept, n, None)
    | _ :: cs, Solved x :: rs ->
        (match budget with Some b -> Budget.note_component b | None -> ());
        scan (x :: kept) (n + 1) cs rs
    | _, Failed m :: _ -> Error m
    | cs, Tripped e :: _ ->
        Ok (List.rev_append kept (List.map filler cs), n, Some e)
    | _ :: _, [] -> assert false
  in
  scan [] 0 components results
