module Value = Relational.Value
module Instance = Relational.Instance
module Assign = Semantics.Assign

type semantics = NullAsConstant | SqlLike | NullAware

let query_constants body =
  let rec go = function
    | Qsyntax.Atom a ->
        List.filter_map
          (function Ic.Term.Const v -> Some v | Ic.Term.Var _ -> None)
          (Ic.Patom.terms a)
    | Qsyntax.Builtin (Ic.Builtin.Cmp (_, l, r)) ->
        List.filter_map
          (fun (e : Ic.Builtin.expr) ->
            match e.Ic.Builtin.base with
            | Ic.Term.Const v -> Some v
            | Ic.Term.Var _ -> None)
          [ l; r ]
    | Qsyntax.Builtin Ic.Builtin.False -> []
    | Qsyntax.IsNull (Ic.Term.Const v) -> [ v ]
    | Qsyntax.IsNull (Ic.Term.Var _) -> []
    | Qsyntax.And (f, g) | Qsyntax.Or (f, g) -> go f @ go g
    | Qsyntax.Not f -> go f
    | Qsyntax.Exists (_, f) | Qsyntax.Forall (_, f) -> go f
  in
  go body

let domain d body =
  let module Vset = Set.Make (Value) in
  Vset.elements
    (Vset.union
       (Vset.of_list (Instance.active_domain d))
       (Vset.of_list (query_constants body)))

let eval_builtin_with semantics lookup b =
  match semantics with
  | NullAsConstant -> Ic.Builtin.eval lookup b
  | SqlLike | NullAware -> (
      match Ic.Builtin.eval3 lookup b with Some v -> v | None -> false)

let eval_builtin semantics theta b =
  eval_builtin_with semantics (Assign.lookup_exn theta) b

(* Variables occurring at least twice in the body's atoms, or at all in a
   comparison — the query analogue of Definition 2's relevant variables. *)
let join_vars formula =
  let tbl = Hashtbl.create 16 in
  let bump x =
    Hashtbl.replace tbl x (1 + Option.value ~default:0 (Hashtbl.find_opt tbl x))
  in
  let rec go = function
    | Qsyntax.Atom a ->
        List.iter
          (function Ic.Term.Var x -> bump x | Ic.Term.Const _ -> ())
          (Ic.Patom.terms a)
    | Qsyntax.Builtin b -> List.iter (fun x -> bump x; bump x) (Ic.Builtin.vars b)
    | Qsyntax.IsNull _ -> ()
    | Qsyntax.And (f, g) | Qsyntax.Or (f, g) -> go f; go g
    | Qsyntax.Not f -> go f
    | Qsyntax.Exists (_, f) | Qsyntax.Forall (_, f) -> go f
  in
  go formula;
  Hashtbl.fold (fun x n acc -> if n >= 2 then x :: acc else acc) tbl []

(* The formula is compiled once into a test of assignments binding
   exactly [bound]: which variables are bound at an atom is then known
   statically ([bound] and the enclosing quantifiers), so each atom is
   compiled once, at its first test, however many assignments
   {!answers_enum} tries. *)
let prepare ?(semantics = NullAsConstant) d ~bound formula =
  let module J = Assign.Join in
  let dom = lazy (domain d formula) in
  let joins = lazy (join_vars formula) in
  let exception Found in
  let atom_holds bound a =
    let compiled =
      lazy
        (let vars = Ic.Patom.vars a in
         let j = J.compile d ~bound:(List.filter (fun x -> List.mem x bound) vars) [ a ] in
         let nulls =
           match semantics with
           | NullAsConstant | SqlLike -> [||]
           | NullAware ->
               (* a match may not bind a join variable to null *)
               J.slots_of j (List.filter (fun x -> List.mem x (Lazy.force joins)) vars)
         in
         (j, fun () -> if not (J.any_null j nulls) then raise_notrace Found))
    in
    fun theta ->
      let j, found = Lazy.force compiled in
      match J.iter j theta found with
      | () -> false
      | exception Found -> true
  in
  let rec exists_assign theta xs f =
    match xs with
    | [] -> f theta
    | x :: rest ->
        List.exists
          (fun v ->
            match Assign.bind theta x v with
            | Some theta' -> exists_assign theta' rest f
            | None -> false)
          (Lazy.force dom)
  in
  let rec build bound = function
    | Qsyntax.Atom a -> atom_holds bound a
    | Qsyntax.Builtin b -> fun theta -> eval_builtin semantics theta b
    | Qsyntax.IsNull t -> (
        fun theta ->
          match Assign.value_of_term theta t with
          | Some v -> Value.is_null v
          | None -> invalid_arg "Qeval: unbound variable under IsNull")
    | Qsyntax.And (f, g) ->
        let f = build bound f and g = build bound g in
        fun theta -> f theta && g theta
    | Qsyntax.Or (f, g) ->
        let f = build bound f and g = build bound g in
        fun theta -> f theta || g theta
    | Qsyntax.Not f ->
        let f = build bound f in
        fun theta -> not (f theta)
    | Qsyntax.Exists (xs, f) ->
        let f = build (xs @ bound) f in
        fun theta -> exists_assign theta xs f
    | Qsyntax.Forall (xs, f) ->
        let f = build (xs @ bound) f in
        fun theta -> not (exists_assign theta xs (fun theta -> not (f theta)))
  in
  build bound formula

let holds ?semantics d theta formula =
  prepare ?semantics d ~bound:(List.map fst (Assign.bindings theta)) formula theta

(* all free variables of the body are enumerated (non-head free variables
   are implicitly existentially quantified); the answer projects to the
   head *)
let answers_enum ?semantics d (q : Qsyntax.t) =
  let dom = domain d q.Qsyntax.body in
  let free = Qsyntax.free_vars q.Qsyntax.body in
  let holds = prepare ?semantics d ~bound:free q.Qsyntax.body in
  let rec enumerate theta = function
    | [] ->
        if holds theta then
          [ Relational.Tuple.make (List.map (Assign.lookup_exn theta) q.Qsyntax.head) ]
        else []
    | x :: rest ->
        List.concat_map
          (fun v ->
            match Assign.bind theta x v with
            | Some theta' -> enumerate theta' rest
            | None -> [])
          dom
  in
  Relational.Tuple.Set.of_list (enumerate Assign.empty free)

(* Join-driven evaluation for the factorizable fragment (positive
   existential conjunctive bodies whose every variable occurs in a
   database atom, {!Qsafe.factorizable}): instead of enumerating the
   active domain to the power of the free variables — O(|adom|^k),
   infeasible beyond toy instances — enumerate the antecedent-style join
   of the body's atoms through the instance's column postings and filter with
   the built-ins / [IsNull]s.  Equivalent to {!answers_enum} on this
   fragment: every satisfying domain assignment must match all atoms (the
   body conjoins them), so it is produced by the join, and join bindings
   draw from tuple values, hence from the domain.  Repeated variable names
   under nested quantifiers collapse to equality in both evaluators
   ([Assign.bind] refuses conflicting rebinds).

   The join is compiled once ({!Assign.Join}) from seeds binding [bound]:
   [IsNull] reads codes, and the built-ins decode only their own
   variables.  Under [NullAware] a match binding a join variable to null
   is not kept either: that is [prepare]'s rule for each atom, and every
   join variable is bound by one of the atoms. *)
let compile_body semantics d ~bound (q : Qsyntax.t) =
  let module J = Assign.Join in
  let atoms = Qsyntax.atoms q.Qsyntax.body in
  let builtins = ref [] and isnulls = ref [] in
  let rec collect = function
    | Qsyntax.Atom _ -> ()
    | Qsyntax.Builtin b -> builtins := b :: !builtins
    | Qsyntax.IsNull t -> isnulls := t :: !isnulls
    | Qsyntax.And (f, g) ->
        collect f;
        collect g
    | Qsyntax.Exists (_, f) -> collect f
    | Qsyntax.Or _ | Qsyntax.Not _ | Qsyntax.Forall _ ->
        invalid_arg "Qeval: body not factorizable"
  in
  collect q.Qsyntax.body;
  let j = J.compile d ~bound atoms in
  let lookup = J.lookup j in
  let builtin_holds b = eval_builtin_with semantics lookup b in
  let is_null = function
    | Ic.Term.Const v -> Value.is_null v
    | Ic.Term.Var x ->
        let s = J.slot j x in
        if s < 0 then invalid_arg "Qeval: unbound variable under IsNull"
        else J.code j s = Relational.Symtab.null_id
  in
  let nulls =
    match semantics with
    | NullAsConstant | SqlLike -> [||]
    | NullAware -> J.slots_of j (join_vars q.Qsyntax.body)
  in
  let builtins = !builtins and isnulls = !isnulls in
  let kept () =
    (not (J.any_null j nulls))
    && List.for_all builtin_holds builtins
    && List.for_all is_null isnulls
  in
  (j, kept)

(* Each kept match decodes its head values into a tuple, appended to an
   array that doubles when full.  The array becomes the answer set
   ({!Relational.Tuple.Set.of_array}), sorted only when the join's order
   is not [Tuple.compare] order: a scan of one atom walks its relation in
   that order, so a head on its leading columns comes out sorted. *)
let answers_join semantics d (q : Qsyntax.t) =
  let module J = Assign.Join in
  let j, kept = compile_body semantics d ~bound:[] q in
  let head = Array.of_list q.Qsyntax.head in
  let head_slots = Array.map (J.slot j) head in
  let decode i =
    let s = head_slots.(i) in
    if s >= 0 then J.value j s else J.lookup j head.(i)
  in
  if head = [||] then
    (* a boolean query: the first kept match decides *)
    let exception Found in
    match J.iter j Assign.empty (fun () -> if kept () then raise_notrace Found) with
    | () -> Relational.Tuple.Set.empty
    | exception Found -> Relational.Tuple.Set.singleton [||]
  else begin
    let buf = ref (Array.make 64 [||]) and n = ref 0 in
    J.iter j Assign.empty (fun () ->
        if kept () then begin
          let t = Array.init (Array.length head) decode in
          if !n = Array.length !buf then begin
            let grown = Array.make (2 * !n) [||] in
            Array.blit !buf 0 grown 0 !n;
            buf := grown
          end;
          !buf.(!n) <- t;
          incr n
        end);
    Relational.Tuple.Set.of_array
      (if !n = Array.length !buf then !buf else Array.sub !buf 0 !n)
  end

(* The membership test of the answers: one join seeded with the head
   bound to the tuple, stopped at the first kept match. *)
let witnessed ?(semantics = NullAsConstant) d (q : Qsyntax.t) =
  let j, kept = compile_body semantics d ~bound:q.Qsyntax.head q in
  let exception Found in
  let found () = if kept () then raise_notrace Found in
  let rec seed theta (t : Relational.Tuple.t) i = function
    | [] -> Some theta
    | x :: rest -> (
        match Assign.bind theta x t.(i) with
        | Some theta -> seed theta t (i + 1) rest
        | None -> None)
  in
  fun t ->
    Array.length t = List.length q.Qsyntax.head
    &&
    match seed Assign.empty t 0 q.Qsyntax.head with
    | None -> false (* a repeated head variable, two values *)
    | Some theta -> (
        match Assign.Join.iter j theta found with
        | () -> false
        | exception Found -> true)

let answers ?(semantics = NullAsConstant) d (q : Qsyntax.t) =
  if Qsafe.factorizable q.Qsyntax.body then answers_join semantics d q
  else answers_enum ~semantics d q

let boolean ?semantics d q =
  if not (Qsyntax.is_boolean q) then
    invalid_arg "Qeval.boolean: query has head variables";
  holds ?semantics d Assign.empty q.Qsyntax.body
