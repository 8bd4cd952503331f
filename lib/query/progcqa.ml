module S = Asp.Syntax
module Term = Ic.Term
module Patom = Ic.Patom
module Builtin = Ic.Builtin

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* DNF normalization with capture-avoiding renaming of bound variables *)

type lit =
  | LPos of Patom.t
  | LNeg of Patom.t
  | LCmp of Builtin.t
  | LIsNull of Term.t
  | LNotNull of Term.t

(* The renaming counter is threaded through [dnf_pos]/[dnf_neg] as explicit
   state (created per [compile] call) — a global ref here would leak
   counter state between compilations and make [compile] non-reentrant. *)
let fresh counter x =
  incr counter;
  Printf.sprintf "qv_%s_%d" x !counter

let rename_term env = function
  | Term.Var x -> Term.Var (Option.value ~default:x (List.assoc_opt x env))
  | Term.Const _ as t -> t

let rename_atom env a = Patom.make (Patom.pred a) (List.map (rename_term env) (Patom.terms a))

let rename_expr env (e : Builtin.expr) =
  { e with Builtin.base = rename_term env e.Builtin.base }

let rename_builtin env = function
  | Builtin.False -> Builtin.False
  | Builtin.Cmp (op, l, r) -> Builtin.Cmp (op, rename_expr env l, rename_expr env r)

(* cross product of two DNFs (conjunction) *)
let cross a b = List.concat_map (fun ca -> List.map (fun cb -> ca @ cb) b) a

let rec dnf_pos counter env = function
  | Qsyntax.Atom a -> Ok [ [ LPos (rename_atom env a) ] ]
  | Qsyntax.Builtin b -> (
      match rename_builtin env b with
      | Builtin.False -> Ok [] (* false: empty disjunction *)
      | b -> Ok [ [ LCmp b ] ])
  | Qsyntax.IsNull t -> Ok [ [ LIsNull (rename_term env t) ] ]
  | Qsyntax.And (f, g) ->
      let* df = dnf_pos counter env f in
      let* dg = dnf_pos counter env g in
      Ok (cross df dg)
  | Qsyntax.Or (f, g) ->
      let* df = dnf_pos counter env f in
      let* dg = dnf_pos counter env g in
      Ok (df @ dg)
  | Qsyntax.Not f -> dnf_neg counter env f
  | Qsyntax.Exists (xs, f) ->
      let env' = List.map (fun x -> (x, fresh counter x)) xs @ env in
      dnf_pos counter env' f
  | Qsyntax.Forall _ ->
      Error "universal quantification is outside the cautious-reasoning query fragment"

(* DNF of the negation of the formula *)
and dnf_neg counter env = function
  | Qsyntax.Atom a -> Ok [ [ LNeg (rename_atom env a) ] ]
  | Qsyntax.Builtin b -> (
      match rename_builtin env b with
      | Builtin.False -> Ok [ [] ] (* not false = true: one empty conjunct *)
      | b -> Ok [ [ LCmp (Builtin.negate b) ] ])
  | Qsyntax.IsNull t -> Ok [ [ LNotNull (rename_term env t) ] ]
  | Qsyntax.And (f, g) ->
      let* df = dnf_neg counter env f in
      let* dg = dnf_neg counter env g in
      Ok (df @ dg)
  | Qsyntax.Or (f, g) ->
      let* df = dnf_neg counter env f in
      let* dg = dnf_neg counter env g in
      Ok (cross df dg)
  | Qsyntax.Not f -> dnf_pos counter env f
  | Qsyntax.Forall (xs, f) ->
      (* not (forall x. f) = exists x. not f *)
      let env' = List.map (fun x -> (x, fresh counter x)) xs @ env in
      dnf_neg counter env' f
  | Qsyntax.Exists _ ->
      Error
        "negated existential quantification is outside the cautious-reasoning \
         query fragment"

(* ------------------------------------------------------------------ *)
(* Rule construction over the annotated predicates *)

let asp_term = function
  | Term.Var x -> S.Var x
  | Term.Const v -> S.Const (Core.Annot.encode_value v)

let asp_expr (e : Builtin.expr) =
  match e.Builtin.base, e.Builtin.offset with
  | Term.Var x, 0 -> Ok (S.Var x)
  | Term.Const v, 0 -> Ok (S.Const (Core.Annot.encode_value v))
  | Term.Const (Relational.Value.Int i), k -> Ok (S.Const (S.Num (i + k)))
  | _ -> Error "built-in offsets are not supported in query rules"

let asp_op = function
  | Builtin.Eq -> S.Eq
  | Builtin.Neq -> S.Neq
  | Builtin.Lt -> S.Lt
  | Builtin.Leq -> S.Leq
  | Builtin.Gt -> S.Gt
  | Builtin.Geq -> S.Geq

let tss_atom names a =
  S.atom
    (Core.Annot.Names.annotated names (Patom.pred a))
    (List.map asp_term (Patom.terms a) @ [ Core.Annot.term_of_annotation Core.Annot.Tss ])

let answer_pred = "ans"

let rule_of_conjunct names head conjunct =
  let* pos, neg, builtins =
    List.fold_left
      (fun acc l ->
        let* pos, neg, builtins = acc in
        match l with
        | LPos a -> Ok (tss_atom names a :: pos, neg, builtins)
        | LNeg a -> Ok (pos, tss_atom names a :: neg, builtins)
        | LCmp (Builtin.Cmp (op, l, r)) ->
            let* lt = asp_expr l in
            let* rt = asp_expr r in
            Ok (pos, neg, S.builtin (asp_op op) lt rt :: builtins)
        | LCmp Builtin.False -> Error "false literal in conjunct"
        | LIsNull t ->
            Ok (pos, neg, S.builtin S.Eq (asp_term t) Core.Annot.null_term :: builtins)
        | LNotNull t ->
            Ok (pos, neg, S.builtin S.Neq (asp_term t) Core.Annot.null_term :: builtins))
      (Ok ([], [], []))
      conjunct
  in
  let rule =
    S.rule
      [ S.atom answer_pred (List.map (fun x -> S.Var x) head) ]
      ~body_pos:(List.rev pos) ~body_neg:(List.rev neg)
      ~body_builtin:(List.rev builtins)
  in
  let* () =
    Result.map_error
      (fun msg -> "query not safe for cautious reasoning: " ^ msg)
      (Asp.Safety.check_rule rule)
  in
  Ok rule

let compile names (q : Qsyntax.t) =
  let counter = ref 0 in
  let* conjuncts = dnf_pos counter [] q.Qsyntax.body in
  let* rules =
    List.fold_left
      (fun acc c ->
        let* acc = acc in
        let* r = rule_of_conjunct names q.Qsyntax.head c in
        Ok (r :: acc))
      (Ok []) conjuncts
  in
  Ok (List.rev rules)

(* ------------------------------------------------------------------ *)
(* Cautious/brave answering *)

type outcome = {
  consistent : Relational.Tuple.Set.t;
  possible : Relational.Tuple.Set.t;
  stable_models : int;
}

let answers_in_model model =
  List.filter_map
    (fun (ga : Asp.Ground.gatom) ->
      if String.equal ga.Asp.Ground.gpred answer_pred then
        Some (Relational.Tuple.make (List.map Core.Annot.decode_value ga.Asp.Ground.gargs))
      else None)
    model

let consistent_answers ?variant ?budget d ics (q : Qsyntax.t) =
  let* () =
    if Ic.Depgraph.is_ric_acyclic ics then Ok ()
    else
      Error
        "cautious reasoning requires a RIC-acyclic constraint set (Theorem 4); \
         use the repair-materializing engines instead"
  in
  let* pg = Core.Proggen.repair_program ?variant d ics in
  let* query_rules = compile pg.Core.Proggen.names q in
  let program = pg.Core.Proggen.program @ query_rules in
  (* grounding and solving both consume budget; exhaustion of the shared
     [budget] or of the solver's per-search cap is an [Error] here, never
     an escaping exception *)
  match
    let ground = Asp.Grounder.ground ?budget program in
    Asp.Solver.stable_models_atoms ?budget (fst (Asp.Shift.if_hcf ground))
  with
  | exception Budget.Exhausted e -> Error (Budget.message e)
  | [] -> Error "the repair program has no stable models (conflicting ICs?)"
  | models ->
      let answer_sets =
        List.map (fun m -> Relational.Tuple.Set.of_list (answers_in_model m)) models
      in
      let consistent =
        match answer_sets with
        | [] -> Relational.Tuple.Set.empty
        | s :: rest -> List.fold_left Relational.Tuple.Set.inter s rest
      in
      let possible =
        List.fold_left Relational.Tuple.Set.union Relational.Tuple.Set.empty answer_sets
      in
      Ok { consistent; possible; stable_models = List.length models }

let certain ?variant ?budget d ics q =
  if not (Qsyntax.is_boolean q) then Error "certain: query has head variables"
  else
    Result.map
      (fun o -> Relational.Tuple.Set.mem (Relational.Tuple.make []) o.consistent)
      (consistent_answers ?variant ?budget d ics q)
