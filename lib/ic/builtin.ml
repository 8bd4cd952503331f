module Value = Relational.Value

type expr = { base : Term.t; offset : int }

let evar x = { base = Term.var x; offset = 0 }
let econst v = { base = Term.const v; offset = 0 }
let eint i = { base = Term.int i; offset = 0 }
let shift e k = { e with offset = e.offset + k }

type op = Eq | Neq | Lt | Leq | Gt | Geq

type t = Cmp of op * expr * expr | False

let cmp op a b = Cmp (op, a, b)
let eq a b = Cmp (Eq, { base = a; offset = 0 }, { base = b; offset = 0 })
let neq a b = Cmp (Neq, { base = a; offset = 0 }, { base = b; offset = 0 })

let negate_op = function
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Geq
  | Leq -> Gt
  | Gt -> Leq
  | Geq -> Lt

let negate = function
  | Cmp (op, a, b) -> Cmp (negate_op op, a, b)
  | False -> invalid_arg "Builtin.negate: cannot negate false"

let expr_vars e = match e.base with Term.Var x -> [ x ] | Term.Const _ -> []

let vars = function
  | False -> []
  | Cmp (_, a, b) ->
      let vs = expr_vars a @ expr_vars b in
      List.sort_uniq String.compare vs

(* A side's value as it is read: the checks and the query filters
   evaluate a comparison per matched row, so neither the value nor the
   verdict is boxed.  An integer offset folds into an integer value; a
   non-zero offset on a non-integer leaves the side undefined. *)
let base_value lookup e =
  match e.base with Term.Const v -> v | Term.Var x -> lookup x

let defined e v = e.offset = 0 || (match v with Value.Int _ -> true | _ -> false)

let offset_value e v =
  if e.offset = 0 then v
  else match v with Value.Int i -> Value.Int (i + e.offset) | _ -> v

(* at top level: an order comparison allocates no closure *)
let ordered op c =
  match op with
  | Lt -> c < 0
  | Leq -> c <= 0
  | Gt -> c > 0
  | Geq -> c >= 0
  | Eq | Neq -> assert false

let compare_values op u v =
  match op with
  | Eq -> Value.equal u v
  | Neq -> not (Value.equal u v)
  | Lt | Leq | Gt | Geq -> (
      match u, v with
      | Value.Int i, Value.Int j -> ordered op (Int.compare i j)
      | Value.Str s, Value.Str t -> ordered op (String.compare s t)
      | _ -> false)

let eval lookup = function
  | False -> false
  | Cmp (op, a, b) ->
      let u = base_value lookup a and v = base_value lookup b in
      defined a u && defined b v
      && compare_values op (offset_value a u) (offset_value b v)

(* shared, so a known verdict allocates nothing *)
let known_true = Some true
let known_false = Some false
let known b = if b then known_true else known_false

(* An offset side is defined only on an integer, never null, so testing
   the values as read decides the unknown case. *)
let eval3 lookup = function
  | False -> known_false
  | Cmp (op, a, b) ->
      let u = base_value lookup a and v = base_value lookup b in
      if not (defined a u && defined b v) || Value.is_null u || Value.is_null v
      then None
      else known (compare_values op (offset_value a u) (offset_value b v))

let compare_expr a b =
  let c = Term.compare a.base b.base in
  if c <> 0 then c else Int.compare a.offset b.offset

let compare x y =
  match x, y with
  | False, False -> 0
  | False, Cmp _ -> -1
  | Cmp _, False -> 1
  | Cmp (o1, a1, b1), Cmp (o2, a2, b2) ->
      let c = Stdlib.compare o1 o2 in
      if c <> 0 then c
      else
        let c = compare_expr a1 a2 in
        if c <> 0 then c else compare_expr b1 b2

let equal x y = compare x y = 0

let op_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Leq -> "<="
  | Gt -> ">"
  | Geq -> ">="

let pp_op ppf op = Fmt.string ppf (op_string op)

let pp_expr ppf e =
  if e.offset = 0 then Term.pp ppf e.base
  else if e.offset > 0 then Fmt.pf ppf "%a + %d" Term.pp e.base e.offset
  else Fmt.pf ppf "%a - %d" Term.pp e.base (-e.offset)

let pp ppf = function
  | False -> Fmt.string ppf "false"
  | Cmp (op, a, b) -> Fmt.pf ppf "%a %s %a" pp_expr a (op_string op) pp_expr b
