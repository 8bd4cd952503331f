type dialect = Dlv | Clingo

let bare_ok s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let escape_const = function
  | Syntax.Num i -> string_of_int i
  | Syntax.Sym s -> if bare_ok s then s else "\"" ^ String.escaped s ^ "\""

let term_to_string = function
  | Syntax.Var x -> String.capitalize_ascii x
  | Syntax.Const c -> escape_const c

let atom_to_string (a : Syntax.atom) =
  match a.Syntax.args with
  | [] -> a.Syntax.pred
  | args ->
      Printf.sprintf "%s(%s)" a.Syntax.pred
        (String.concat "," (List.map term_to_string args))

let op_to_string = function
  | Syntax.Eq -> "="
  | Syntax.Neq -> "!="
  | Syntax.Lt -> "<"
  | Syntax.Leq -> "<="
  | Syntax.Gt -> ">"
  | Syntax.Geq -> ">="

let builtin_to_string (b : Syntax.builtin) =
  Printf.sprintf "%s %s %s" (term_to_string b.Syntax.lhs)
    (op_to_string b.Syntax.op)
    (term_to_string b.Syntax.rhs)

let rule_to_string dialect (r : Syntax.rule) =
  let disj = match dialect with Dlv -> " v " | Clingo -> " | " in
  let head = String.concat disj (List.map atom_to_string r.Syntax.head) in
  let body =
    List.map atom_to_string r.Syntax.body_pos
    @ List.map (fun a -> "not " ^ atom_to_string a) r.Syntax.body_neg
    @ List.map builtin_to_string r.Syntax.body_builtin
  in
  match r.Syntax.head, body with
  | [], _ -> Printf.sprintf ":- %s." (String.concat ", " body)
  | _, [] -> head ^ "."
  | _ -> Printf.sprintf "%s :- %s." head (String.concat ", " body)

let program_to_string dialect p =
  String.concat "\n" (List.map (rule_to_string dialect) p) ^ "\n"
