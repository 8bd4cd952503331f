module Schema = Relational.Schema
module Instance = Relational.Instance

type loaded = {
  schema : Schema.t;
  instance : Instance.t;
  ics : Ic.Constr.t list;
  queries : (string * Query.Qsyntax.t) list;
  updates : Delta.op list;
}

let ( let* ) = Result.bind

let default_attrs n = List.init n (fun i -> Printf.sprintf "c%d" (i + 1))

let note_arity schema rel arity =
  match Schema.arity schema rel with
  | None -> Ok (Schema.add_relation schema ~name:rel ~attrs:(default_attrs arity))
  | Some a when a = arity -> Ok schema
  | Some a ->
      Error (Printf.sprintf "relation %s has arity %d but is used with %d atoms" rel a arity)

(* The core load over line-located items.  [where line msg] renders a
   semantic error at the item starting on [line] — the file-aware entry
   points prefix "file:line:" so a fuzzer-minimized repro (or any scenario
   in the conformance corpus) points at the offending item. *)
let of_located_items ~where litems =
  let locate line r = Result.map_error (where line) r in
  (* pass 1: schema (declared and inferred) *)
  let* schema =
    List.fold_left
      (fun acc (line, item) ->
        let* schema = acc in
        locate line
          (match item with
          | Surface.Relation (name, attrs) ->
              if Schema.mem schema name then
                Error (Printf.sprintf "relation %s declared twice" name)
              else Ok (Schema.add_relation schema ~name ~attrs)
          | Surface.Fact (name, values)
          | Surface.Insert (name, values)
          | Surface.Delete (name, values) ->
              note_arity schema name (List.length values)
          | Surface.Constraint { ante; cons; _ } ->
              List.fold_left
                (fun acc a ->
                  let* schema = acc in
                  note_arity schema (Ic.Patom.pred a) (Ic.Patom.arity a))
                (Ok schema) (ante @ cons)
          | Surface.NotNull _ | Surface.Query _ -> Ok schema))
      (Ok Schema.empty) litems
  in
  (* pass 2: build everything; facts are collected for one bulk build of
     the instance (per-fact [Instance.add] would leave large relations in
     an unindexed overlay), update statements in file order, not folded
     into the instance (see [final_instance]) *)
  let* facts, rev_ics, rev_queries, rev_updates =
    List.fold_left
      (fun acc (line, item) ->
        let* facts, ics, queries, updates = acc in
        locate line
          (match item with
          | Surface.Relation _ -> Ok (facts, ics, queries, updates)
          | Surface.Fact (name, values) ->
              Ok
                ( Relational.Atom.make name values :: facts,
                  ics, queries, updates )
          | Surface.Insert (name, values) ->
              Ok
                ( facts, ics, queries,
                  Delta.insert (Relational.Atom.make name values) :: updates )
          | Surface.Delete (name, values) ->
              Ok
                ( facts, ics, queries,
                  Delta.delete (Relational.Atom.make name values) :: updates )
          | Surface.Constraint { name; ante; cons; phi } -> (
              match Ic.Constr.generic ?name ~ante ~cons ~phi () with
              | ic -> Ok (facts, ic :: ics, queries, updates)
              | exception Invalid_argument msg -> Error msg)
          | Surface.NotNull (rel, pos) -> (
              match Schema.arity schema rel with
              | None -> Error (Printf.sprintf "not_null on unknown relation %s" rel)
              | Some arity -> (
                  match Ic.Constr.not_null ~pred:rel ~arity ~pos () with
                  | ic -> Ok (facts, ic :: ics, queries, updates)
                  | exception Invalid_argument msg -> Error msg))
          | Surface.Query (name, head, body) -> (
              match Query.Qsyntax.make ~name ~head body with
              | q -> Ok (facts, ics, (line, name, q) :: queries, updates)
              | exception Invalid_argument msg -> Error msg)))
      (Ok ([], [], [], []))
      litems
  in
  (* validate query atoms against the schema *)
  let* () =
    List.fold_left
      (fun acc (line, name, q) ->
        let* () = acc in
        locate line
          (List.fold_left
             (fun acc atom ->
               let* () = acc in
               match Schema.arity schema (Ic.Patom.pred atom) with
               | None ->
                   Error
                     (Printf.sprintf "query %s mentions unknown relation %s" name
                        (Ic.Patom.pred atom))
               | Some a when a = Ic.Patom.arity atom -> Ok ()
               | Some a ->
                   Error
                     (Printf.sprintf "query %s uses %s with arity %d, expected %d" name
                        (Ic.Patom.pred atom) (Ic.Patom.arity atom) a))
             (Ok ())
             (Query.Qsyntax.atoms q.Query.Qsyntax.body)))
      (Ok ()) rev_queries
  in
  Ok
    {
      schema;
      instance = Instance.of_atoms facts;
      ics = List.rev rev_ics;
      queries = List.rev_map (fun (_, name, q) -> (name, q)) rev_queries;
      updates = List.rev rev_updates;
    }

let of_items items =
  (* positionless entry point (kept for programmatic item lists): errors
     are rendered exactly as before the located loader existed *)
  of_located_items
    ~where:(fun _ msg -> msg)
    (List.map (fun item -> (0, item)) items)

let final_instance l = Delta.apply l.updates l.instance

let where_of_file file line msg =
  match file with
  | Some f -> Printf.sprintf "%s:%d: %s" f line msg
  | None -> Printf.sprintf "line %d: %s" line msg

let of_string ?file input =
  let at line col msg =
    match file with
    | Some f -> Printf.sprintf "%s:%d:%d: %s" f line col msg
    | None -> Printf.sprintf "%d:%d: %s" line col msg
  in
  match Parser.parse_located input with
  | litems -> of_located_items ~where:(where_of_file file) litems
  | exception Parser.Parse_error (msg, line, col) ->
      Error (at line col (Printf.sprintf "parse error: %s" msg))
  | exception Lexer.Lex_error (msg, line, col) ->
      Error (at line col (Printf.sprintf "lexical error: %s" msg))

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string ~file:path contents
  | exception Sys_error msg -> Error msg
