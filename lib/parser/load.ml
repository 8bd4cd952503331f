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

let arity_clash rel a arity =
  Printf.sprintf "relation %s has arity %d but is used with %d atoms" rel a arity

let note_arity schema rel arity =
  match Schema.arity schema rel with
  | None -> Ok (Schema.add_relation schema ~name:rel ~attrs:(default_attrs arity))
  | Some a when a = arity -> Ok schema
  | Some a -> Error (arity_clash rel a arity)

(* Pass 1 of an item other than a fact: the schema it declares or
   infers. *)
let declare schema = function
  | Surface.Relation (name, attrs) ->
      if Schema.mem schema name then
        Error (Printf.sprintf "relation %s declared twice" name)
      else Ok (Schema.add_relation schema ~name ~attrs)
  | Surface.Fact (name, values) | Surface.Insert (name, values) | Surface.Delete (name, values)
    ->
      note_arity schema name (List.length values)
  | Surface.Constraint { ante; cons; _ } ->
      List.fold_left
        (fun acc a ->
          let* schema = acc in
          note_arity schema (Ic.Patom.pred a) (Ic.Patom.arity a))
        (Ok schema) (ante @ cons)
  | Surface.NotNull _ | Surface.Query _ -> Ok schema

(* Pass 2 over the items other than facts, with the whole file's schema:
   constraints through {!Ic.Constr.generic} (so all form-(1) side
   conditions are enforced), named queries, update statements in file
   order (not folded into the instance, see [final_instance]); then the
   query atoms against the schema.  [where line msg] renders an error at
   the item starting on [line]. *)
let build_items ~where schema litems =
  let locate line r = Result.map_error (where line) r in
  let* rev_ics, rev_queries, rev_updates =
    List.fold_left
      (fun acc (line, item) ->
        let* ics, queries, updates = acc in
        locate line
          (match item with
          | Surface.Relation _ | Surface.Fact _ -> Ok (ics, queries, updates)
          | Surface.Insert (name, values) ->
              Ok
                ( ics, queries,
                  Delta.insert (Relational.Atom.make name values) :: updates )
          | Surface.Delete (name, values) ->
              Ok
                ( ics, queries,
                  Delta.delete (Relational.Atom.make name values) :: updates )
          | Surface.Constraint { name; ante; cons; phi } -> (
              match Ic.Constr.generic ?name ~ante ~cons ~phi () with
              | ic -> Ok (ic :: ics, queries, updates)
              | exception Invalid_argument msg -> Error msg)
          | Surface.NotNull (rel, pos) -> (
              match Schema.arity schema rel with
              | None -> Error (Printf.sprintf "not_null on unknown relation %s" rel)
              | Some arity -> (
                  match Ic.Constr.not_null ~pred:rel ~arity ~pos () with
                  | ic -> Ok (ic :: ics, queries, updates)
                  | exception Invalid_argument msg -> Error msg))
          | Surface.Query (name, head, body) -> (
              match Query.Qsyntax.make ~name ~head body with
              | q -> Ok (ics, (line, name, q) :: queries, updates)
              | exception Invalid_argument msg -> Error msg)))
      (Ok ([], [], []))
      litems
  in
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
    ( List.rev rev_ics,
      List.rev_map (fun (_, name, q) -> (name, q)) rev_queries,
      List.rev rev_updates )

let final_instance l = Delta.apply l.updates l.instance

let where_of_file file line msg =
  match file with
  | Some f -> Printf.sprintf "%s:%d: %s" f line msg
  | None -> Printf.sprintf "line %d: %s" line msg

(* A relation's facts so far: its arity and the builder its rows are
   interned into. *)
type rel = { name : string; arity : int; rows : Instance.builder }

let of_string ?file input =
  let at line col msg =
    match file with
    | Some f -> Printf.sprintf "%s:%d:%d: %s" f line col msg
    | None -> Printf.sprintf "%d:%d: %s" line col msg
  in
  let where = where_of_file file in
  (* pass 1 runs as the file is parsed; its first error, in file order,
     stands unless a parse or lexical error comes after it *)
  let schema = ref Schema.empty and failed = ref None in
  let fail line msg = if Option.is_none !failed then failed := Some (where line msg) in
  let rels = Hashtbl.create 16 and last = ref None and litems = ref [] in
  let rel_of name arity =
    match !last with
    | Some r when String.equal r.name name -> r
    | _ ->
        let r =
          match Hashtbl.find_opt rels name with
          | Some r -> r
          | None ->
              let arity =
                match Schema.arity !schema name with
                | Some a -> a
                | None ->
                    schema := Schema.add_relation !schema ~name ~attrs:(default_attrs arity);
                    arity
              in
              let r = { name; arity; rows = Instance.builder name ~arity } in
              Hashtbl.add rels name r;
              r
        in
        last := Some r;
        r
  in
  let fact ~line name values n =
    if Option.is_none !failed then begin
      let r = rel_of name n in
      if r.arity = n then Instance.add_row r.rows values
      else fail line (arity_clash name r.arity n)
    end
  in
  let item line it =
    (if Option.is_none !failed then
       match declare !schema it with
       | Ok s -> schema := s
       | Error msg -> fail line msg);
    litems := (line, it) :: !litems
  in
  match Parser.iter_items ~fact ~item input with
  | exception Parser.Parse_error (msg, line, col) ->
      Error (at line col (Printf.sprintf "parse error: %s" msg))
  | exception Lexer.Lex_error (msg, line, col) ->
      Error (at line col (Printf.sprintf "lexical error: %s" msg))
  | () -> (
      match !failed with
      | Some e -> Error e
      | None ->
          let* ics, queries, updates = build_items ~where !schema (List.rev !litems) in
          Ok
            {
              schema = !schema;
              instance =
                Instance.build (Hashtbl.fold (fun _ r acc -> r.rows :: acc) rels []);
              ics;
              queries;
              updates;
            })

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string ~file:path contents
  | exception Sys_error msg -> Error msg
