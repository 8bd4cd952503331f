(* The session line protocol, shared by the stdin REPL (`cqanull session`)
   and the socket server (`cqanull serve`).

   One [exec] call turns one request line into one reply string.  The
   hardening contract (the serving-loop extension of [Budget]'s
   no-exception-escape contract): no input line and no failure inside a
   request may raise out of [exec] — parse errors, schema errors, budget
   trips and even unexpected exceptions all become protocol-level
   ["error: ..."] replies, so a single bad request can never kill the
   loop it runs under.  Replies are rendered into a buffer formatter with
   the same margin as the REPL's [std_formatter], so the server's replies
   are byte-identical to the REPL's output for the same requests. *)

type env = {
  schema : Relational.Schema.t;
  queries : (string * Query.Qsyntax.t) list;
}

type config = {
  engine : Session.engine;
  jobs : int;
  capacity : int;
  timeout_ms : int option;  (* per-request deadline *)
  want_stats : bool;
  allow_load : bool;  (* REPL yes; server sessions share one base *)
  max_line : int;
  cache : Session.Cache.t option;  (* shared component cache, if any *)
  extra_stats : (Format.formatter -> unit) option;
      (* appended to the `stats` reply — the server adds the global cache
         line here *)
}

let default_max_line = 1 lsl 20

let repl_config ?(engine = Session.Program) ?(jobs = 1) ?timeout_ms
    ?(want_stats = false) ?(capacity = 256) () =
  {
    engine;
    jobs;
    capacity;
    timeout_ms;
    want_stats;
    allow_load = true;
    max_line = default_max_line;
    cache = None;
    extra_stats = None;
  }

type t = {
  cfg : config;
  (* (session, environment) once a database is in; commands before that
     are answered with an error instead of crashing the loop *)
  mutable state : (Session.t * env) option;
}

type reply = { text : string; quit : bool }

let create cfg = { cfg; state = None }
let session t = Option.map fst t.state
let env_of_loaded (l : Lang.Load.loaded) =
  { schema = l.Lang.Load.schema; queries = l.Lang.Load.queries }

let attach ?violations t ~base ~ics env =
  let s =
    Session.create ~engine:t.cfg.engine ~jobs:t.cfg.jobs
      ~capacity:t.cfg.capacity ?cache:t.cfg.cache ?violations base ics
  in
  t.state <- Some (s, env);
  s

(* ------------------------------------------------------------------ *)
(* Per-request budget plumbing, as in the one-shot subcommands: one budget
   per request, stats printed on demand. *)

let start_budget t =
  Budget.start_request ?timeout_ms:t.cfg.timeout_ms ~want_stats:t.cfg.want_stats
    ~jobs:t.cfg.jobs ()

let report_budget t ppf budget =
  Budget.report ~want_stats:t.cfg.want_stats ppf budget

(* ------------------------------------------------------------------ *)
(* Request handlers.  A reply is written as the one-shot subcommands write
   theirs (pinned by test/cli/session.t). *)

let loaded_line ppf path s (l : Lang.Load.loaded) =
  Fmt.pf ppf
    "loaded %s: %d tuples, %d constraints, %d queries, %d violation(s)@." path
    (Relational.Instance.cardinal (Session.instance s))
    (List.length l.Lang.Load.ics)
    (List.length l.Lang.Load.queries)
    (List.length (Session.violations s))

let load_file t ppf path =
  match Lang.Load.of_file path with
  | Error msg -> Fmt.pf ppf "error: %s@." msg
  | Ok l ->
      let s = attach t ~base:l.Lang.Load.instance ~ics:l.Lang.Load.ics
          (env_of_loaded l)
      in
      (* the file's own update statements replay through the engine, so a
         later `stats` already shows their delta counters *)
      if l.Lang.Load.updates <> [] then Session.apply s l.Lang.Load.updates;
      loaded_line ppf path s l

let with_session t ppf f =
  match t.state with
  | None -> Fmt.pf ppf "error: no database loaded (use: load FILE)@."
  | Some (s, env) -> f s env

(* updates are parsed by the surface parser itself: the whole line is an
   `insert`/`delete` item (the trailing dot is optional here) *)
let do_update t ppf line =
  with_session t ppf (fun s env ->
      let line = String.trim line in
      let line =
        if String.length line > 0 && line.[String.length line - 1] = '.' then
          line
        else line ^ "."
      in
      match Lang.Parser.parse line with
      | exception Lang.Parser.Parse_error (msg, _, col) ->
          Fmt.pf ppf "error: parse error at column %d: %s@." col msg
      | exception Lang.Lexer.Lex_error (msg, _, col) ->
          Fmt.pf ppf "error: lexical error at column %d: %s@." col msg
      | items -> (
          let op_of = function
            | Lang.Surface.Insert (name, vs) ->
                Some (Delta.insert (Relational.Atom.make name vs))
            | Lang.Surface.Delete (name, vs) ->
                Some (Delta.delete (Relational.Atom.make name vs))
            | _ -> None
          in
          match List.map op_of items with
          | ops when List.for_all Option.is_some ops && ops <> [] -> (
              let ops = List.filter_map Fun.id ops in
              let bad =
                List.find_opt
                  (fun op ->
                    Result.is_error
                      (Relational.Schema.check_atom env.schema (Delta.atom op)))
                  ops
              in
              match bad with
              | Some op ->
                  Fmt.pf ppf "error: %s@."
                    (Result.fold ~ok:(fun () -> "") ~error:Fun.id
                       (Relational.Schema.check_atom env.schema (Delta.atom op)))
              | None ->
                  Session.apply s ops;
                  Fmt.pf ppf "ok: %d tuples, %d violation(s)@."
                    (Relational.Instance.cardinal (Session.instance s))
                    (List.length (Session.violations s)))
          | _ -> Fmt.pf ppf "error: expected insert/delete statement(s)@."))

let do_repairs t ppf =
  with_session t ppf (fun s _ ->
      let budget = start_budget t in
      (match Budget.guard (fun () -> Session.repairs ?budget s) with
      | Error msg -> Fmt.pf ppf "error: %s@." msg
      | Ok reps -> Query.Cqa.pp_repairs (Session.instance s) ppf reps);
      report_budget t ppf budget)

let do_cqa t ppf rest =
  with_session t ppf (fun s env ->
      let arg = String.trim rest in
      let resolved =
        match List.assoc_opt arg env.queries with
        | Some q -> Ok (arg, q)
        | None when String.contains arg ':' -> (
            (* inline query declaration, e.g. cqa q(X): P(X). *)
            let text =
              "query "
              ^
              if String.length arg > 0 && arg.[String.length arg - 1] = '.'
              then arg
              else arg ^ "."
            in
            match Lang.Parser.parse text with
            | [ Lang.Surface.Query (name, head, body) ] -> (
                match Query.Qsyntax.make ~name ~head body with
                | q -> Ok (name, q)
                | exception Invalid_argument msg -> Error msg)
            | _ -> Error "expected a single query"
            | exception Lang.Parser.Parse_error (msg, _, col) ->
                Error (Printf.sprintf "parse error at column %d: %s" col msg)
            | exception Lang.Lexer.Lex_error (msg, _, col) ->
                Error (Printf.sprintf "lexical error at column %d: %s" col msg)
            )
        | None ->
            Error
              (Printf.sprintf
                 "no query named %s (declare it in the file or pass name(X): \
                  body)"
                 arg)
      in
      match resolved with
      | Error msg -> Fmt.pf ppf "error: %s@." msg
      | Ok (name, q) ->
          Fmt.pf ppf "query %s: %a@." name Query.Qsyntax.pp q;
          let budget = start_budget t in
          (match Budget.guard (fun () -> Session.cqa ?budget s q) with
          | Error msg -> Fmt.pf ppf "  error: %s@." msg
          | Ok outcome -> Fmt.pf ppf "%a@." Query.Cqa.pp_outcome outcome);
          report_budget t ppf budget)

let do_check t ppf =
  with_session t ppf (fun s _ ->
      match Session.violations s with
      | [] ->
          Fmt.pf ppf "consistent (%d tuples, %d constraints)@."
            (Relational.Instance.cardinal (Session.instance s))
            (List.length (Session.constraints s))
      | violations ->
          List.iter
            (fun v -> Fmt.pf ppf "%a@." Semantics.Nullsat.pp_violation v)
            violations;
          Fmt.pf ppf "%d violation(s)@." (List.length violations))

let do_stats t ppf =
  with_session t ppf (fun s _ ->
      Fmt.pf ppf "%a@." Session.pp_stats (Session.stats s);
      match t.cfg.extra_stats with Some extra -> extra ppf | None -> ())

let known_commands t =
  if t.cfg.allow_load then
    "load, insert, delete, cqa, repairs, check, stats, quit"
  else "insert, delete, cqa, repairs, check, stats, quit"

let run_line t ppf line =
  if String.length line > t.cfg.max_line then begin
    Fmt.pf ppf "error: line exceeds %d bytes@." t.cfg.max_line;
    false
  end
  else
    let line = String.trim line in
    if line = "" || line.[0] = '%' then false
    else
      let cmd, rest =
        match String.index_opt line ' ' with
        | None -> (line, "")
        | Some i ->
            ( String.sub line 0 i,
              String.sub line (i + 1) (String.length line - i - 1) )
      in
      match cmd with
      | "quit" | "exit" -> true
      | "load" when t.cfg.allow_load ->
          load_file t ppf (String.trim rest);
          false
      | "load" ->
          Fmt.pf ppf
            "error: load is disabled here (the server owns the base \
             database)@.";
          false
      | "insert" | "delete" ->
          do_update t ppf line;
          false
      | "cqa" ->
          do_cqa t ppf rest;
          false
      | "repairs" ->
          do_repairs t ppf;
          false
      | "check" ->
          do_check t ppf;
          false
      | "stats" ->
          do_stats t ppf;
          false
      | _ ->
          Fmt.pf ppf "error: unknown command '%s' (%s)@." cmd
            (known_commands t);
          false

let with_buffer f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let quit = f ppf in
  Format.pp_print_flush ppf ();
  { text = Buffer.contents buf; quit }

let exec t line =
  with_buffer (fun ppf ->
      match run_line t ppf line with
      | quit -> quit
      | exception Budget.Exhausted e ->
          (* belt and braces: [Budget.guard] wraps the request bodies, but
             the contract must hold even for a path that slips through *)
          Fmt.pf ppf "error: %s@." (Budget.message e);
          false
      | exception e ->
          Fmt.pf ppf "error: internal: %s@." (Printexc.to_string e);
          false)

let load t path = with_buffer (fun ppf -> load_file t ppf path; false)

let oversized t =
  with_buffer (fun ppf ->
      Fmt.pf ppf "error: line exceeds %d bytes@." t.cfg.max_line;
      false)
