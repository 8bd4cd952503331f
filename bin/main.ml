(* cqanull — consistent query answering over databases with null values.

   Subcommands: check, repairs, cqa, session, serve, connect, export,
   graph, solve. *)

open Cmdliner

let load_or_die file =
  match Lang.Load.of_file file with
  | Ok l -> l
  | Error msg ->
      Fmt.epr "error: %s@." msg;
      exit 2

(* Write [text] to [path] and say so; a path that cannot be written is
   reported on stderr, and the caller exits 1. *)
let write_file path text =
  match Out_channel.with_open_text path (fun oc -> output_string oc text) with
  | () ->
      Fmt.pr "wrote %s@." path;
      true
  | exception Sys_error msg ->
      Fmt.epr "error: %s@." msg;
      false

let file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Surface file with facts, constraints and queries.")

(* ------------------------------------------------------------------ *)
(* check *)

let check_cmd =
  let run file all_semantics =
    let l = load_or_die file in
    let d = Lang.Load.final_instance l and ics = l.Lang.Load.ics in
    if all_semantics then begin
      let rows = Semantics.Report.compare_semantics d ics in
      List.iter (fun row -> Fmt.pr "%a@." Semantics.Report.pp_row row) rows;
      if Semantics.Nullsat.consistent d ics then 0 else 1
    end
    else begin
      match Semantics.Nullsat.check d ics with
      | [] ->
          Fmt.pr "consistent (%d tuples, %d constraints)@." (Relational.Instance.cardinal d)
            (List.length ics);
          0
      | violations ->
          List.iter (fun v -> Fmt.pr "%a@." Semantics.Nullsat.pp_violation v) violations;
          Fmt.pr "%d violation(s)@." (List.length violations);
          1
    end
  in
  let all_flag =
    Arg.(value & flag & info [ "all-semantics" ] ~doc:"Compare all six satisfaction semantics.")
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check the database against its constraints under |=_N.")
    Term.(const (fun f a -> Stdlib.exit (run f a)) $ file_arg $ all_flag)

(* ------------------------------------------------------------------ *)
(* repairs *)

let engine_conv =
  Arg.enum [ ("program", `Program); ("enumerate", `Enumerate) ]

let timeout_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "timeout" ] ~docv:"MS"
        ~doc:"Wall-clock deadline for the whole run, in milliseconds; \
              exceeding it reports an error (or, for a CQA query, a partial \
              outcome over the conflict components already solved) instead \
              of running forever.")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print the run's budget counters (solver decisions, search \
              states, components solved, elapsed wall-clock).")

let jobs_flag =
  Arg.(
    value
    & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Solve conflict components on N worker domains: 'cqa' under \
              every method but cautious, 'repairs' under either engine, \
              'session' on every request that solves components.  1 (the \
              default) is fully sequential; 0 autodetects the machine's \
              recommended domain count.  The merge is deterministic, so the \
              output is identical for every N.")

let method_conv =
  Arg.enum
    [
      ("auto", `Auto);
      ("program", `Program);
      ("enumerate", `Enumerate);
      ("cautious", `Cautious);
    ]

let repairs_cmd =
  let run file engine repd save jobs timeout_ms want_stats =
    let jobs = Parallel.Config.resolve jobs in
    let l = load_or_die file in
    let d = Lang.Load.final_instance l and ics = l.Lang.Load.ics in
    (match Ic.Builder.non_conflicting ics with
    | Ok () -> ()
    | Error (nnc, ic) ->
        Fmt.epr
          "warning: NOT NULL-constraint '%s' conflicts with the existential \
           attribute of '%s' (Example 20 situation); consider --repd@."
          (Ic.Constr.label nnc) (Ic.Constr.label ic));
    let budget = Budget.start_request ?timeout_ms ~want_stats ~jobs () in
    let repairs method_ = Query.Cqa.repairs ?budget ~jobs ~method_ d ics in
    let result =
      if repd then
        Budget.guard (fun () -> Ok (Repair.Repd.repairs_d ?budget d ics))
      else
        match engine with
        | `Enumerate -> repairs Query.Cqa.ModelTheoretic
        | `Program -> (
            match repairs Query.Cqa.LogicProgram with
            | Ok _ as ok -> ok
            | Error msg when timeout_ms = None ->
                Fmt.epr "repair program not applicable (%s); falling back to \
                         enumeration@." msg;
                repairs Query.Cqa.ModelTheoretic
            | Error _ as e -> e)
    in
    match result with
    | Error msg ->
        Budget.report ~want_stats Fmt.stdout budget;
        Fmt.epr "error: %s@." msg;
        1
    | Ok repairs ->
        Query.Cqa.pp_repairs d Fmt.stdout repairs;
        Budget.report ~want_stats Fmt.stdout budget;
        (match save with
        | None -> 0
        | Some prefix ->
            (* stop at the first repair that cannot be written *)
            let rec save_from i = function
              | [] -> 0
              | r :: rest ->
                  let path = Printf.sprintf "%s_%d.cqa" prefix i in
                  if write_file path
                       (Lang.Emit.file ~schema:l.Lang.Load.schema ~ics r)
                  then save_from (i + 1) rest
                  else 1
            in
            save_from 1 repairs)
  in
  let engine_flag =
    Arg.(
      value
      & opt engine_conv `Program
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Repair engine run on each conflict component: 'program' \
                (stable models of Pi(D,IC), Section 5) or 'enumerate' \
                (model-theoretic, Section 4).")
  in
  let repd_flag =
    Arg.(value & flag & info [ "repd" ] ~doc:"Compute the deletion-preferring class Rep_d.")
  in
  let save_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"PREFIX"
          ~doc:"Write each repair (with the constraints) to PREFIX_<i>.cqa.")
  in
  Cmd.v
    (Cmd.info "repairs" ~doc:"Enumerate the repairs of the database.")
    Term.(
      const (fun f e r s j t st -> Stdlib.exit (run f e r s j t st))
      $ file_arg $ engine_flag $ repd_flag $ save_flag $ jobs_flag
      $ timeout_flag $ stats_flag)

(* ------------------------------------------------------------------ *)
(* cqa *)

let cqa_cmd =
  let run file query_name engine jobs timeout_ms want_stats =
    let jobs = Parallel.Config.resolve jobs in
    let l = load_or_die file in
    let d = Lang.Load.final_instance l and ics = l.Lang.Load.ics in
    let queries =
      match query_name with
      | None -> l.Lang.Load.queries
      | Some n -> (
          match List.assoc_opt n l.Lang.Load.queries with
          | Some q -> [ (n, q) ]
          | None ->
              Fmt.epr "error: no query named %s@." n;
              exit 2)
    in
    if queries = [] then begin
      Fmt.epr "error: the file declares no queries@.";
      exit 2
    end;
    let method_ =
      match engine with
      | `Auto -> Query.Cqa.Auto
      | `Program -> Query.Cqa.LogicProgram
      | `Enumerate -> Query.Cqa.ModelTheoretic
      | `Cautious -> Query.Cqa.CautiousProgram
    in
    let budget = Budget.start_request ?timeout_ms ~want_stats ~jobs () in
    let failed =
      List.fold_left
        (fun failed (name, q) ->
          Fmt.pr "query %s: %a@." name Query.Qsyntax.pp q;
          (match Query.Qsafe.check q with
          | Ok () -> ()
          | Error msg -> Fmt.pr "  note: %s@." msg);
          match
            Query.Cqa.consistent_answers ~method_ ?budget ~jobs d ics q
          with
          | Error msg ->
              Fmt.pr "  error: %s@." msg;
              true
          | Ok outcome ->
              Fmt.pr "%a@." Query.Cqa.pp_outcome outcome;
              failed)
        false queries
    in
    Budget.report ~want_stats Fmt.stdout budget;
    if failed then 1 else 0
  in
  let query_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "query"; "q" ] ~docv:"NAME" ~doc:"Only answer the named query.")
  in
  let engine_flag =
    Arg.(
      value & opt method_conv `Auto
      & info [ "method"; "engine" ] ~docv:"METHOD"
          ~doc:"'auto' (the default) routes each conflict component to the \
                cheapest sound engine: the repair-less direct computation \
                where the constraints allow it, the shifted repair program \
                where it is head-cycle-free, and enumeration last; \
                'program' and 'enumerate' materialize the repairs of every \
                component with the stable-model and model-theoretic engines \
                respectively; \
                'cautious' reasons over the repair program without \
                materializing any (RIC-acyclic constraints only).")
  in
  Cmd.v
    (Cmd.info "cqa"
       ~doc:"Compute consistent answers (Definition 8) to the file's queries."
       ~exits:
         (Cmd.Exit.info 1
            ~doc:"when a query failed (for example past its $(b,--timeout) \
                  deadline); the other queries are still answered"
         :: Cmd.Exit.defaults))
    Term.(
      const (fun f q e j t st -> Stdlib.exit (run f q e j t st))
      $ file_arg $ query_flag $ engine_flag $ jobs_flag $ timeout_flag
      $ stats_flag)

(* ------------------------------------------------------------------ *)
(* session: a line-protocol serving loop over the incremental engine *)

let session_engine = function
  | `Program -> Session.Program
  | `Enumerate -> Session.Enumerate
  | `Auto -> Session.Auto

let session_cmd =
  let run file engine jobs timeout_ms want_stats capacity =
    let jobs = Parallel.Config.resolve jobs in
    let engine = session_engine engine in
    (* the REPL is the line protocol (shared with `cqanull serve`) wired
       to stdin/stdout; Protocol.exec never raises, so a bad line can
       never kill the loop *)
    let p =
      Serve.Protocol.create
        (Serve.Protocol.repl_config ~engine ~jobs ?timeout_ms ~want_stats
           ~capacity ())
    in
    let emit (r : Serve.Protocol.reply) =
      print_string r.Serve.Protocol.text;
      flush stdout
    in
    (match file with None -> () | Some f -> emit (Serve.Protocol.load p f));
    let rec loop () =
      match In_channel.input_line In_channel.stdin with
      | None -> 0
      | Some line ->
          let r = Serve.Protocol.exec p line in
          emit r;
          if r.Serve.Protocol.quit then 0 else loop ()
    in
    loop ()
  in
  let file_opt =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Surface file to load before serving.")
  in
  let engine_flag =
    Arg.(
      value
      & opt
          (Arg.enum
             [ ("program", `Program); ("enumerate", `Enumerate); ("auto", `Auto) ])
          `Program
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Repair engine behind the session cache: 'program' (stable \
                models), 'enumerate' (model-theoretic), or 'auto' (route \
                each component to the cheapest sound tier; the verdict is \
                cached with the component).")
  in
  let capacity_flag =
    Arg.(
      value
      & opt int 256
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Component-cache capacity in entries (LRU); 0 disables \
                caching.")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Serve a database interactively: delta updates (insert/delete), \
             repairs and CQA with incremental maintenance and a \
             component-keyed solve cache.  Line protocol on stdin: load \
             FILE, insert R(..), delete R(..), cqa QUERY, repairs, check, \
             stats, quit.")
    Term.(
      const (fun f e j t st c -> Stdlib.exit (run f e j t st c))
      $ file_opt $ engine_flag $ jobs_flag $ timeout_flag $ stats_flag
      $ capacity_flag)

(* ------------------------------------------------------------------ *)
(* serve: the session protocol on a socket, many concurrent sessions *)

let socket_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N"
        ~doc:"Loopback TCP port (0 picks a free one).")

let serve_addr socket port =
  match (socket, port) with
  | Some _, Some _ | None, None ->
      Fmt.epr "error: pass exactly one of --socket PATH or --port N@.";
      exit 2
  | Some path, None -> `Unix path
  | None, Some p -> `Tcp p

let serve_cmd =
  let run file socket port engine jobs timeout_ms want_stats capacity =
    let jobs = Parallel.Config.resolve jobs in
    let engine = session_engine engine in
    let l = load_or_die file in
    let base = Lang.Load.final_instance l in
    let server =
      Serve.Server.create
        {
          Serve.Server.engine;
          jobs;
          cache_capacity = capacity;
          timeout_ms;
          want_stats;
          max_line = Serve.Protocol.default_max_line;
        }
        ~base ~ics:l.Lang.Load.ics
        (Serve.Protocol.env_of_loaded l)
    in
    let fd, where =
      match
        match serve_addr socket port with
        | `Unix path -> (Serve.Server.listen_unix path, path)
        | `Tcp p ->
            let fd, actual = Serve.Server.listen_tcp p in
            (fd, Printf.sprintf "127.0.0.1:%d" actual)
      with
      | r -> r
      | exception Unix.Unix_error (e, _, arg) ->
          Fmt.epr "error: cannot listen (%s: %s)@." arg
            (Unix.error_message e);
          exit 2
    in
    Fmt.pr
      "serving %s on %s: %d tuples, %d constraints, %d queries, %d \
       violation(s) (jobs=%d, cache-capacity=%d)@."
      file where
      (Relational.Instance.cardinal base)
      (List.length l.Lang.Load.ics)
      (List.length l.Lang.Load.queries)
      (List.length (Serve.Server.violations server))
      jobs capacity;
    Serve.Server.run server fd;
    let st = Serve.Server.stats server in
    Fmt.pr "server stopped: %d connection(s), %d request(s)@."
      st.Serve.Server.connections st.Serve.Server.requests;
    Fmt.pr "%a@." Session.Cache.pp_stats st.Serve.Server.cache;
    0
  in
  let engine_flag =
    Arg.(
      value
      & opt
          (Arg.enum
             [ ("program", `Program); ("enumerate", `Enumerate); ("auto", `Auto) ])
          `Program
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Repair engine behind every session (see 'session').")
  in
  let jobs_flag =
    Arg.(
      value
      & opt int 0
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:"Worker domains shared by all connections for request \
                compute; 0 (the default) autodetects.")
  in
  let capacity_flag =
    Arg.(
      value
      & opt int 4096
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Process-global component-cache capacity in entries (LRU), \
                shared by every session; 0 disables caching.")
  in
  let timeout_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout" ] ~docv:"MS"
          ~doc:"Per-request wall-clock deadline in milliseconds.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the session line protocol on a Unix or loopback TCP \
             socket: one shared read-only base database, one independent \
             session per connection (insert/delete/cqa/repairs/check/stats/\
             quit), a process-global component cache, request compute on a \
             shared domain pool.  Replies are terminated by a '.' frame \
             line; the extra command 'shutdown' stops the server.")
    Term.(
      const (fun f s p e j t st c -> Stdlib.exit (run f s p e j t st c))
      $ file_arg $ socket_flag $ port_flag $ engine_flag $ jobs_flag
      $ timeout_flag $ stats_flag $ capacity_flag)

(* ------------------------------------------------------------------ *)
(* connect: a lock-step scripted client for serve *)

let connect_cmd =
  let run socket port wait_ms =
    let addr =
      match serve_addr socket port with
      | `Unix path -> Unix.ADDR_UNIX path
      | `Tcp p -> Unix.ADDR_INET (Unix.inet_addr_loopback, p)
    in
    match Serve.Client.connect ~retry_ms:wait_ms addr with
    | Error msg ->
        Fmt.epr "error: cannot connect: %s@." msg;
        1
    | Ok c ->
        let rec loop () =
          match In_channel.input_line In_channel.stdin with
          | None ->
              Serve.Client.close c;
              0
          | Some line -> (
              match Serve.Client.request c line with
              | Error `Closed ->
                  Serve.Client.close c;
                  0
              | Ok text ->
                  print_string text;
                  flush stdout;
                  loop ())
        in
        loop ()
  in
  let wait_flag =
    Arg.(
      value
      & opt int 0
      & info [ "wait" ] ~docv:"MS"
          ~doc:"Keep retrying the connection for up to MS milliseconds \
                (covers a server still starting up).")
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:"Connect to a running 'serve' instance: read request lines from \
             stdin, print each framed reply to stdout.")
    Term.(
      const (fun s p w -> Stdlib.exit (run s p w))
      $ socket_flag $ port_flag $ wait_flag)

(* ------------------------------------------------------------------ *)
(* export *)

let export_cmd =
  let run file dialect variant output =
    let l = load_or_die file in
    let variant =
      match variant with `Literal -> Core.Proggen.Literal | `Refined -> Core.Proggen.Refined
    in
    match
      Core.Proggen.repair_program ~variant (Lang.Load.final_instance l)
        l.Lang.Load.ics
    with
    | Error msg ->
        Fmt.epr "error: %s@." msg;
        1
    | Ok pg ->
        let text =
          match dialect with
          | `Dlv -> Core.Proggen.to_dlv pg
          | `Clingo -> Core.Proggen.to_clingo pg
        in
        (match output with
        | None ->
            print_string text;
            0
        | Some path -> if write_file path text then 0 else 1)
  in
  let dialect_flag =
    Arg.(
      value
      & opt (Arg.enum [ ("dlv", `Dlv); ("clingo", `Clingo) ]) `Dlv
      & info [ "dialect" ] ~docv:"DIALECT"
          ~doc:"Target syntax of the external ASP solver: 'dlv' or 'clingo'.")
  in
  let variant_flag =
    Arg.(
      value
      & opt (Arg.enum [ ("literal", `Literal); ("refined", `Refined) ]) `Literal
      & info [ "variant" ] ~docv:"VARIANT"
          ~doc:"'literal' emits Definition 9 verbatim; 'refined' the corrected \
                aux rules (see DESIGN.md).")
  in
  let output_flag =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Print the repair program Pi(D, IC) for an external ASP solver \
             (dlv/clingo).")
    Term.(
      const (fun f d v o -> Stdlib.exit (run f d v o))
      $ file_arg $ dialect_flag $ variant_flag $ output_flag)

(* ------------------------------------------------------------------ *)
(* solve: run the internal ASP solver on a DLV/clingo-syntax file *)

let solve_cmd =
  let run file limit mode want_stats =
    match Asp.Aspparse.parse_file file with
    | exception Asp.Aspparse.Parse_error (msg, line) ->
        Fmt.epr "parse error at line %d: %s@." line msg;
        1
    | exception Sys_error msg ->
        Fmt.epr "error: %s@." msg;
        1
    | program -> (
        match Asp.Grounder.ground program with
        | exception Asp.Grounder.Unsafe msg ->
            Fmt.epr "error: %s@." msg;
            1
        | ground -> (
            let solvable, _ = Asp.Shift.if_hcf ground in
            let stats = Asp.Solver.new_stats () in
            let report () =
              if want_stats then begin
                Fmt.pr "stats: %a@." Asp.Solver.pp_stats stats;
                Fmt.pr "cdcl: %a@." Asp.Solver.pp_search_stats stats
              end
            in
            let pp_atoms atoms =
              Fmt.pr "{%a}@."
                Fmt.(list ~sep:(any ", ") Asp.Ground.pp_gatom)
                atoms
            in
            match
              match mode with
              | `Models ->
                  `Models (Asp.Solver.stable_models_atoms ?limit ~stats solvable)
              | `Cautious -> `Atoms (Asp.Solver.cautious ~stats solvable)
              | `Brave -> `Atoms (Asp.Solver.brave ~stats solvable)
            with
            | exception Budget.Exhausted e ->
                report ();
                Fmt.epr "error: %s@." (Budget.message e);
                1
            | `Models models ->
                List.iter pp_atoms models;
                Fmt.pr "%d stable model(s)@." (List.length models);
                report ();
                if models = [] then 1 else 0
            | `Atoms None ->
                Fmt.pr "0 stable model(s)@.";
                report ();
                1
            | `Atoms (Some atoms) ->
                pp_atoms (List.map (Asp.Ground.atom_of solvable) atoms);
                report ();
                0))
  in
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let limit_flag =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "n"; "limit" ] ~docv:"N"
          ~doc:"Stop after N models (N >= 1); not with --cautious or --brave.")
  in
  let mode_flag =
    Arg.(
      value
      & vflag `Models
          [
            (`Cautious, info [ "cautious" ] ~doc:"Print atoms true in every stable model.");
            (`Brave, info [ "brave" ] ~doc:"Print atoms true in some stable model.");
          ])
  in
  let solve_stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the solver counters: decisions, propagations, \
                candidates, and the conflict/learning counters.")
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Run the internal stable-model solver on a DLV/clingo-syntax program.")
    Term.(
      ret
        (const (fun f l m st ->
             match (l, m) with
             | Some _, (`Cautious | `Brave) ->
                 (* the consequences range over every model: a limit
                    would be silently ignored *)
                 `Error
                   ( true,
                     "a model limit (-n) cannot be combined with --cautious \
                      or --brave" )
             | _ -> Stdlib.exit (run f l m st))
        $ file_arg $ limit_flag $ mode_flag $ solve_stats_flag))

(* ------------------------------------------------------------------ *)
(* conform: the scenario corpus and expected-verdict suite *)

let conform_cmd =
  let run family verbose list_only write_corpus =
    let cases = Conform.Suite.all @ Conform.Corpus.all in
    let cases =
      match family with
      | None -> cases
      | Some f -> (
          match
            List.filter (fun c -> c.Conform.Case.family = f) cases
          with
          | [] ->
              Fmt.epr "error: no conformance family named %s@." f;
              exit 2
          | l -> l)
    in
    match write_corpus with
    | Some dir ->
        let written = Conform.Corpus.write_corpus dir in
        List.iter (fun p -> Fmt.pr "wrote %s@." p) written;
        0
    | None ->
        if list_only then begin
          List.iter
            (fun (c : Conform.Case.t) ->
              Fmt.pr "%-22s %-15s %s@." c.Conform.Case.name
                c.Conform.Case.family c.Conform.Case.doc)
            cases;
          0
        end
        else begin
          let summary, results = Conform.Runner.run cases in
          List.iter
            (fun (fam : string) ->
              let of_fam =
                List.filter
                  (fun (r : Conform.Runner.result_) ->
                    r.Conform.Runner.case.Conform.Case.family = fam)
                  results
              in
              let ok = List.filter Conform.Runner.passed of_fam in
              Fmt.pr "family %-16s %2d case(s), %2d passed@." fam
                (List.length of_fam) (List.length ok);
              if verbose then
                List.iter
                  (fun (r : Conform.Runner.result_) ->
                    Fmt.pr "  %-20s %s (%d tier(s): %s)@."
                      r.Conform.Runner.case.Conform.Case.name
                      (if Conform.Runner.passed r then "ok" else "FAIL")
                      (List.length r.Conform.Runner.tiers)
                      (String.concat "+"
                         (List.map
                            (fun (t : Conform.Runner.tier_result) ->
                              t.Conform.Runner.tier)
                            r.Conform.Runner.tiers)))
                  of_fam)
            summary.Conform.Runner.families;
          List.iter
            (fun (r : Conform.Runner.result_) ->
              List.iter
                (fun msg ->
                  Fmt.pr "FAIL %s: %s@." r.Conform.Runner.case.Conform.Case.name
                    msg)
                r.Conform.Runner.failures)
            summary.Conform.Runner.failed;
          Fmt.pr "conform: %d/%d case(s) passed across %d families@."
            summary.Conform.Runner.ok summary.Conform.Runner.total
            (List.length summary.Conform.Runner.families);
          if summary.Conform.Runner.failed = [] then 0 else 1
        end
  in
  let family_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:"Only run the named scenario family (paper, ft-null-algebra, \
                fk_chain, fd_cluster, cyclic_ric, nnc_ric, session_stream).")
  in
  let verbose_flag =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print one line per case.")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List the cases without running them.")
  in
  let write_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "write-corpus" ] ~docv:"DIR"
          ~doc:"Materialize the generated scenario corpus under \
                DIR/<family>/<case>.cqa instead of running.")
  in
  Cmd.v
    (Cmd.info "conform"
       ~doc:"Run the conformance suite: paper examples, SQL-null algebra \
             equivalences and generated scenario families, answered through \
             every engine tier (auto, program, enumerate, session, serve) \
             with byte-identical outcomes and pinned verdicts.")
    Term.(
      const (fun f v l w -> Stdlib.exit (run f v l w))
      $ family_flag $ verbose_flag $ list_flag $ write_flag)

(* ------------------------------------------------------------------ *)
(* fuzz: randomized cross-tier differential testing with minimization *)

let fuzz_cmd =
  let run seed cases oracle_name minimize out timeout_ms =
    let oracle =
      match Conform.Fuzz.oracle_named oracle_name with
      | Some o -> o
      | None ->
          Fmt.epr "error: no oracle named %s (differential, inconsistent)@."
            oracle_name;
          exit 2
    in
    let budget =
      Option.map
        (fun ms -> Budget.start (Budget.make ~timeout_ms:ms ()))
        timeout_ms
    in
    let r = Conform.Fuzz.run ~oracle ?budget ~seed ~cases () in
    match r.Conform.Fuzz.failure with
    | None when r.Conform.Fuzz.timed_out ->
        Fmt.pr
          "fuzz: deadline exceeded after %d case(s), oracle %s: all passed@."
          r.Conform.Fuzz.tested oracle.Conform.Fuzz.name;
        0
    | None ->
        Fmt.pr "fuzz: %d case(s), oracle %s, seeds %d..%d: all passed@."
          r.Conform.Fuzz.tested oracle.Conform.Fuzz.name seed
          (seed + cases - 1);
        0
    | Some (at, msg, sc) ->
        Fmt.pr "fuzz: FAILURE at seed %d (oracle %s): %s@." at
          oracle.Conform.Fuzz.name msg;
        if minimize then begin
          let min_sc, steps = Conform.Fuzz.minimize oracle sc in
          Fmt.pr "minimized: size %d -> %d in %d step(s)@."
            (Conform.Fuzz.size sc) (Conform.Fuzz.size min_sc) steps;
          ignore (write_file out (Conform.Fuzz.source min_sc))
        end;
        1
  in
  let seed_flag =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"First seed.")
  in
  let cases_flag =
    Arg.(
      value & opt int 100
      & info [ "cases" ] ~docv:"K"
          ~doc:"Number of consecutive seeds to test (stops at the first \
                failure).")
  in
  let oracle_flag =
    Arg.(
      value
      & opt string "differential"
      & info [ "oracle" ] ~docv:"ORACLE"
          ~doc:"'differential' fails when the engine tiers disagree; \
                'inconsistent' fails when the final instance violates the \
                constraints (a demo oracle for exercising the minimizer).")
  in
  let minimize_flag =
    Arg.(
      value & flag
      & info [ "minimize" ]
          ~doc:"Delta-debug the first failing scenario to a minimal \
                still-failing repro and write it as a .cqa file.")
  in
  let out_flag =
    Arg.(
      value
      & opt string "repro.cqa"
      & info [ "out" ] ~docv:"PATH" ~doc:"Where to write the minimized repro.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Fuzz the engine tiers with random scenarios (facts, \
             constraints, update streams, queries); with --minimize, \
             delta-debug the first failure to a minimal .cqa repro.")
    Term.(
      const (fun s c o m out t -> Stdlib.exit (run s c o m out t))
      $ seed_flag $ cases_flag $ oracle_flag $ minimize_flag $ out_flag
      $ timeout_flag)

(* ------------------------------------------------------------------ *)
(* graph *)

let graph_cmd =
  let run file =
    let l = load_or_die file in
    let ics = l.Lang.Load.ics in
    let g = Ic.Depgraph.build ics in
    Fmt.pr "dependency graph G(IC):@.%a@.@." Ic.Depgraph.pp g;
    let c = Ic.Depgraph.contract ics in
    Fmt.pr "contracted graph GC(IC):@.%a@.@." Ic.Depgraph.pp_contracted c;
    (match Ic.Depgraph.ric_cycle ics with
    | None -> Fmt.pr "RIC-acyclic: yes (Theorem 4 applies)@."
    | Some cycle ->
        Fmt.pr "RIC-acyclic: NO — cycle through %a@."
          Fmt.(list ~sep:(any " -> ") (fun ppf c -> pf ppf "{%a}" (list ~sep:(any ",") string) c))
          cycle);
    (match Core.Hcfcheck.bilateral_predicates ics with
    | [] -> Fmt.pr "bilateral predicates: none@."
    | bilateral ->
        Fmt.pr "bilateral predicates: %a@." Fmt.(list ~sep:(any ", ") string) bilateral);
    if Core.Hcfcheck.static_hcf ics then
      Fmt.pr "Theorem 5: repair program is head-cycle-free (CQA in coNP)@."
    else
      Fmt.pr "Theorem 5 condition fails: repair program may be properly disjunctive@.";
    Fmt.pr "@.null propagation:@.%s@."
      (Core.Nullflow.report (Lang.Load.final_instance l) ics);
    0
  in
  Cmd.v
    (Cmd.info "graph" ~doc:"Analyze the constraint set: dependency graphs, RIC-acyclicity, HCF.")
    Term.(const (fun f -> Stdlib.exit (run f)) $ file_arg)

let () =
  let info =
    Cmd.info "cqanull" ~version:"1.0.0"
      ~doc:"Consistent query answers in the presence of null values (Bravo & \
            Bertossi, EDBT 2006)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd; repairs_cmd; cqa_cmd; conform_cmd; fuzz_cmd;
            session_cmd; serve_cmd; connect_cmd; export_cmd; graph_cmd;
            solve_cmd;
          ]))
