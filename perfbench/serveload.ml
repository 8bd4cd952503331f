(* A real [cqanull serve] process and closed-loop clients over its socket,
   plus the in-process replays (Session API, Serve.Protocol) that give the
   expected replies and the session/serve layer timings. *)

open Metrics

type server = { pid : int; sock : string }

(* Servers still running, killed at exit if a run fails half-way. *)
let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let connect sock = Serve.Client.connect (Unix.ADDR_UNIX sock)

let spawned = ref 0

(* The engine of every session here: the CLI's routed default, which the
   workloads' requests run on. *)
let engine = Session.Auto

(* Spawn [cqanull serve --engine auto] on a Unix socket; returns once a
   connection is accepted. *)
let spawn ~cqanull ~work ~file () =
  incr spawned;
  let sock =
    Filename.concat work (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) !spawned)
  in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let log =
    Unix.openfile (Filename.concat work "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let t0 = now () in
  let pid =
    Unix.create_process cqanull
      (Array.of_list
         [ cqanull; "serve"; "--socket"; sock; file; "--engine"; "auto" ])
      Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  let server = { pid; sock } in
  let rec wait () =
    match connect sock with
    | Ok c -> c
    | Error e ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("cqanull serve exited before accepting: " ^ e));
        if now () -. t0 > 120. then failwith "cqanull serve did not accept";
        Unix.sleepf 0.001;
        wait ()
  in
  (server, wait ())

let stop server =
  (match connect server.sock with
  | Ok c ->
      ignore (Serve.Client.request c "shutdown");
      Serve.Client.close c
  | Error _ -> Unix.kill server.pid Sys.sigterm);
  ignore (Unix.waitpid [] server.pid);
  live := List.filter (( <> ) server.pid) !live;
  try Unix.unlink server.sock with Unix.Unix_error _ -> ()

type op = { line : string; reply : (string, [ `Closed ]) result; op_ms : float }

(* Each client replays its script on its own connection, lock-step, until
   the script or the deadline runs out.  Results in script order. *)
let run_clients server ~deadline (scripts : string array array) =
  let results = Array.map (fun _ -> ref []) scripts in
  let client i =
    match connect server.sock with
    | Error e -> failwith ("client connect: " ^ e)
    | Ok c ->
        let script = scripts.(i) in
        let rec go j =
          if j < Array.length script && now () < deadline then begin
            let t0 = now () in
            let reply = Serve.Client.request c script.(j) in
            results.(i) := { line = script.(j); reply; op_ms = ms_since t0 } :: !(results.(i));
            go (j + 1)
          end
        in
        go 0;
        Serve.Client.close c
  in
  let threads = Array.mapi (fun i _ -> Thread.create client i) scripts in
  Array.iter Thread.join threads;
  Array.map (fun r -> List.rev !r) results

(* The server's process-global cache counters, from a [stats] reply. *)
let cache_stats server =
  match connect server.sock with
  | Error e -> failwith ("stats connect: " ^ e)
  | Ok c ->
      let reply = Serve.Client.request c "stats" in
      Serve.Client.close c;
      let text = match reply with Ok t -> t | Error `Closed -> "" in
      let line =
        List.find
          (fun l -> String.starts_with ~prefix:"cache: " l)
          (String.split_on_char '\n' text)
      in
      let field key =
        List.find_map
          (fun kv ->
            match String.split_on_char '=' kv with
            | [ k; v ] when k = key -> Some v
            | _ -> None)
          (String.split_on_char ' ' line)
        |> Option.get
      in
      let int k = int_of_string (field k) in
      (int "hits", int "misses", int "cross.hits", int "evictions")

(* A private protocol over its own session and cache: what a lone
   [cqanull session] prints for the same lines. *)
let private_protocol (l : Lang.Load.loaded) =
  let cfg =
    {
      Serve.Protocol.engine;
      jobs = 1;
      capacity = 4096;
      timeout_ms = None;
      want_stats = false;
      allow_load = false;
      max_line = Serve.Protocol.default_max_line;
      cache = None;
      extra_stats = None;
    }
  in
  let p = Serve.Protocol.create cfg in
  ignore
    (Serve.Protocol.attach p ~base:(Lang.Load.final_instance l)
       ~ics:l.Lang.Load.ics (Serve.Protocol.env_of_loaded l));
  p

(* A reply reporting a failed request, at top level or inside a cqa
   reply. *)
let is_error text =
  List.exists
    (fun l -> String.starts_with ~prefix:"error:" (String.trim l))
    (String.split_on_char '\n' text)

let ok_reply (op : op) expected =
  match op.reply with
  | Ok text -> text = expected && not (is_error text)
  | Error `Closed -> false

(* Replies that differ from the private replay, or report an error. *)
let mismatches l (ops : op list) =
  let p = private_protocol l in
  List.fold_left
    (fun bad op ->
      let expected = (Serve.Protocol.exec p op.line).Serve.Protocol.text in
      if ok_reply op expected then bad else bad + 1)
    0 ops

(* The same lines through [Serve.Protocol.exec] in-process: per-op exec
   time, with the replies. *)
let protocol_replay l lines =
  let p = private_protocol l in
  List.map
    (fun line ->
      let r = timed (fun () -> Serve.Protocol.exec p line) in
      (line, r.value.Serve.Protocol.text, r.ms))
    lines

(* The same lines through the Session API directly. *)
let session_replay (l : Lang.Load.loaded) q lines =
  let s =
    Session.create ~engine ~capacity:4096
      (Lang.Load.final_instance l) l.Lang.Load.ics
  in
  let applies = ref [] and cqas = ref [] and failed = ref 0 in
  List.iter
    (fun line ->
      if Workloads.is_read line then begin
        let r = timed (fun () -> Session.cqa s q) in
        if Result.is_error r.value then incr failed;
        cqas := r.ms :: !cqas
      end
      else
        let ops =
          List.filter_map
            (function
              | Lang.Surface.Insert (p, vs) ->
                  Some (Delta.insert (Relational.Atom.make p vs))
              | Lang.Surface.Delete (p, vs) ->
                  Some (Delta.delete (Relational.Atom.make p vs))
              | _ -> None)
            (Lang.Parser.parse (line ^ "."))
        in
        let r = timed (fun () -> Session.apply s ops) in
        applies := r.ms :: !applies)
    lines;
  (Session.stats s, !applies, !cqas, !failed)
