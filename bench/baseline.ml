(* The perf baseline's guard table and its two interpreters.

   [sections] lists the baseline's JSON sections in file order.  Each entry
   records the schema version that introduced it, the contracts every row
   and the whole section must meet, and what --compare-json bounds across
   two baselines.  [check_json] and [compare_json] interpret the list and
   hold no per-section code: a schema bump appends one section here and
   emits its rows in [Main.write_json].

   Row contracts are bounds, enums, must-be-true flags and, for the few
   cross-field rules, a closure that rejects through [reject]. *)

open Table

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

(* field readers: a missing or mistyped field rejects the file *)
let field kind get row key =
  match Option.bind (member key row) get with
  | Some x -> x
  | None -> reject "missing or non-%s field %S" kind key

let number = function Num f -> Some f | Int i -> Some (float i) | _ -> None
let num_opt row key = Option.bind (member key row) number
let num = field "numeric" number
let str = field "string" (function Str s -> Some s | _ -> None)
let int = field "integer" (function Int i -> Some i | _ -> None)
let arr = field "array" (function Arr a -> Some a | _ -> None)
let real = field "float" (function Num f -> Some f | _ -> None)

let by_name row = match member "name" row with Some (Str n) -> Some n | _ -> None
let where row = match by_name row with Some n -> Printf.sprintf " in %S" n | None -> ""

type guard =
  | Text of string  (** a string field *)
  | Min_int of string * int  (** an integer field, at least the bound *)
  | Min_num of string * float  (** a numeric field, at least the bound *)
  | Positive of string  (** a positive numeric field *)
  | Enum of string * string list  (** a string field from the list *)
  | Flag of string * (string -> unit, unit, string, unit) format4
      (** a "true"/"false" field that must be "true"; the message takes the
          row's name *)
  | Rule of (json -> unit)  (** a cross-field contract *)

type section = {
  key : string;
  since : int;  (** the schema version that introduced the section *)
  exclusive : bool;  (** absent before [since], non-empty from it on *)
  rows : int -> guard list;  (** every row's contracts, by schema version *)
  whole : json list -> unit;  (** contracts on the section as a whole *)
  bound : string list;  (** fields --compare-json bounds at [tolerance] *)
  by : json -> string option;
      (** the key an old row and its new counterpart share; [None] leaves
          the row unbounded *)
  carry : json list -> json list -> unit;
      (** old -> new contracts: what a new baseline may not lose *)
}

let apply row = function
  | Text key -> ignore (str row key)
  | Min_int (key, b) ->
      if int row key < b then reject "field %S below %d%s" key b (where row)
  | Min_num (key, b) ->
      if num row key < b then reject "field %S below %g%s" key b (where row)
  | Positive key ->
      if num row key <= 0.0 then reject "non-positive field %S%s" key (where row)
  | Enum (key, values) ->
      let s = str row key in
      if not (List.mem s values) then reject "unknown %s %S" key s
  | Flag (key, diverged) -> (
      match str row key with
      | "true" -> ()
      | "false" -> reject diverged (str row "name")
      | s -> reject "non-boolean %s %S%s" key s (where row))
  | Rule f -> f row

let name = Text "name"
let bool key = Enum (key, [ "true"; "false" ])
let ints b = List.map (fun key -> Min_int (key, b))
let positive = List.map (fun key -> Positive key)
let only_row _ = Some ""

let section ?(exclusive = true) ?(whole = ignore) ?(bound = []) ?(by = by_name)
    ?(carry = fun _ _ -> ()) key since rows =
  { key; since; exclusive; rows; whole; bound; by; carry }

let routed =
  [ "routed_direct"; "routed_shifted"; "routed_disjunctive"; "routed_enumerate" ]

let sections =
  [
    (* the E1/E2 repair rows are the ones --compare-json bounds: Bechamel
       estimates at cram quotas are noisy, so only order-of-magnitude
       regressions there are guarded *)
    section "micro" 1 ~exclusive:false
      (fun _ -> [ name; Min_num ("ns_per_run", 0.0) ])
      ~bound:[ "ns_per_run" ]
      ~by:(fun row ->
        match by_name row with
        | Some n
          when String.starts_with ~prefix:"E1." n || String.starts_with ~prefix:"E2." n ->
            Some n
        | _ -> None);
    (* "counter": the chronological DPLL of the baselines up to /10 *)
    section "solver" 1 ~exclusive:false (fun v ->
        name
        :: Enum
             ("engine", [ "counter"; "naive" ] @ if v >= 9 then [ "cdcl" ] else [])
        :: ints 0
             ([ "models"; "decisions"; "propagations"; "candidates";
                "minimality_checks"; "queue_pushes"; "rules_touched" ]
             @ (if v >= 9 then [ "conflicts"; "learned"; "restarts"; "backjump_len" ]
                else [])
             @ if v >= 10 then [ "phase_saved" ] else []));
    section "decompose" 2 ~exclusive:false (fun _ ->
        ints 0
          [ "k"; "components"; "max_component_atoms"; "repair_count";
            "monolithic_states" ]
        @ [
            bool "product_exact";
            Rule
              (fun row ->
                let states =
                  List.map
                    (function
                      | Int i when i >= 0 -> i
                      | _ -> reject "non-integer component state count")
                    (arr row "component_states")
                in
                if List.fold_left ( + ) 0 states > int row "monolithic_states" then
                  reject "decomposed exploration exceeds monolithic at k=%d"
                    (int row "k"));
          ]);
    (* a counter that silently stops ticking fails the baseline *)
    section "budget" 3 ~exclusive:false (fun _ ->
        [ name; Enum ("outcome", [ "ok"; "error" ]); bool "decompose" ]
        @ ints 0 [ "decisions"; "states"; "components_solved" ]
        @ [
            Rule
              (fun row ->
                if int row "decisions" + int row "states" = 0 then
                  reject "no budget consumption recorded in %S" (str row "name");
                if str row "decompose" = "true" && int row "components_solved" = 0 then
                  reject "no components solved in decomposed row %S" (str row "name"));
            Min_int ("elapsed_ms", 1);
          ]);
    (* the jobs=4 speedup is only guarded where the recording machine had
       the cores for one: on fewer, domains contend and may even slow down *)
    section "parallel" 4
      (fun _ ->
        (name :: ints 1 [ "k"; "weight"; "jobs"; "cores"; "repairs" ])
        @ [
            Positive "wall_ms";
            Flag ("identical", "parallel run %S diverged from the sequential output");
          ])
      ~whole:(fun rows ->
        let ms jobs =
          List.find_map
            (fun r -> if int r "jobs" = jobs then Some (num r "wall_ms") else None)
            rows
        in
        match (ms 1, ms 4) with
        | None, _ -> reject "parallel section has no jobs=1 baseline row"
        | _, None -> reject "parallel section has no jobs=4 row"
        | Some ms1, Some ms4 ->
            let cores = int (List.hd rows) "cores" in
            if cores >= 4 && ms4 > ms1 /. 2.0 then
              reject "jobs=4 speedup %.2fx below 2x on a %d-core machine" (ms1 /. ms4)
                cores)
      ~bound:[ "wall_ms" ]
      ~by:(fun row -> if member "jobs" row = Some (Int 1) then Some "jobs=1" else None);
    (* the scripted mix keeps the hit rate (always written as a float) high
       on purpose: a cache that silently stops hitting fails the baseline *)
    section "session" 5
      (fun _ ->
        (name :: ints 0 [ "k"; "deltas"; "hits"; "misses"; "evictions" ])
        @ [
            Min_int ("requests", 1);
            Rule
              (fun row ->
                let rate = real row "hit_rate" in
                if rate <= 0.5 then
                  reject "cache hit rate %.2f not above 0.5 in %S" rate
                    (str row "name"));
            Positive "incremental_ms";
            Positive "cold_ms";
            Flag ("identical", "session run %S diverged from the cold answers");
          ])
      ~bound:[ "incremental_ms" ] ~by:only_row;
    (* the fast-path claim: an all-direct FD row beats decomposed
       enumeration by 10x *)
    section "routing" 6
      (fun _ ->
        (name :: ints 0 routed)
        @ [
            Rule
              (fun row ->
                if List.for_all (fun key -> int row key = 0) routed then
                  reject "no components routed in %S" (str row "name"));
          ]
        @ positive [ "auto_ms"; "enumerate_ms"; "program_ms" ]
        @ [ Flag ("identical", "routing row %S diverged from the enumerate oracle") ])
      ~whole:(fun rows ->
        let fast r =
          int r "routed_direct" >= 1
          && List.for_all (fun key -> int r key = 0) (List.tl routed)
          && num r "speedup_vs_enumerate" >= 10.0
        in
        if not (List.exists fast rows) then
          reject "no all-direct routing row beats decomposed enumeration by >= 10x")
      ~bound:[ "auto_ms" ];
    (* below 10^5 tuples both delta clocks sit in the sub-millisecond noise
       floor, so the 10x incremental-check claim engages from there *)
    section "scale" 7
      (fun _ ->
        [ name; Min_int ("n", 1) ]
        @ positive
            [ "load_ms"; "load_tps"; "check_ms"; "check_tps"; "cqa_ms"; "cqa_tps";
              "delta_full_ms"; "delta_incr_ms" ]
        @ ints 0 [ "violations"; "answers" ]
        @ [
            Min_num ("rss_mb", 0.0);
            Flag
              ( "delta_identical",
                "incremental check in %S diverged from the full re-check" );
            Rule
              (fun row ->
                let n = int row "n" in
                if n >= 100_000 && num row "delta_speedup" < 10.0 then
                  reject "delta speedup %.2fx below 10x at n=%d in %S"
                    (num row "delta_speedup") n (str row "name"));
          ])
      ~bound:[ "load_ms"; "check_ms"; "cqa_ms" ]
      ~carry:(fun old_rows new_rows ->
        let fast rows =
          List.exists
            (fun r ->
              match (num_opt r "n", num_opt r "delta_speedup") with
              | Some n, Some s -> n >= 100_000.0 && s >= 10.0
              | _ -> false)
            rows
        in
        (* [check] already rejects a row at n >= 100000 below 10x, so
           NEW fails here only when it has no such row *)
        if fast old_rows && not (fast new_rows) then
          reject
            "new baseline has no scale row at n >= 100000, where the old one \
             shows the >= 10x incremental check: record it with --scale 100000 \
             or more");
    (* a server whose cache silently degraded to per-connection privacy
       fails even if every answer stays correct *)
    section "serve" 8
      (fun _ ->
        [ name; Min_int ("clients", 2); Min_int ("requests", 1) ]
        @ positive [ "wall_ms"; "req_per_s"; "p50_ms"; "p99_ms" ]
        @ [
            Rule
              (fun row ->
                if num row "p99_ms" < num row "p50_ms" then
                  reject "p99 below p50 in %S" (str row "name"));
          ]
        @ ints 0 [ "hits"; "misses"; "evictions" ]
        @ [
            Rule
              (fun row ->
                if int row "cross_hits" < 1 then
                  reject
                    "no cross-session cache hits in %S — the global cache is not shared"
                    (str row "name"));
            Positive "cross_hit_rate";
            Flag
              ( "identical",
                "serve replay %S diverged from the cold single-session answers" );
          ])
      ~bound:[ "p50_ms" ] ~by:only_row;
    (* the CDCL headline: on every hard row learning reaches the same models
       with at most half the decisions of the chronological search *)
    section "cdcl" 9
      (fun v ->
        (name
        :: ints 0
             ([ "k"; "m"; "atoms"; "cdcl_decisions"; "conflicts"; "learned";
                "restarts"; "backjump_len" ]
             @ if v >= 10 then [ "phase_saved" ] else []))
        @ ints 1 [ "models"; "dpll_decisions" ]
        @ [
            Min_num ("decision_ratio", 0.0);
            Flag ("identical", "cdcl run %S diverged from the dpll model set");
            bool "hard";
            Rule
              (fun row ->
                let c = int row "cdcl_decisions" and d = int row "dpll_decisions" in
                if str row "hard" = "true" && 2 * c > d then
                  reject "cdcl decisions %d not <= 0.5x dpll decisions %d on hard row %S"
                    c d (str row "name"));
          ])
      ~whole:(fun rows ->
        if not (List.exists (fun r -> str r "hard" = "true") rows) then
          reject "cdcl section has no hard rows")
      ~bound:[ "cdcl_decisions" ];
    section "conform" 10
      (fun _ ->
        [
          name;
          Text "family";
          Min_int ("tiers", 4);
          Rule
            (fun row ->
              let case = str row "name" in
              match member "tier_ms" row with
              | Some (Obj fields) ->
                  if List.length fields <> int row "tiers" then
                    reject "tier_ms arity mismatch in %S" case;
                  List.iter
                    (fun (tier, ms) ->
                      match number ms with
                      | Some ms when ms >= 0.0 -> ()
                      | _ -> reject "negative tier_ms for %S in %S" tier case)
                    fields
              | _ -> reject "missing tier_ms object in %S" case);
          Flag ("identical", "conformance case %S failed its cross-tier check");
        ])
      ~whole:(fun rows ->
        let families = List.sort_uniq compare (List.map (fun r -> str r "family") rows) in
        if List.length families < 5 then
          reject "conform section covers fewer than 5 families";
        if List.length rows < 20 then reject "conform section has fewer than 20 cases")
      ~carry:(fun old_rows new_rows ->
        if List.length new_rows < List.length old_rows then
          reject "new baseline dropped conformance cases";
        Printf.printf "conform %d -> %d cases, all identical across tiers\n"
          (List.length old_rows) (List.length new_rows));
  ]

let latest = List.fold_left (fun v s -> max v s.since) 0 sections
let schema v = Printf.sprintf "cqanull-bench/%d" v

(* "N micro rows, N solver rows, ..." over the sections schema [v] carries *)
let summary v doc =
  String.concat ", "
    (List.filter_map
       (fun s ->
         if s.since > v then None
         else
           Some (Printf.sprintf "%d %s rows" (List.length (arr doc s.key)) s.key))
       sections)

let check doc =
  let found = str doc "schema" in
  let v =
    match List.find_opt (fun v -> found = schema v) (List.init latest succ) with
    | Some v -> v
    | None -> reject "unknown schema %S" found
  in
  ignore (str doc "tool");
  ignore (str doc "unit");
  List.iter
    (fun s ->
      if v < s.since then begin
        if s.exclusive && member s.key doc <> None then
          reject "section %S requires schema %s" s.key (schema s.since)
      end
      else begin
        let rows = arr doc s.key in
        if s.exclusive && rows = [] then reject "empty %s section" s.key;
        List.iter (fun row -> List.iter (apply row) (s.rows v)) rows;
        s.whole rows
      end)
    sections;
  summary v doc

(* Prints "PATH: MESSAGE" (or MESSAGE alone) and exits 1 on a rejection. *)
let or_exit ?path f =
  try f ()
  with Reject m ->
    (match path with
    | Some p -> Printf.eprintf "%s: %s\n" p m
    | None -> prerr_endline m);
    exit 1

let load path =
  or_exit ~path (fun () ->
      let contents =
        try In_channel.with_open_text path In_channel.input_all
        with Sys_error e -> reject "%s" e
      in
      try parse contents with Json_error e -> reject "%s" e)

let check_json path =
  let doc = load path in
  Printf.printf "%s: ok (%s)\n" path (or_exit ~path (fun () -> check doc))

(* The tolerance is generous on purpose: the guard catches order-of-magnitude
   regressions (an accidentally quadratic comparator, a dropped index), not
   percent-level drift. *)
let tolerance = 10.0

(* NEW must pass every contract of [check].  A section both files carry is
   then compared row by row: each old row's bounded fields against the
   first new row with the same [by] key, and the section's [carry]
   contracts.  The sections every schema carries (since /1) must be in OLD,
   and their compared rows are the guarded rows the verdict counts. *)
let compare_json old_path new_path =
  let old_doc = load old_path and new_doc = load new_path in
  or_exit ~path:old_path (fun () ->
      List.iter (fun s -> if s.since = 1 then ignore (arr old_doc s.key)) sections);
  ignore (or_exit ~path:new_path (fun () -> check new_doc));
  or_exit (fun () ->
      let guarded = ref 0 and regressions = ref 0 in
      let bound s new_rows (key, field, o) =
        let label = String.concat " " (List.filter (( <> ) "") [ s.key; key; field ]) in
        match
          List.find_map
            (fun r -> if s.by r = Some key then num_opt r field else None)
            new_rows
        with
        | None -> Printf.printf "%s missing from %s\n" label new_path
        | Some n ->
            Printf.printf "%s %g -> %g (%.2fx)\n" label o n
              (if o > 0.0 then n /. o else 0.0);
            if o > 0.0 && n > tolerance *. o then incr regressions
      in
      List.iter
        (fun s ->
          match (member s.key old_doc, member s.key new_doc) with
          | Some (Arr old_rows), Some (Arr new_rows) ->
              let pairs =
                List.concat_map
                  (fun row ->
                    match s.by row with
                    | None -> []
                    | Some key ->
                        List.filter_map
                          (fun f -> Option.map (fun o -> (key, f, o)) (num_opt row f))
                          s.bound)
                  old_rows
              in
              if s.since = 1 then guarded := !guarded + List.length pairs;
              List.iter (bound s new_rows) pairs;
              s.carry old_rows new_rows
          | _ -> ())
        sections;
      if !guarded = 0 then reject "no guarded rows to compare";
      if !regressions > 0 then
        reject "%d regression(s) beyond %.0fx tolerance" !regressions tolerance;
      Printf.printf "compare ok (%d guarded rows, tolerance %.0fx)\n" !guarded tolerance)
