module Instance = Relational.Instance

(* The engine tiers every case is answered through.  Each tier reaches the
   same outcome by a genuinely different code path:

   - [Auto] is the routed decomposed engine (direct / shifted /
     disjunctive / enumerate per conflict component);
   - [Program] and [Enumerate] are the monolithic materializing engines
     (stable models of Pi(D, IC) under CDCL, and the model-theoretic
     state search);
   - [SessionTier] replays the scenario's update stream through the
     incremental session engine;
   - [ServeTier] replays it through the serving line protocol
     ({!Serve.Protocol}), request text and all.

   All five must render byte-identical outcomes. *)
type tier = Auto | Program | Enumerate | SessionTier | ServeTier

let all_tiers = [ Auto; Program; Enumerate; SessionTier; ServeTier ]

let tier_name = function
  | Auto -> "auto"
  | Program -> "program"
  | Enumerate -> "enumerate"
  | SessionTier -> "session"
  | ServeTier -> "serve"

(* The protocol's cqa command answers under the default query semantics,
   so the serve tier only applies to NullAsConstant cases.  The program
   tier implements the null-padded repair program of Definition 9, sound
   only for non-conflicting constraint sets (the Assumption of Section 4);
   on conflicting sets (Example 20) [Rep(D, IC)] additionally contains
   arbitrary-constant insertion repairs the program cannot produce, so
   the program tier is skipped and the case pins [Rep_d] instead. *)
let tiers_for ~ics (c : Case.t) =
  let conflicting = Result.is_error (Ic.Builder.non_conflicting ics) in
  List.filter
    (fun t ->
      (match t with
      | ServeTier -> c.Case.semantics = Query.Qeval.NullAsConstant
      | Program -> not conflicting
      | Auto | Enumerate | SessionTier -> true))
    all_tiers

let method_outcome ~method_ ~semantics d ics q =
  Result.map Case.render_outcome
    (Query.Cqa.consistent_answers ~method_ ~semantics d ics q)

let session_outcome ~semantics (l : Lang.Load.loaded) q =
  let s = Session.create ~engine:Session.Auto l.Lang.Load.instance l.Lang.Load.ics in
  if l.Lang.Load.updates <> [] then Session.apply s l.Lang.Load.updates;
  Result.map Case.render_outcome (Session.cqa ~semantics s q)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let serve_outcome (l : Lang.Load.loaded) name =
  let p = Serve.Protocol.create (Serve.Protocol.repl_config ~engine:Session.Auto ()) in
  ignore
    (Serve.Protocol.attach p ~base:l.Lang.Load.instance ~ics:l.Lang.Load.ics
       (Serve.Protocol.env_of_loaded l));
  (* replay the update stream request by request, as a client would *)
  let replay op =
    let verb, a =
      match op with
      | Delta.Insert a -> ("insert", a)
      | Delta.Delete a -> ("delete", a)
    in
    let r = Serve.Protocol.exec p (verb ^ " " ^ Lang.Emit.fact a) in
    if starts_with ~prefix:"error" r.Serve.Protocol.text then
      Error (String.trim r.Serve.Protocol.text)
    else Ok ()
  in
  let rec apply = function
    | [] -> Ok ()
    | op :: rest -> ( match replay op with Ok () -> apply rest | e -> e)
  in
  match apply l.Lang.Load.updates with
  | Error _ as e -> e
  | Ok () ->
      let r = Serve.Protocol.exec p ("cqa " ^ name) in
      let text = r.Serve.Protocol.text in
      (* the reply is a "query NAME: <query>" header followed by the
         outcome rendering and a final newline.  Long query renderings
         wrap the header across several lines (the protocol formats at
         the default margin), so rather than stripping one line, take the
         body from the first line the outcome rendering can start with —
         "consistent: " on success, "  error" otherwise.  The outcome
         lines themselves never wrap (the set printer emits no break
         hints). *)
      let body_from marker =
        if starts_with ~prefix:marker text then Some text
        else
          let rec find i =
            match String.index_from_opt text i '\n' with
            | None -> None
            | Some j ->
                let rest =
                  String.sub text (j + 1) (String.length text - j - 1)
                in
                if starts_with ~prefix:marker rest then Some rest
                else find (j + 1)
          in
          find 0
      in
      if not (starts_with ~prefix:"query " text) then
        Error (Fmt.str "unexpected protocol reply: %s" (String.trim text))
      else (
        match (body_from "consistent: ", body_from "  error") with
        | Some body, _ ->
            let body =
              if String.length body > 0 && body.[String.length body - 1] = '\n'
              then String.sub body 0 (String.length body - 1)
              else body
            in
            Ok body
        | None, Some err -> Error (String.trim err)
        | None, None ->
            Error (Fmt.str "unexpected protocol reply: %s" (String.trim text)))

let run_tier (c : Case.t) (l : Lang.Load.loaded) q tier =
  let semantics = c.Case.semantics in
  let d = Lang.Load.final_instance l in
  match tier with
  | Auto -> method_outcome ~method_:Query.Cqa.Auto ~semantics d l.Lang.Load.ics q
  | Program -> (
      (* where the repair program is not applicable (built-in offsets,
         non-form-(3) existentials) fall back to the model-theoretic
         method, as the CLI's repairs command does *)
      match
        method_outcome ~method_:Query.Cqa.LogicProgram ~semantics d
          l.Lang.Load.ics q
      with
      | Error _ ->
          method_outcome ~method_:Query.Cqa.ModelTheoretic ~semantics d
            l.Lang.Load.ics q
      | ok -> ok)
  | Enumerate ->
      method_outcome ~method_:Query.Cqa.ModelTheoretic ~semantics d l.Lang.Load.ics q
  | SessionTier -> session_outcome ~semantics l q
  | ServeTier -> serve_outcome l c.Case.query

type tier_result = {
  tier : string;
  rendered : (string, string) result;
  ms : float;  (** wall-clock of this tier's answer, for bench telemetry *)
}

type result_ = {
  case : Case.t;
  tiers : tier_result list;
  failures : string list;
}

let passed r = r.failures = []

let expect_failures (c : Case.t) (l : Lang.Load.loaded)
    (outcome : Query.Cqa.outcome) =
  let e = c.Case.expect in
  let check label expected actual =
    if expected = actual then []
    else [ Fmt.str "%s: expected %s, got %s" label expected actual ]
  in
  let consistency =
    match e.Case.consistent_db with
    | None -> []
    | Some want ->
        let got =
          Semantics.Nullsat.consistent (Lang.Load.final_instance l)
            l.Lang.Load.ics
        in
        if want = got then []
        else
          [
            Fmt.str "consistency: expected %s, database is %s"
              (if want then "consistent" else "inconsistent")
              (if got then "consistent" else "inconsistent");
          ]
  in
  consistency
  @ (match e.Case.repairs with
    | None -> []
    | Some n ->
        check "repairs" (string_of_int n)
          (string_of_int outcome.Query.Cqa.repair_count))
  @ (match e.Case.repd with
    | None -> []
    | Some n ->
        let got =
          List.length
            (Repair.Repd.repairs_d (Lang.Load.final_instance l)
               l.Lang.Load.ics)
        in
        check "repd" (string_of_int n) (string_of_int got))
  @ (match e.Case.certain with
    | None -> []
    | Some s ->
        check "certain" s (Case.render_set outcome.Query.Cqa.consistent))
  @
  match e.Case.possible with
  | None -> []
  | Some s -> check "possible" s (Case.render_set outcome.Query.Cqa.possible)

let run_case (c : Case.t) =
  match Lang.Load.of_string ~file:(c.Case.name ^ ".cqa") c.Case.source with
  | Error msg ->
      { case = c; tiers = []; failures = [ Fmt.str "load: %s" msg ] }
  | Ok l -> (
      match List.assoc_opt c.Case.query l.Lang.Load.queries with
      | None ->
          {
            case = c;
            tiers = [];
            failures =
              [ Fmt.str "source declares no query named %s" c.Case.query ];
          }
      | Some q -> (
          let d = Lang.Load.final_instance l in
          let semantics = c.Case.semantics in
          match
            Query.Cqa.consistent_answers ~method_:Query.Cqa.Auto ~semantics d
              l.Lang.Load.ics q
          with
          | Error msg ->
              {
                case = c;
                tiers = [];
                failures = [ Fmt.str "auto: %s" msg ];
              }
          | Ok outcome ->
              let reference = Case.render_outcome outcome in
              let tiers =
                List.map
                  (fun t ->
                    let t0 = Unix.gettimeofday () in
                    let rendered = run_tier c l q t in
                    {
                      tier = tier_name t;
                      rendered;
                      ms = (Unix.gettimeofday () -. t0) *. 1000.;
                    })
                  (tiers_for ~ics:l.Lang.Load.ics c)
              in
              let tier_failures =
                List.concat_map
                  (fun tr ->
                    match tr.rendered with
                    | Error msg -> [ Fmt.str "%s: error: %s" tr.tier msg ]
                    | Ok r when r <> reference ->
                        [
                          Fmt.str "%s: outcome differs from auto:@,%s@,vs@,%s"
                            tr.tier r reference;
                        ]
                    | Ok _ -> [])
                  tiers
              in
              let equiv_failures =
                match c.Case.equiv with
                | None -> []
                | Some name2 -> (
                    match List.assoc_opt name2 l.Lang.Load.queries with
                    | None ->
                        [ Fmt.str "source declares no query named %s" name2 ]
                    | Some q2 -> (
                        match
                          Query.Cqa.consistent_answers ~method_:Query.Cqa.Auto
                            ~semantics d l.Lang.Load.ics q2
                        with
                        | Error msg -> [ Fmt.str "equiv %s: %s" name2 msg ]
                        | Ok o2 ->
                            let r2 = Case.render_outcome o2 in
                            if r2 = reference then []
                            else
                              [
                                Fmt.str
                                  "equiv %s: outcome differs from %s:@,%s@,vs@,%s"
                                  name2 c.Case.query r2 reference;
                              ]))
              in
              {
                case = c;
                tiers;
                failures =
                  tier_failures @ equiv_failures
                  @ expect_failures c l outcome;
              }))

type summary = {
  total : int;
  ok : int;
  families : string list;
  failed : result_ list;
}

let run cases =
  let results = List.map run_case cases in
  let families =
    List.fold_left
      (fun acc r ->
        if List.mem r.case.Case.family acc then acc
        else acc @ [ r.case.Case.family ])
      [] results
  in
  let failed = List.filter (fun r -> not (passed r)) results in
  ( { total = List.length results;
      ok = List.length results - List.length failed;
      families;
      failed },
    results )
