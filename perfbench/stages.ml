(* The CLI's one-shot CQA request, untraced, and the same request rebuilt
   from the public calls of each layer, in the order of
   [Query.Cqa.routed_outcome], with every call timed from outside. *)

open Metrics
module Instance = Relational.Instance
module Decompose = Repair.Decompose

let render outcome =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "%a@." Query.Cqa.pp_outcome outcome;
  Buffer.contents buf

(* What [cqanull cqa FILE] runs per query at its defaults (jobs 1). *)
let request d ics q =
  match Query.Cqa.consistent_answers ~method_:Query.Cqa.Auto ~jobs:1 d ics q with
  | Ok o -> Ok (render o)
  | Error e -> Error e

let tiers = [| Budget.Direct; Budget.Shifted; Budget.Disjunctive; Budget.Enumerated |]
let tier_label = [| "direct"; "shifted"; "disjunctive"; "enumerated" |]

type trace = {
  text : string;  (* the rendered outcome *)
  standard : Relational.Tuple.Set.t timed;
  plan : Decompose.plan timed;
  route : Route.Tier.verdict list timed;
  solve_ms : float array;  (* per tier *)
  solve_words : float;
  enumerated_minimal : int;
  enumerated_states : int;
  counts : int list;  (* minimal repairs per component, plan order *)
  budget : Budget.stats;
  recombine : Query.Cqa.outcome timed;
  render : string timed;
  wall_ms : float;  (* the whole traced request, timer overhead included *)
}

let stages_ms t =
  t.standard.ms +. t.plan.ms +. t.route.ms
  +. Array.fold_left ( +. ) 0. t.solve_ms
  +. t.recombine.ms +. t.render.ms

exception Unmirrored of string

(* One component on its routed tier, as [Query.Cqa.routed_solve] does. *)
let solve_one ~budget (plan : Decompose.plan) (c : Decompose.component)
    (verdict : Route.Tier.verdict) =
  let base = Instance.union c.Decompose.sub c.Decompose.support in
  match verdict.Route.Tier.tier with
  | Budget.Direct ->
      (Route.Direct.minimal_repairs ~budget (Option.get verdict.Route.Tier.direct), 0)
  | Budget.Shifted | Budget.Disjunctive -> (
      match
        Core.Engine.solve_components ~budget
          { plan with Decompose.components = [ c ] }
      with
      | Ok { Core.Engine.solved = [ reps ]; exhausted = None; _ } -> (reps, 0)
      | Ok _ -> raise (Unmirrored "program tier did not solve its component")
      | Error e -> raise (Unmirrored e))
  | Budget.Enumerated ->
      let states =
        Repair.Enumerate.search ~budget ~universe:plan.Decompose.universe
          ~nnc_positions:plan.Decompose.nnc_positions base c.Decompose.ics
      in
      (Repair.Order.minimal_among ~d:base states, List.length states)

let traced d ics q =
  let t0 = now () in
  let stats = Budget.new_stats () in
  let budget = Budget.start ~stats Budget.unlimited in
  let standard = timed (fun () -> Query.Qeval.answers d q) in
  let plan = timed (fun () -> Decompose.plan ~budget d ics) in
  let p = plan.value in
  if p.Decompose.components <> [] && not p.Decompose.product_exact then
    raise (Unmirrored "inexact component product: whole-plan fallback");
  let route = timed (fun () -> Route.Tier.plan p) in
  let solve_ms = Array.make 4 0. in
  let solve_words = ref 0. in
  let minimal = ref 0 and states = ref 0 in
  (* every tier is timed as its own stage, in plan order within it *)
  let jobs = List.combine p.Decompose.components route.value in
  let solved = Hashtbl.create 16 in
  Array.iteri
    (fun i tier ->
      let r =
        timed (fun () ->
            List.iteri
              (fun idx (c, (verdict : Route.Tier.verdict)) ->
                if verdict.Route.Tier.tier = tier then begin
                  let reps, n = solve_one ~budget p c verdict in
                  if tier = Budget.Enumerated then begin
                    minimal := !minimal + List.length reps;
                    states := !states + n
                  end;
                  Hashtbl.replace solved idx reps
                end)
              jobs)
      in
      solve_ms.(i) <- r.ms;
      solve_words := !solve_words +. r.words)
    tiers;
  let per_component =
    List.mapi (fun idx _ -> Hashtbl.find solved idx) p.Decompose.components
  in
  let recombine =
    timed (fun () ->
        match p.Decompose.components with
        | [] ->
            { Query.Cqa.consistent = standard.value; possible = standard.value;
              standard = standard.value; repair_count = 1; exhausted = None }
        | _ ->
            Query.Cqa.factorized_outcome ~jobs:1 ~plan:p ~minimal:per_component
              ~standard:standard.value q)
  in
  let rendered = timed (fun () -> render recombine.value) in
  Budget.finish budget;
  {
    text = rendered.value;
    standard;
    plan;
    route;
    solve_ms;
    solve_words = !solve_words;
    enumerated_minimal = !minimal;
    enumerated_states = !states;
    counts = List.map List.length per_component;
    budget = stats;
    recombine;
    render = rendered;
    wall_ms = ms_since t0;
  }

(* Product of per-component repair counts, [None] past [max_int]. *)
let checked_product counts =
  List.fold_left
    (fun acc n ->
      match acc with
      | Some p when n = 0 || p <= max_int / n -> Some (p * n)
      | _ -> None)
    (Some 1) counts

(* The oracle: model-theoretic decomposed CQA, rendered.  Its repair
   count must equal the product of the per-component counts [counts] (from
   a traced request), computed with overflow detection: [Error] when the
   true count does not fit in an int. *)
let oracle ~counts d ics q =
  match
    Query.Cqa.consistent_answers ~method_:Query.Cqa.ModelTheoretic
      ~decompose:true d ics q
  with
  | Error e -> Error ("oracle: " ^ e)
  | Ok o -> (
      match checked_product counts with
      | None -> Error "repair count overflows int: workload rejected"
      | Some n when n <> o.Query.Cqa.repair_count ->
          Error
            (Printf.sprintf "oracle repair count %d, per-component product %d"
               o.Query.Cqa.repair_count n)
      | Some _ -> Ok (render o))
