module Decompose = Repair.Decompose

type verdict = {
  tier : Budget.tier;
  reason : string;
  direct : Direct.analysis option;
}

let component (c : Decompose.component) =
  let base = Decompose.base c in
  match Direct.analyze ~base c.Decompose.ics with
  | Ok a ->
      {
        tier = Budget.Direct;
        reason = "deletion-only constraints, null-free binary conflicts";
        direct = Some a;
      }
  | Error why -> (
      match
        Result.bind
          (Ic.Classify.supported_by_repair_program c.Decompose.ics)
          (fun () ->
            (* Example 20: a NOT NULL constraint on a RIC's existential
               attribute makes the repair program's null-insertions
               infeasible, so its repair set diverges from the
               model-theoretic one — only enumeration is sound here. *)
            Result.map_error
              (fun (nnc, ic) ->
                Printf.sprintf
                  "NOT NULL-constraint '%s' conflicts with the existential \
                   attribute of '%s' (Example 20): the repair program's \
                   null-insertions are infeasible"
                  (Ic.Constr.label nnc) (Ic.Constr.label ic))
              (Ic.Builder.non_conflicting c.Decompose.ics))
      with
      | Error msg -> { tier = Budget.Enumerated; reason = msg; direct = None }
      | Ok () ->
          if Core.Hcfcheck.static_hcf c.Decompose.ics then
            { tier = Budget.Shifted; reason = why; direct = None }
          else
            let reason =
              match Core.Hcfcheck.offending c.Decompose.ics with
              | Some ic ->
                  Printf.sprintf
                    "constraint '%s' repeats a bilateral predicate: repair \
                     program not statically HCF"
                    (Ic.Constr.label ic)
              | None -> "repair program not statically HCF"
            in
            { tier = Budget.Disjunctive; reason; direct = None })

let plan (p : Decompose.plan) = List.map component p.Decompose.components

let pp_verdict ppf v = Fmt.pf ppf "%a: %s" Budget.pp_tier v.tier v.reason
