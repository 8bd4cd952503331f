(* Repair checking (Theorem 1: coNP-complete), the reference test_repair
   holds the enumerators to: a candidate is a repair of [D] wrt [IC] when
   it passes the cheap necessary conditions (consistency wrt [|=_N] and
   the active-domain bound of Proposition 1) and is one of the enumerated
   repairs.  [explain] names the reason a candidate is rejected. *)

module Instance = Relational.Instance
module Value = Relational.Value

let necessary_conditions ~d ~ics d' =
  let ( let* ) = Result.bind in
  let* () =
    match Semantics.Nullsat.check d' ics with
    | [] -> Ok ()
    | v :: _ ->
        Error (Fmt.str "not consistent: %a" Semantics.Nullsat.pp_violation v)
  in
  let universe = Repair.Candidates.universe d ics in
  let outside =
    List.filter
      (fun v -> not (List.exists (Value.equal v) universe))
      (Instance.active_domain d')
  in
  match outside with
  | [] -> Ok ()
  | v :: _ ->
      Error
        (Fmt.str
           "value %a lies outside adom(D) ∪ const(IC) ∪ {null} (Proposition 1)"
           Value.pp v)

let explain ~d ~ics d' =
  let ( let* ) = Result.bind in
  let* () = necessary_conditions ~d ~ics d' in
  let reps = Repair.Enumerate.repairs d ics in
  if List.exists (Instance.equal d') reps then Ok ()
  else
    match List.find_opt (fun r -> Repair.Order.lt ~d r d') reps with
    | Some r ->
        Error
          (Fmt.str "not <=_D-minimal: beaten by the repair %a"
             Instance.pp_inline r)
    | None ->
        Error
          (Fmt.str
             "consistent but not a repair: not reachable as a <=_D-minimal \
              consistent instance of D")

let is_repair ~d ~ics d' = Result.is_ok (explain ~d ~ics d')
