(** Repair checking (Theorem 1: coNP-complete).

    [is_repair] decides whether a given instance is a repair of [D] wrt
    [IC] by combining the cheap necessary conditions (consistency, schema
    compatibility, active-domain containment of Proposition 1) with
    membership in the enumerated repair set. *)

val necessary_conditions :
  d:Relational.Instance.t ->
  ics:Ic.Constr.t list ->
  Relational.Instance.t ->
  (unit, string) result
(** Consistency wrt [|=_N] and the Proposition-1 domain bound; [Error]
    carries the reason for rejection. *)

val is_repair :
  d:Relational.Instance.t ->
  ics:Ic.Constr.t list ->
  Relational.Instance.t ->
  bool

val explain :
  d:Relational.Instance.t ->
  ics:Ic.Constr.t list ->
  Relational.Instance.t ->
  (unit, string) result
(** Like {!is_repair} but with a human-readable reason on failure (used by
    the CLI). *)
