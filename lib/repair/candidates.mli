(** The finite universe within which repairs live (Proposition 1):
    [adom(D) ∪ const(IC) ∪ {null}]. *)

val constants_of_ics : Ic.Constr.t list -> Relational.Value.t list
(** [const(IC)]: constants appearing in the constraints (database atoms and
    built-in expressions), sorted, deduplicated. *)

val universe :
  Relational.Instance.t -> Ic.Constr.t list -> Relational.Value.t list
(** [adom(D) ∪ const(IC) ∪ {null}], sorted. *)

val universe_non_null :
  Relational.Instance.t -> Ic.Constr.t list -> Relational.Value.t list
