(** The deletion-preferring repair class [Rep_d(D, IC)] (end of Section 4).

    When [IC] contains NOT NULL-constraints that conflict with existential
    positions of other constraints (Example 20), [Rep(D, IC)] recovers the
    arbitrary-constant repairs of [2].  [Rep_d] discards those of them that
    are beaten, in [<=_D], by a repair of [IC] without the conflicting
    NNCs — in effect preferring tuple deletions over insertions of
    arbitrary non-null constants.  For non-conflicting [IC] the two classes
    coincide (property-tested). *)

val conflicting_nncs : Ic.Constr.t list -> Ic.Constr.t list
(** The NNCs constraining an existentially quantified attribute of some
    constraint of form (1). *)

val repairs_d :
  ?budget:Budget.ctl ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Relational.Instance.t list
(** [Rep_d(D, IC)] = repairs of [IC] not strictly beaten by any repair of
    [IC] minus its conflicting NNCs.  Both searches run under [budget].
    @raise Budget.Exhausted as {!Enumerate.repairs} does. *)
