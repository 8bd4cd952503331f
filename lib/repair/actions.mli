(** Repair actions: the local fixes of one violation (the repair actions of
    the logic programs of Definition 9) and their ground instantiation.

    Shared by the monolithic state-space search ({!Enumerate}) and the
    conflict-component planner ({!Decompose}), which both need to know
    exactly which atoms a violation's fixes can touch. *)

type action = Delete of Relational.Atom.t | Insert of Relational.Atom.t

val pp_action : action Fmt.t

val nnc_positions_of : Ic.Constr.t list -> (string * int) list
(** NOT NULL-constrained positions as (predicate, 1-based position) pairs. *)

val insertions :
  universe:Relational.Value.t list ->
  nnc_positions:(string * int) list ->
  Semantics.Assign.t ->
  Ic.Patom.t ->
  Relational.Atom.t list
(** Ground instantiations of a consequent atom under the antecedent
    assignment: existential positions take [null], positions under a
    conflicting NNC range over the non-null universe (Example 20). *)

val reads_universe :
  nnc_positions:(string * int) list -> Ic.Constr.t list -> bool
(** Whether {!insertions} ranges over the universe for some consequent
    atom of the constraints: some existential position is NOT
    NULL-constrained (a conflicting NNC, Example 20).  Otherwise every
    insertion candidate is null at its existential positions, and a search
    over these constraints never reads the universe. *)

val insertion_universe :
  nnc_positions:(string * int) list ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Relational.Value.t list
(** The universe {!insertions} reads under the constraints: Proposition 1's
    universe of the instance and the constraints ({!Candidates.universe})
    where {!reads_universe} holds, [[]] elsewhere. *)

val dedup_actions : action list -> action list
(** First occurrence wins. *)

val fixes :
  universe:Relational.Value.t list ->
  nnc_positions:(string * int) list ->
  Relational.Instance.t ->
  Semantics.Nullsat.violation ->
  action list
(** The local fixes of one violation: delete a matched antecedent tuple or
    insert one consequent witness not already present. *)

val apply : Relational.Instance.t -> action -> Relational.Instance.t
