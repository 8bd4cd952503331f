(** Variable assignments and pattern matching of constraint atoms against
    instances.

    Matching treats [null] as any other constant (structural equality), as
    prescribed for the evaluation of the transformed formula (4) — see
    Example 12, where [P2(null, b)] joins a [null] produced by [P1]. *)

type t

val empty : t
val find : t -> string -> Relational.Value.t option
val bind : t -> string -> Relational.Value.t -> t option
(** [None] when already bound to a different value. *)

val lookup_exn : t -> string -> Relational.Value.t
val bindings : t -> (string * Relational.Value.t) list
val of_list : (string * Relational.Value.t) list -> t
val restrict : t -> string list -> t
val equal : t -> t -> bool
val compare : t -> t -> int
val pp : t Fmt.t

val value_of_term : t -> Ic.Term.t -> Relational.Value.t option
(** Constants map to themselves; variables through the assignment. *)

val match_tuple : t -> Ic.Term.t list -> Relational.Tuple.t -> t option
(** Unify a term list against a ground tuple, extending the assignment.
    Repeated variables must match equal values. *)

(** {2 Joins}

    Every join below runs on {!Join}: the conjunction is compiled into a
    join over interned codes, and its matches come out in the order of
    the greedy join described there. *)

val atom_matches :
  Relational.Instance.t -> t -> Ic.Patom.t -> t list
(** All extensions of the assignment matching the atom against the
    instance's tuples for the atom's predicate, last match first. *)

val join : Relational.Instance.t -> t -> Ic.Patom.t list -> t list
(** All assignments extending the given one that satisfy the conjunction of
    atoms (the antecedent join). *)

val join_with_witness :
  Relational.Instance.t -> t -> Ic.Patom.t list -> (t * Relational.Atom.t list) list
(** Like {!join} but also returns the matched ground atoms, in antecedent
    order (witnesses for violation reporting and repair generation). *)

val iter_join_with_witness :
  Relational.Instance.t -> t -> Ic.Patom.t list ->
  f:(t -> Relational.Atom.t list -> unit) -> unit
(** Iterate {!join_with_witness} results as they are produced, without
    materializing the match list.  [f] may raise to abort the enumeration.
    Callers on a hot path use {!Join} directly, which builds the binding
    and the witness only for the matches they keep. *)

val exists_match : Relational.Instance.t -> t -> Ic.Patom.t -> bool
(** Is there a tuple matching the atom under the (partial) assignment?
    Unbound variables act as wildcards, consistently for repeated ones. *)

val prepared_exists :
  Relational.Instance.t -> bound:string list -> Ic.Patom.t -> t -> bool
(** [prepared_exists d ~bound atom theta] is [exists_match d theta atom],
    with the atom compiled once on partial application
    ([let test = prepared_exists d ~bound atom in ...]): [bound] names the
    variables the caller's assignments bind, and an assignment binding a
    different set of the atom's variables is matched by {!exists_match}.
    Like a compiled join, the test is not reentrant: one domain at a time.
    A check that runs once per match of a compiled join uses {!Join.probe}
    instead, which reads the join's slots. *)

type assign = t

(** Compiled conjunctive joins over interned codes.

    [compile] turns a conjunction into a fixed plan: every variable gets a
    slot of an int array (the seed's first, then the others in the order
    the join binds them), and each step matches one atom against a view of
    its relation ({!Relational.Instance.rows}) by comparing codes — a
    constant's code, an already bound slot — or binding a slot.  The step
    order is greedy: the not-yet-matched atom with the most bound
    positions first, ties to the smaller relation, then to the earlier
    atom.  A step probes the column's postings on its first bound
    position and scans otherwise.  Since which variables are bound before
    a step does not depend on the values, the order is fixed before the
    first row is read.  Probes yield live segment rows then overlay
    tuples, scans the merged [Tuple.compare] order, so matches come out in
    a deterministic order that the Value-level reference join of the
    tests reproduces match for match.

    No row is decoded while searching.  The callback of {!iter} reads the
    current match through {!code}/{!value}/{!lookup} and builds an
    assignment ({!assignment}) or witness atoms ({!witness}) only for the
    matches it keeps.  A compiled join is not reentrant: its callback must
    not iterate the same join. *)
module Join : sig
  type t

  val compile : Relational.Instance.t -> bound:string list -> Ic.Patom.t list -> t
  (** [bound] lists the variables every seed passed to {!iter} binds. *)

  val iter : t -> assign -> (unit -> unit) -> unit
  (** Run the join from a seed (which must bind every variable of [bound]
      occurring in the atoms), calling the function once per match.  It
      may raise to stop.  A seed value is looked up in {!Relational.Symtab}
      only when it differs (physically) from the previous seed's value for
      the same variable, so an enumeration that varies one variable at a
      time encodes one value per run. *)

  val slot : t -> string -> int
  (** The slot of a variable of the atoms or of [bound], [-1] for any
      other. *)

  val code : t -> int -> int
  (** The code of a slot in the current match: a {!Relational.Symtab}
      code, or [-1] for a seed value no instance holds. *)

  val slots_of : t -> string list -> int array
  (** The slots of those of the variables that have one. *)

  val any_null : t -> int array -> bool
  (** Does one of the slots hold [null] in the current match? *)

  val value : t -> int -> Relational.Value.t
  val lookup : t -> string -> Relational.Value.t
  (** The value of a variable in the current match (seed included).
      @raise Not_found when neither binds it. *)

  val assignment : t -> assign
  (** The seed extended with the current match. *)

  val witness : t -> Relational.Atom.t list
  (** The matched ground atoms, in conjunction order. *)

  val probe : t -> Relational.Instance.t -> Ic.Patom.t -> unit -> bool
  (** [probe j d atom] compiles an existence test of [atom] over [d]
      under [j]'s current match: [j]'s variables are compared by code,
      the atom's other variables are consistent wildcards, and the first
      position holding a constant or a variable of [j] is probed through
      the column's postings.  When every other position is a distinct
      variable of the atom's own, as in a single-column foreign key, the
      postings decide the test with no row matched
      ({!Relational.Instance.has_code}).  Compile it before iterating
      [j]. *)

  val builtins : t -> Ic.Builtin.t list -> unit -> bool
  (** [builtins j phi] compiles a test of whether one of the built-ins
      [phi] holds under [j]'s current match ({!Ic.Builtin.eval}).  An [=]
      or [≠] without offsets whose sides are slots of [j] or constants
      compares codes; a constant never interned has code [-1], and a side
      of code [-1] is decoded.  Order comparisons, offsets and variables
      without a slot decode.  Compile it before iterating [j]. *)
end
