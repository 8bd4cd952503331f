(** The paper's null-aware IC satisfaction [D |=_N psi] (Definitions 4-5).

    Two interchangeable implementations are provided:

    - {!satisfies} evaluates directly on the original instance: antecedent
      matches are enumerated on full tuples, the [IsNull] disjuncts are
      tested on the relevant universal variables, and the consequent is
      checked by pattern matching.  This is equivalent to Definition 4
      because join/consequent/[phi] variables are always relevant, and it
      yields violation witnesses in terms of original tuples (which the
      repair engine needs).
    - {!satisfies_literal} follows Definition 4 letter by letter: build
      [D^{A(psi)}], then evaluate the transformed formula [psi_N] on it.

    Their agreement is asserted by property tests. *)

type violation = {
  ic : Ic.Constr.t;
  theta : Assign.t;
      (** binding of the antecedent variables of the offending match *)
  matched : Relational.Atom.t list;
      (** the original antecedent tuples, in antecedent order (for an NNC,
          the single offending tuple) *)
}

val pp_violation : violation Fmt.t

val satisfies : Relational.Instance.t -> Ic.Constr.t -> bool
val satisfies_literal : Relational.Instance.t -> Ic.Constr.t -> bool

val has_violation : Relational.Instance.t -> Ic.Constr.t -> bool
(** [not (satisfies d ic)], stopping at the first witness: the antecedent
    join is aborted as soon as one violating match is found instead of
    materializing every violation.  {!satisfies} and {!consistent} go
    through this path. *)

val violations : Relational.Instance.t -> Ic.Constr.t -> violation list
(** Empty iff {!satisfies}. *)

val check : Relational.Instance.t -> Ic.Constr.t list -> violation list
val consistent : Relational.Instance.t -> Ic.Constr.t list -> bool

val compare_violation : violation -> violation -> int
(** Total order by (constraint, matched tuples); [matched] is in antecedent
    order, so it determines the binding and this order has no duplicates
    within one instance's violation set. *)

val canonical_violations : violation list -> violation list
(** Sorted by {!compare_violation}, deduplicated — the canonical form the
    incremental maintainer ({!check_delta}) works with. *)

val consequent_holds :
  Relational.Instance.t -> Ic.Constr.generic -> Assign.t -> bool
(** Does the consequent of the (generic) constraint hold under a total
    antecedent assignment — some consequent atom has a matching tuple
    (existential variables as consistent wildcards) or some [phi] disjunct
    evaluates to true?  The consequent atoms are compiled on partial
    application ([let holds = consequent_holds d g in ...]), once for
    every assignment tested, and the partial application is used from
    one domain at a time.  Exposed for the repair engine. *)

(** {2 Update checking}

    Commercial DBMSs enforce ICs on updates: an insertion is rejected when
    it would create a violation (Example 5: inserting
    [Course(CS41, 18, null)] is rejected because professor 18 has no [Exp]
    tuple; Example 6: [Emp(32, null, 50)] fails the salary check).
    {!check_delta} is that check for a batch of updates, as the session
    engine runs it: it keeps the violations of the constraints the batch
    leaves alone and recomputes only those of the constraints that mention
    an updated relation, through {!violations_involving} probes or joins
    seeded on the updated tuples. *)

val violations_involving :
  Relational.Instance.t -> Ic.Constr.t list -> Relational.Atom.t -> violation list
(** Violations of the instance whose antecedent match mentions the given
    atom (for NNCs: the offending atom itself), computed by seeding each
    antecedent join with the atom's bindings — index probes bounded by the
    atom's neighbourhood, never a full enumeration.  Canonically ordered. *)

type delta_stats = {
  reused : int;     (** constraints whose relations the delta left untouched *)
  fast : int;       (** touched constraints updated by probes and filters *)
  rescanned : int;
      (** touched constraints whose consequent the delta reaches — once full
          re-evaluations, now maintained by joins seeded on the delta's
          atoms (kept-violation re-probes, insertion seeds, orphaned-witness
          seeds); the historical field name is kept for telemetry
          continuity *)
}

val check_delta :
  before:violation list ->
  inserted:Relational.Atom.t list ->
  deleted:Relational.Atom.t list ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  violation list * delta_stats
(** Incremental violation maintenance for the session engine: given the
    previous violation set [before] and the net effect of an update batch
    ([inserted] absent from the old instance, [deleted] present in it —
    see {!Delta.effective}), compute the violation set of the {e new}
    instance [d] touching only the constraints whose relations the delta
    mentions.  Untouched constraints keep their [before] violations;
    touched constraints whose consequent stays clear of the delta are
    updated by per-atom {!violations_involving} probes and a filter; the
    rest — where an insertion may silence an old violation and a deletion
    may orphan an old match — are maintained by antecedent joins seeded on
    each delta atom's bindings rather than re-evaluated from scratch.  The
    result equals [canonical_violations (check d ics)] (property-tested),
    in canonical order. *)
