(** Query evaluation over instances with null values.

    Quantifiers range over the active domain of the instance (plus the
    constants of the query), which coincides with the standard semantics for
    safe queries ({!Qsafe}).

    Three query-answering semantics [|=q_N] are provided (the paper leaves
    the choice open — Section 4, discussion after Definition 8 — and
    announces a compatible semantics for the extended version):

    - [NullAsConstant]: classical first-order evaluation with [null] an
      ordinary constant — equality with [null] holds only for [null]
      itself, and [null] joins with [null].  This matches the way the
      repair programs treat [null].
    - [SqlLike]: atoms still match structurally, but built-in comparisons
      involving [null] are unknown (never satisfied — nor is their
      negation), in the spirit of SQL's three-valued logic.  [IsNull]
      remains the sanctioned null test.
    - [NullAware]: the semantics {e compatible with the IC satisfaction of
      Section 3}, our realization of the paper's future-work item (a).  In
      analogy with Definition 2's relevant attributes, a variable occurring
      more than once in the query body (a join variable, including
      repetition inside one atom) or inside a comparison is {e relevant}:
      an atom only matches if its relevant variables are bound to non-null
      values (a null never joins, exactly as "in a DBMS there will never be
      a join between a null and another value"), and comparisons involving
      null are unknown.  Nulls can still be {e returned} through
      single-occurrence and head positions, and [IsNull] remains the
      sanctioned test.

    All run in polynomial time in the size of the instance for a fixed
    query, as the paper assumes. *)

type semantics = NullAsConstant | SqlLike | NullAware

val holds :
  ?semantics:semantics ->
  Relational.Instance.t ->
  Semantics.Assign.t ->
  Qsyntax.formula ->
  bool

val answers :
  ?semantics:semantics ->
  Relational.Instance.t ->
  Qsyntax.t ->
  Relational.Tuple.Set.t
(** Head-variable bindings satisfying the query body.  For a boolean query
    the result is either empty or the singleton empty tuple.

    Factorizable bodies ({!Qsafe.factorizable}) are evaluated, under every
    semantics, by joining the body's atoms through the instance's hash
    indexes and filtering with built-ins/[IsNull] (under [NullAware], also
    dropping a match that binds a join variable to null) — linear-ish in
    the matching tuples instead of [|adom|^k] — which is what makes
    consistent answers over millions of tuples feasible; the
    active-domain enumeration remains for the general fragment and is the
    property-tested reference; it compiles the body once, and each of its
    atoms once, however many assignments it tries.

    The join's head tuples fill an array that becomes the answer set
    ({!Relational.Tuple.Set.of_array}): it is sorted only when the join
    did not produce it in [Tuple.compare] order.  A scan of one atom
    walks its relation in that order, so a head on the leading columns
    of a single-atom body ([q(X): exists Y. S(X, Y)]) costs one pass and
    no sort. *)

val witnessed :
  ?semantics:semantics ->
  Relational.Instance.t ->
  Qsyntax.t ->
  Relational.Tuple.t ->
  bool
(** [witnessed ?semantics d q t] is [Tuple.Set.mem t (answers ?semantics d
    q)] for a factorizable body ({!Qsafe.factorizable}), under every
    semantics: it has a witness in [d].  Compiled once on partial
    application ([let test = witnessed d q in ...]); each test is one join
    of the body's atoms seeded with the head bound to [t], stopped at the
    first match the built-ins and [IsNull]s keep, and under [NullAware]
    binding no join variable to null.  Like a compiled join, the test is
    not reentrant: one domain at a time.
    @raise Invalid_argument on a body with a disjunction, a negation or a
    universal quantifier. *)

val boolean :
  ?semantics:semantics -> Relational.Instance.t -> Qsyntax.t -> bool
