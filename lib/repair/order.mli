(** The repair preference order [<=_D] of Definition 6.

    [D' <=_D D''] iff (a) every null-free atom of [Delta(D, D')] belongs to
    [Delta(D, D'')], and (b) every atom of [Delta(D, D')] containing nulls
    either belongs to [Delta(D, D'')] itself, or some atom of
    [Delta(D, D'') \ Delta(D, D')] has the same predicate and agrees with it
    on all its non-null positions.  (The paper writes the nulls in the last
    positions for presentation only; the condition is positional.)

    The "belongs to [Delta(D, D'')] itself" disjunct in (b) is not spelled
    out in the paper's Definition 6, but it is forced by the examples:
    without it [<=_D] is not reflexive, and instances padded with gratuitous
    all-null tuples (e.g. [D ∪ {Student(34, null), Student(null, null)}] in
    Example 14's scenario) would be incomparable to the intended repairs and
    Example 15 would not have "only two repairs".  With it, [<=_D] is a
    preorder and the paper's Examples 15-20 come out exactly as printed
    (see test/test_repair.ml).

    Intuitively, an instance that differs from [D] by a null-padded tuple is
    preferred over one that differs by the same tuple padded with arbitrary
    constants (Example 17: [R(b, null)] beats every [R(b, d)]). *)

val leq : d:Relational.Instance.t -> Relational.Instance.t -> Relational.Instance.t -> bool
(** [leq ~d d' d''] is [D' <=_D D'']. *)

val lt : d:Relational.Instance.t -> Relational.Instance.t -> Relational.Instance.t -> bool
(** Strict: [leq d' d''] and not [leq d'' d']. *)

val minimal_among :
  ?budget:Budget.ctl ->
  d:Relational.Instance.t ->
  Relational.Instance.t list ->
  Relational.Instance.t list
(** The [<=_D]-minimal elements of a finite set of instances (duplicates
    removed first), sorted by [Instance.compare].  Minimality is
    component-local when the candidates' symmetric differences split over
    disjoint atom sets with no cross-covering
    ({!matches_non_null_positions}), which is what lets {!Decompose} filter
    per component instead of over the cross product.

    The filter compares every pair of candidates; with a [budget], its two
    passes (each candidate's delta, then the comparisons) check the
    deadline once per candidate.
    @raise Budget.Exhausted when the deadline has passed. *)

val matches_non_null_positions : Relational.Atom.t -> Relational.Atom.t -> bool
(** Does the second atom agree with the first on every non-null position of
    the first (same predicate and arity required)?  This is the covering
    test of condition (b) of [<=_D]; {!Decompose} uses it to decide whether
    per-component minimality implies global minimality. *)

val delta : Relational.Instance.t -> Relational.Instance.t -> Relational.Instance.t
(** [Delta(D, D')], the symmetric difference. *)
