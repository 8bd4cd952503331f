(** Database instances: finite sets of ground database atoms.

    Following the paper (and deviating from SQL's bag semantics exactly as
    discussed around Example 7), an instance is a {e set} of atoms.

    The representation is columnar: constants are interned through
    {!Symtab} and each relation is stored as an immutable sorted segment of
    int columns, one per attribute, with lazily built postings per
    attribute (the row ids grouped by code in one int array; membership is
    a binary search over the sorted rows), plus a persistent overlay of
    additions and deletions so that [add]/[remove] stay functional and
    cheap.  Joins read the codes directly (see
    {!section-code}).  The observable behaviour — set semantics,
    iteration order, the [compare]/[equal] total order, [pp] output — is
    byte-identical to the historical tuple-set representation, which the
    test suite keeps as the differential oracle of this one. *)

type t

val empty : t
val is_empty : t -> bool

val add : Atom.t -> t -> t
val remove : Atom.t -> t -> t
val mem : Atom.t -> t -> bool

val of_atoms : Atom.t list -> t
(** Bulk constructor: a relation of one arity and at least 8 tuples is
    interned into a {!builder} and goes through {!build}; smaller
    relations stay overlay tuple sets, and a relation of mixed arities
    keeps its most common arity columnar and the rest in its overlay. *)

(** {2 Bulk construction from codes}

    What a loader streams its facts into: each row is interned into
    {!Symtab} codes as it is added, so no tuple or atom is built per row.
    Rows may come in any order and repeat. *)

type builder
(** One relation's rows, of one arity. *)

val builder : string -> arity:int -> builder

val add_row : builder -> Value.t array -> unit
(** Intern the first [arity] values of the array (which may be longer)
    as one row, under one acquisition of the symbol table's lock. *)

val build : builder list -> t
(** The instance of the builders' rows, one builder per relation.  The
    distinct codes of all the rows are ranked once by {!Value.compare};
    each relation's rows are sorted by rank, which is their
    [Tuple.compare] order, and deduplicated.  A relation of fewer than 8
    distinct rows stays an overlay tuple set, as in {!of_atoms}.  Time and
    memory grow with the rows, not with the symbol table. *)

val of_list : (string * Value.t list) list -> t
val atoms : t -> Atom.t list
val atom_set : t -> Atom.Set.t

val cardinal : t -> int
val preds : t -> string list
(** Predicates with at least one tuple, sorted. *)

val tuples : t -> string -> Tuple.Set.t
(** Tuples of one relation (empty set if none), in O(n): the relation's
    walk is already sorted and distinct, so the set is that walk's array.
    It decodes every row, so iteration-heavy callers should prefer
    {!iter_rel}/{!iter_matching} or the code-level {!rows}. *)

val fold : (Atom.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Atom.t -> unit) -> t -> unit
val filter : (Atom.t -> bool) -> t -> t

val union : t -> t -> t
val diff : t -> t -> t
val inter : t -> t -> t
val symdiff : t -> t -> t
(** The symmetric difference [Delta(D, D')] used to compare instances with
    their repairs (Section 4).  Instances a few updates apart share their
    segments physically, and the set operations above then run in time
    proportional to the overlay, not the instance. *)

val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val active_domain : t -> Value.t list
(** All constants occurring in the instance, [null] included if present,
    sorted and deduplicated.  Cached per instance (and per segment), so
    repeated calls — the grounder, {!Repair.Candidates} — are O(1) after
    the first. *)

val active_domain_non_null : t -> Value.t list

val null_count : t -> int
(** Number of null occurrences across all tuples.  Cached like
    {!active_domain}. *)

(** {2 Relation scans and probes}

    Value-level access to one relation, for callers outside the joins (the
    NNC check reads the null posting this way).  Positions are 0-based.
    {!iter_rel} yields tuples in [Tuple.compare] order; {!iter_matching}
    yields surviving segment rows (ascending, via the column's lazily
    built postings) followed by overlay tuples (ascending).
    Joins read relations through the code-level access below. *)

val rel_cardinal : t -> string -> int
(** Number of tuples of one relation, O(1). *)

val iter_rel : t -> string -> (Tuple.t -> unit) -> unit

val iter_matching : t -> string -> pos:int -> Value.t -> (Tuple.t -> unit) -> unit
(** [iter_matching d p ~pos v f] applies [f] to every tuple of relation [p]
    whose 0-based position [pos] holds exactly [v] (nulls match only
    [Value.null]), probing the column's postings instead of scanning.
    The first probe of a column builds its postings: the segment's row
    ids grouped by code in one int array, a group found through an array
    over the column's code span when that span is at most twice the rows,
    else through an open-addressed table of ints. *)

(** {2:code Code-level access}

    What the compiled joins of {!Semantics.Assign} read: one relation's
    live tuples as {!Symtab} codes, addressed by an [int] row handle, so
    that matching a row compares machine integers and allocates nothing.
    Segment rows are read straight from their columns; overlay tuples
    ([add]s not yet compacted) are interned once per overlay, the first
    time a view of the relation is taken, and share that encoding with
    every instance built on the same overlay.  Only the rows a join keeps
    are decoded ({!row_tuple}).  {!iter_rows} enumerates in the order of
    {!iter_rel} and {!iter_rows_with_code} in the order of
    {!iter_matching}; the [exists] variants stop at the first hit and
    promise no order. *)

type rows
(** A view of one relation of one instance.  Taking it may intern the
    relation's overlay constants; a handle is meaningful only for the view
    it came from. *)

val rows : t -> string -> rows
(** The view of a relation (empty when the instance has none of its
    tuples). *)

val rows_cardinal : rows -> int
val row_arity : rows -> int -> int
val row_code : rows -> int -> int -> int
(** [row_code v h j] is the code at 0-based position [j] of row [h]. *)

val segment_rows : rows -> int
(** The handles below this are segment rows, live or deleted; the others
    are overlay tuples. *)

val columns : rows -> int array array
(** The segment's columns: [(columns v).(j).(h)] is [row_code v h j] for
    a segment row [h], and every segment row has arity
    [Array.length (columns v)].  A join reads them in place, with no call
    per code.  The arrays are the instance's own: never write them. *)

val is_plain : rows -> bool
(** No deletion and no overlay: the live rows are exactly the handles
    [0 .. segment_rows v - 1], in [iter_rows] order. *)

val row_tuple : rows -> int -> Tuple.t
(** Decode a row (overlay tuples are returned as stored). *)

val iter_rows : rows -> (int -> unit) -> unit
val exists_rows : rows -> (int -> bool) -> bool

val iter_rows_with_code : rows -> pos:int -> int -> (int -> unit) -> unit
(** Rows whose position [pos] holds the code, through the column's
    postings: surviving segment rows ascending, then overlay tuples
    ascending.  A negative code (a constant never interned) matches
    nothing. *)

val exists_rows_with_code : rows -> pos:int -> int -> (int -> bool) -> bool

val has_code : rows -> pos:int -> arity:int -> int -> bool
(** Is there a live row of arity [arity] whose position [pos] holds the
    code?  Decided from the postings and the overlay's codes, with no row
    matched: an existence test whose other positions are all distinct
    free variables. *)

val pp : t Fmt.t
(** One atom per line, sorted — stable output for tests and goldens. *)

val pp_inline : t Fmt.t
(** [{A(1), B(2, null)}] on one line. *)
