(** Recursive-descent parser for the surface language.

    {v
    % schema (optional: relations are otherwise inferred from facts)
    relation Course(code, id, term).

    % facts: every argument is a constant (null, integer, identifier,
    % capitalized word or "quoted string")
    Course(cs27, 21, w04).
    Course(cs50, null, w05).

    % constraints: capitalized identifiers are variables, everything else
    % constants; variables occurring only in the consequent are
    % existentially quantified; the consequent is a |-separated disjunction
    % of atoms and comparisons, or the keyword false
    constraint fk: Course(X, Y, Z) -> Exp(Y, X, W).
    constraint key_r: R(X, Y), R(X, Z) -> Y = Z.
    constraint pos: Emp(I, N, S) -> S > 100.
    constraint no_self: E(X, X) -> false.

    % NOT NULL-constraint on an attribute position (1-based)
    not_null R[1].

    % queries: & | ! exists forall isnull(), comparisons; quantifiers
    % extend as far right as possible
    query enrolled(X): exists Y Z. Course(X, Y, Z).
    query certain_pair: exists X. Course(X, 21, w04).

    % update statements: applied to the instance in file order, after the
    % facts (the session engine also accepts them line by line)
    insert Course(cs99, 33, w06).
    delete Course(cs50, null, w05).
    v} *)

exception Parse_error of string * int * int

val parse : string -> Surface.file
(** @raise Parse_error / Lexer.Lex_error with position information. *)

val iter_items :
  fact:(line:int -> string -> Relational.Value.t array -> int -> unit) ->
  item:(int -> Surface.item -> unit) ->
  string ->
  unit
(** The items of the input in file order, each with the 1-based line it
    starts on.  [fact ~line rel values n] receives a fact's relation and
    its [n] values, in the first [n] cells of an array the parser reuses
    for the next fact: no {!Surface.Fact} is built.  Every other item goes
    to [item].
    {!parse} is this with every fact made a {!Surface.Fact}.
    @raise Parse_error / Lexer.Lex_error with position information; a
    lexical error anywhere in the input wins over an earlier parse
    error. *)
