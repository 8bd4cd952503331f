(** Loading and validating surface files. *)

type loaded = {
  schema : Relational.Schema.t;
  instance : Relational.Instance.t;
      (** the facts alone — update statements are {e not} folded in *)
  ics : Ic.Constr.t list;
  queries : (string * Query.Qsyntax.t) list;
  updates : Delta.op list;
      (** [insert]/[delete] statements, in file order *)
}

val of_string : ?file:string -> string -> (loaded, string) result
(** Parse and load in one pass.  Each fact's values are interned straight
    into its relation's {!Relational.Instance.builder}, so no
    {!Surface.Fact} or atom is built per fact; the schema is inferred and
    arities are checked in the same pass, and the other items are then
    validated against the declared (or inferred) schema: constraints are
    built through {!Ic.Constr.generic}, so all form-(1) side conditions
    are enforced, and queries are named.

    Errors: a lexical error anywhere in the input wins over a parse
    error before it, then the first schema error in file order (an arity
    clash or a relation declared twice), then the first error of the
    other items in file order, then the first query mentioning an
    unknown relation or a wrong arity.  Lexer/parser errors are rendered
    with ["line:col:"] positions and the others with the ["line:"] of
    the offending item; [file] prefixes both with the file name
    ("file:line:col:" / "file:line:"), without it the others read ["line
    N: ..."]. *)

val of_file : string -> (loaded, string) result
(** {!of_string} with [~file:path], so every load error names the file
    and the line of the offending item — a fuzzer-minimized repro (or any
    conformance scenario) can be opened at the failure. *)

val final_instance : loaded -> Relational.Instance.t
(** The instance after applying the file's update statements in order
    ([Delta.apply updates instance]) — what the one-shot CLI commands
    operate on; the session CLI instead starts from [instance] and replays
    [updates] through the session engine. *)
