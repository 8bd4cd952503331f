(** Concrete-syntax output for external solvers.

    [Dlv] prints disjunction as [v] (the DLV system [24] the paper used);
    [Clingo] prints it as [|] and is accepted by clingo/gringo. *)

type dialect = Dlv | Clingo

val rule_to_string : dialect -> Syntax.rule -> string
val program_to_string : dialect -> Syntax.program -> string
