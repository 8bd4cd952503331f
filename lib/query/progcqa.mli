(** Consistent query answering as cautious reasoning over the repair
    program — the paper's computational method ("consistent query answering
    amounts to doing cautious or certain reasoning from logic programs under
    the stable model semantics", Section 1).

    The query is compiled to rules [ans(x) :- lits] over the [t**]-annotated
    predicates of [Pi(D, IC)] and appended to the program; the consistent
    answers are the cautious consequences of the combined program on [ans],
    the possible answers its brave consequences.  No repair is ever
    materialized.

    Supported query fragment: unions of conjunctions of (possibly negated)
    atoms, comparisons and [IsNull], with existential quantification —
    i.e. safe non-recursive Datalog with negation.  Universal quantifiers
    and negated existentials are rejected (use the repair-materializing
    engines of {!Cqa}).  The constraint set must be RIC-acyclic: that is
    Theorem 4's hypothesis, and for cyclic sets the stable models
    over-approximate the repairs, making cautious reasoning incomplete. *)

val compile :
  Core.Annot.Names.t -> Qsyntax.t -> (Asp.Syntax.rule list, string) result
(** The query rules, with head predicate [ans].  Fails on unsupported
    shapes and on unsafe rules (e.g. a head variable occurring only under
    negation). *)

type outcome = {
  consistent : Relational.Tuple.Set.t;  (** cautious consequences *)
  possible : Relational.Tuple.Set.t;    (** brave consequences *)
  stable_models : int;
}

val consistent_answers :
  ?variant:Core.Proggen.variant ->
  ?budget:Budget.ctl ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Qsyntax.t ->
  (outcome, string) result
(** [budget] bounds grounding and solving under the shared run budget;
    exhaustion of it or of the solver's per-search cap yields [Error],
    never an exception. *)

val certain :
  ?variant:Core.Proggen.variant ->
  ?budget:Budget.ctl ->
  Relational.Instance.t ->
  Ic.Constr.t list ->
  Qsyntax.t ->
  (bool, string) result
(** Definition 8 for boolean queries, by cautious reasoning. *)
