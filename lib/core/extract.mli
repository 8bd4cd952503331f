(** From stable models back to databases (Definition 10):
    [D_M] contains [P(a)] whenever the model holds [P(a)] annotated with
    [t**] (spelled [tss] in the generated programs). *)

val database_of_model :
  Annot.Names.t -> Asp.Ground.gatom list -> Relational.Instance.t

val databases_of_models :
  Annot.Names.t -> Asp.Ground.gatom list list -> Relational.Instance.t list
(** Distinct databases of the models, sorted by [Instance.compare].  Two stable
    models may induce the same database (e.g. through forced but immaterial
    [ta] annotations); duplicates are removed. *)
