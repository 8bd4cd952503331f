(** The shift transformation [sh(Pi)] (Section 6): a head-cycle-free
    disjunctive program has the same stable models as the normal program
    obtained by replacing each disjunctive rule

    [p1 v ... v pn :- body]

    by the [n] rules [pi :- body, not p1, ..., not p(i-1), not p(i+1), ...,
    not pn].  Applying it to a non-HCF program is unsound (stable models can
    be lost) — callers check {!Hcf.is_hcf} first, or call {!if_hcf}. *)

val program : Syntax.program -> Syntax.program
(** Syntactic shift of a (possibly non-ground) program. *)

val ground : Ground.t -> Ground.t
(** Shift of a ground program (shares the atom table shape but renumbers
    nothing: atom ids are preserved). *)

val if_hcf : Ground.t -> Ground.t * bool
(** The program to solve: the {!ground} shift of a head-cycle-free
    program, any other program as it is; and whether it was shifted. *)
