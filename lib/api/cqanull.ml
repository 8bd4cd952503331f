(** Facade: the whole library under one namespace.

    [open Cqanull] (or [module C = Cqanull]) gives access to every
    sub-library without naming the individual dune libraries:

    {[
      let repairs = Cqanull.Repair.Enumerate.repairs d ics
      let report  = Cqanull.Core.Engine.run d ics
    ]} *)

module Relational = Relational
(** Values (incl. [null]), tuples, schemas, instances, projections. *)

module Ic = Ic
(** Constraints of form (1), relevant attributes, dependency graphs. *)

module Semantics = Semantics
(** IC satisfaction: [|=_N] and the baseline semantics; incremental
    checking of updates. *)

module Repair = Repair
(** The [<=_D] order, repair enumeration, [Rep_d]. *)

module Asp = Asp
(** The answer-set-programming substrate: grounder, solver, HCF, export. *)

module Core = Core
(** Repair programs [Pi(D, IC)], the engine, null-flow. *)

module Query = Query
(** Safe first-order queries, evaluation over nulls, CQA. *)

module Lang = Lang
(** The surface language: parser, loader, emitter. *)

module Workload = Workload
(** The paper's instances and synthetic generators. *)

module Budget = Budget
(** Shared resource budgets: limits, deadline, per-stage stats. *)

module Delta = Delta
(** Update batches over instances: insert/delete ops, net effect. *)

module Session = Session
(** The incremental session engine: delta maintenance, component-keyed
    solve cache, serving-loop building blocks. *)
