(** Deterministic synthetic workload generators for the benchmark harness.

    Every generator takes a [seed] and uses its own [Random.State], so bench
    tables are reproducible run to run. *)

type t = {
  label : string;
  d : Relational.Instance.t;
  ics : Ic.Constr.t list;
}

val fk_workload :
  ?seed:int -> n_parent:int -> n_child:int -> orphan_rate:float ->
  null_rate:float -> unit -> t
(** Parent [R(id, data)] with key [R[1]], child [S(sid, ref)] with a foreign
    key [S[2] -> R[1]].  [orphan_rate] of the children reference a missing
    parent; [null_rate] of all attribute positions (except the parent key)
    hold null. *)

val fk_workload_det :
  n_parent:int -> n_child:int -> orphans:int -> null_refs:int -> unit -> t
(** Deterministic variant of {!fk_workload}: exactly [orphans] children
    reference a missing parent and exactly [null_refs] further children
    carry a null reference (relevant to the FK under classic semantics but
    not under [|=_N]/simple match).  Used by the sweep tables E6-E8. *)

val fd_workload :
  ?seed:int -> ?width:int -> n:int -> dup_rate:float -> unit -> t
(** [R(key, value)] with the FD [key -> value]; [dup_rate] of the keys get
    [width - 1] (default [1]) extra, pairwise-conflicting values.  A
    conflicting key is a [width]-clique conflict component with [width]
    minimal repairs (keep exactly one value), while the enumerate search
    explores a state space exponential in [width] — the routing fast-path
    knob of bench table E18.  [width = 2] is byte-identical to the
    historical generator. *)

val check_workload :
  ?seed:int -> n:int -> viol_rate:float -> null_rate:float -> unit -> t
(** [Emp(id, name, salary)] with the check constraint [salary > 100]
    (Example 6); [viol_rate] of the salaries violate it, [null_rate] are
    null. *)

val chain_workload : ?seed:int -> n:int -> broken:int -> unit -> t
(** The UIC chain of Example 2 ([S -> Q], [Q -> R]) plus the RIC
    [Q -> exists y. T(x,y)], with [n] base [S]-tuples of which [broken]
    are missing their [Q]/[R]/[T] support. *)

val disjunctive_uic : width:int -> t
(** One UIC with [width] consequent disjuncts
    ([P(x) -> Q1(x) | ... | Qk(x)]) over a two-tuple instance — drives the
    [2^width] Q'/Q'' rule expansion of Definition 9 (bench table E5). *)

val bilateral_loop : ?seed:int -> n:int -> unit -> t
(** [P(x,y) -> P(y,x)] over a random P — violates Theorem 5's condition and
    grounds to a non-HCF program (bench table E4). *)

val clusters_workload : ?padding:int -> ?weight:int -> k:int -> unit -> t
(** [k] independent conflict clusters over {e shared} predicates
    ([S(a_i)] violating [S(x) -> exists y. R(x,y)], whose insertion repair
    cascades into [R(x,y) -> T(x)]): no split by shared predicate can
    separate them, the tuple-level conflict graph of {!Repair.Decompose}
    extracts [k] constant-size components.
    [Rep(D, IC)] has [2^k] repairs.  [padding] adds fully supported
    [S/R/T] triples that stay in the untouched core (bench table E15).

    [weight] (default [1] — the workload above, unchanged) [>= 2] swaps
    each cluster's bare [S(a_i)] for [weight] FD-conflicting
    [R(a_i, c_j)] tuples (plus their [S]/[T] anchors) under an added FD
    [R[1] -> R[2]]: per-component search cost becomes exponential in
    [weight] with [weight] minimal repairs per component
    ([weight^k] in total), which is what the parallel speedup table E16
    scales against [--jobs]. *)

val random_case : ?seed:int -> unit -> t
(** A small random instance over [P/1, Q/1, R/2, S/1] (values from
    [{a, b, c, null}]) with 1-3 random constraints drawn from a menu of
    UICs, a RIC, an FD, NNCs and a denial — the differential-test
    generator comparing decomposed against monolithic repair enumeration
    and CQA. *)

val route_case : ?seed:int -> unit -> t
(** {!random_case}'s shape with a tier-stratified constraint menu (FDs,
    denials, NNCs, UICs, a RIC, a bilateral pair, a general-existential
    constraint) so differential tests of the routing layer draw cases
    landing on every tier. *)

val denial_workload : ?seed:int -> n:int -> viol_rate:float -> unit -> t
(** Denial constraint [P(x,y), P(y,x) -> false] (no bilateral predicates:
    always HCF, Corollary 1). *)

val scale_workload :
  ?seed:int -> ?tuples:int -> ?null_rate:float -> ?fd_conflicts:int ->
  ?orphans:int -> unit -> t
(** The large-instance workload behind bench table E19 (and any future
    server bench): an FK chain with FD clusters at parameterized
    cardinality.  Parent [R(id, owner)] (~40% of [tuples], int keys, owners
    drawn from a small pool, [null_rate] of them null) under the key
    [R[1]], the NNC [R[1] NOT NULL], and the foreign key [S[2] -> R[1]]
    over child [S(cid, ref)] (the remaining ~60%).  Exactly [fd_conflicts]
    duplicated keys (one FD 2-clique each) and [orphans] dangling
    references keep the conflict count — and hence repair/CQA cost —
    independent of [tuples], so the tables measure storage and checking
    throughput, not search growth; [null_rate] of the references are null
    and exercise the null-escape of [|=_N] at scale.  Total cardinality is
    exactly [tuples]. *)
