(** The expected-verdict runner: answer every case through every engine
    tier and cross-check the rendered outcomes byte for byte, then check
    the case's pinned expectations against the reference (auto) outcome. *)

type tier = Auto | Program | Enumerate | SessionTier | ServeTier

val all_tiers : tier list
val tier_name : tier -> string

val tiers_for : ics:Ic.Constr.t list -> Case.t -> tier list
(** All five tiers, except that (a) the serve tier is skipped for cases
    pinned to a non-default query semantics (the line protocol answers
    under the default), and (b) the program tier is skipped when [ics]
    fails {!Ic.Builder.non_conflicting} — the null-padded repair program
    of Definition 9 is sound only under the Assumption of Section 4, and
    on conflicting sets (Example 20) it legitimately disagrees with
    [Rep(D, IC)].  Such cases pin the {!Repair.Repd} cardinality
    instead. *)

type tier_result = {
  tier : string;
  rendered : (string, string) result;
  ms : float;  (** wall-clock of this tier's answer, for bench telemetry *)
}

type result_ = {
  case : Case.t;
  tiers : tier_result list;
  failures : string list;  (** empty iff the case passed *)
}

val passed : result_ -> bool

val run_case : Case.t -> result_

type summary = {
  total : int;
  ok : int;
  families : string list;  (** in first-seen order *)
  failed : result_ list;
}

val run : Case.t list -> summary * result_ list
