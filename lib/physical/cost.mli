(** Cost model for physical plans.

    "A simple cost model" (Section 7): cardinalities are propagated
    bottom-up from extent statistics, property fanouts and declared
    method selectivities; operator costs charge scans per object,
    methods at their declared per-call cost — once per input tuple, or
    once per execution when the operator is tuple-independent (constant
    receiver and arguments), mirroring the executor's memoization.  This
    non-uniform treatment of methods is what lets the optimizer prefer a
    single [retrieve_by_string] probe over thousands of
    [contains_string] calls. *)

open Soqm_storage

type estimate = {
  card : float;  (** estimated output cardinality *)
  cost : float;  (** estimated total cost, in object-fetch units *)
}

val estimate : Statistics.t -> Plan.t -> estimate

val cost : Statistics.t -> Plan.t -> float
(** [(estimate stats plan).cost] *)

val q_error : est:float -> actual:int -> float
(** The q-error of a cardinality estimate, [max(e/a, a/e)] with both
    sides raised to at least 1: 1 is exact, and it is symmetric in over-
    and underestimation. *)
