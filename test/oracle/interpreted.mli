(** The tuple-at-a-time physical executor: the physical oracle.

    The original Volcano path — one canonical tuple per [next ()],
    references resolved by name on every row, per-operator memo tables
    as in the compiled path.  It is the executable specification the
    compiled executor ({!Soqm_physical.Exec.run}) is property-tested and
    benchmarked against. *)

open Soqm_algebra
open Soqm_physical

type iter = {
  next : unit -> Relation.tuple option;
  close : unit -> unit;
}

val open_plan : Exec.ctx -> Plan.t -> iter
(** Open the plan's root iterator.  @raise Exec.Error on dynamic
    failures, with the compiled path's messages. *)

val run : Exec.ctx -> Plan.t -> Relation.t
(** Exhaust the plan and canonicalize the result into a relation. *)
