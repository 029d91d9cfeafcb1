(** Database statistics for cost estimation.

    The optimizer's cost model needs extent cardinalities, per-property
    fanouts and distinct counts, and the declared method selectivities
    from the schema.

    Statistics live in two regimes.  A {e full collect} ({!collect},
    {!recollect}) scans every extent; afterwards, DML flows cheap deltas
    in through the [note_*] functions (the incremental maintainers of
    [Soqm_maintenance] call them on every store change event): extent
    cardinalities and set-valued fanout totals are maintained {e exactly},
    while distinct counts only drift.  Every delta bumps a staleness tick;
    once {!staleness} — accumulated writes over the population of the last
    full collect — crosses the maintenance policy's threshold, a full
    in-place {!recollect} refreshes the drifting estimates (and the plan
    cache's epoch is bumped, see [Engine]).  All scans use administrative
    reads, not charged to query counters. *)

open Soqm_vml

type t

val collect : Object_store.t -> t
(** Scan extents and properties and record:
    - cardinality of every class extent;
    - for every set-valued property, the total and average set size over
      live instances (the fanout);
    - for every scalar property, the number of distinct values. *)

val recollect : t -> Object_store.t -> unit
(** Repeat the full scan {e in place}, refreshing all estimates and
    resetting {!staleness} to 0.  In-place matters: generated optimizers
    capture the [t] at generation time, so a recollect reaches every
    cached cost model without regenerating. *)

val schema : t -> Schema.t

val cardinality : t -> string -> float
(** Extent cardinality of a class (0 for unknown classes). *)

val fanout : t -> cls:string -> prop:string -> float
(** Average set size of a set-valued property; 1.0 for scalar properties
    and unknown ones. *)

val distinct : t -> cls:string -> prop:string -> float
(** Distinct values of a scalar property (≥ 1).  Only refreshed by a full
    (re)collect — the estimate drifts between collects. *)

val eq_selectivity : t -> cls:string -> prop:string -> float
(** Estimated selectivity of [x.prop == const]: [1 / distinct]. *)

val register_range :
  t ->
  cls:string ->
  prop:string ->
  (lo:Sorted_index.bound -> hi:Sorted_index.bound -> int) ->
  unit
(** Attach an exact range counter for [cls.prop] — an ordered index's
    {!Sorted_index.count_range} — so {!range_selectivity} need not guess.
    Registrations survive {!recollect}. *)

val range_selectivity :
  t ->
  cls:string ->
  prop:string ->
  lo:Sorted_index.bound ->
  hi:Sorted_index.bound ->
  float option
(** Fraction of [cls]'s extent whose [prop] lies between the bounds, when
    a range counter is registered for it. *)

val method_selectivity : t -> cls:string -> meth:string -> float
(** Declared selectivity of a boolean method, default 0.5 (the classical
    unknown-predicate guess). *)

val method_cost : t -> cls:string -> meth:string -> float
(** Declared per-call cost of a method, default 1.0. *)

val method_result_card : t -> cls:string -> meth:string -> float
(** Estimated cardinality of a set-returning method's result.  For a
    class method declared with selectivity [s] returning a set of [C']
    instances, this is [s * cardinality C']; otherwise falls back to the
    average fanout heuristic. *)

(** {1 Incremental deltas}

    Cheap per-event adjustments; each bumps the staleness tick. *)

val note_created : t -> cls:string -> unit
(** One object added to the class extent: cardinality + 1. *)

val note_deleted : t -> cls:string -> unit
(** One object removed: cardinality - 1. *)

val note_set_size : t -> cls:string -> prop:string -> delta:int -> unit
(** A set-valued property changed size by [delta] elements; adjusts the
    fanout total (no-op, no tick, when [delta = 0]). *)

val note_scalar_write : t -> cls:string -> prop:string -> unit
(** A scalar property was written: distinct counts may have drifted. *)

val staleness : t -> float
(** Accumulated deltas since the last full collect, relative to the total
    object population at that collect.  0 right after a (re)collect. *)

(** {1 Snapshots}

    The persisted-image form: a snapshot taken at checkpoint restores to
    exactly the same estimates, and the [note_*] deltas replayed from the
    WAL tail bring cardinalities and fanout totals to the exact live
    values — no collect scan on the fast open path. *)

type snapshot = {
  snap_cards : (string * float) list;
  snap_set_totals : ((string * string) * float) list;
  snap_distincts : ((string * string) * float) list;
  snap_writes : int;
  snap_population : float;
}

val snapshot : t -> snapshot
val of_snapshot : Schema.t -> snapshot -> t

val pp : Format.formatter -> t -> unit
