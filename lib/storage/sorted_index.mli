(** Ordered index on a property: range probes over sorted values.

    Complements {!Hash_index} with the access path range predicates need
    ([x.prop < c], [BETWEEN]-style conjunctions): one probe returns the
    instances whose property value lies in an interval.  Backed by a
    sorted array rebuilt from the store ({!build}); point updates
    ({!insert}/{!delete}) keep it sorted. *)

open Soqm_vml

type t

val create : cls:string -> prop:string -> t
val cls : t -> string
val prop : t -> string

val insert : t -> Value.t -> Oid.t -> unit
val delete : t -> Value.t -> Oid.t -> unit

val replace : t -> old_value:Value.t -> new_value:Value.t -> Oid.t -> unit
(** [delete t old_value oid] then [insert t new_value oid], copying the
    array once. *)

type bound = Unbounded | Inclusive of Value.t | Exclusive of Value.t

val probe_range : t -> Counters.t -> lo:bound -> hi:bound -> Oid.t list
(** Instances whose indexed value lies between the bounds (under
    {!Value.compare}); charges one index probe.  Duplicate-free, in
    ascending value order. *)

val count_range : t -> lo:bound -> hi:bound -> int
(** Number of instances {!probe_range} would return, in O(log n) and
    uncharged: the cost model's range estimate. *)

val probe_eq : t -> Counters.t -> Value.t -> Oid.t list

val entries : t -> int

val iter_entries : t -> (Value.t -> Oid.t -> unit) -> unit
(** Every entry in ascending (value, oid) order — the dump feed for
    index persistence. *)

val load_sorted : t -> (Value.t * Oid.t) array -> unit
(** Install a pre-sorted entry array wholesale (the persisted-image load
    path, O(n) instead of n point inserts).
    @raise Invalid_argument unless strictly ascending under the index
    order. *)

val build : t -> Object_store.t -> unit
(** (Re)build from the store's current extent. *)
