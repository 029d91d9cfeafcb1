(** Execution of physical plans.

    Two executors share one context:

    {ul
    {- {!Interpreted} is the original Volcano path — one canonical tuple
       per [next ()], references resolved by name on every row.  It is
       the executable specification the batch path is property-tested
       against.}
    {- The default path ({!run}) first {!compile}s the plan — resolving
       every reference, join key and projection to an integer slot
       against per-operator {!Relation.Layout.t}s — then runs each
       operator's {e kernel}: its row work over a range of input rows
       ([Value.t array]s), with no assoc lists and no name lookups
       inside the per-row loops.  Every operator has exactly one
       kernel, driven by one of two schedulers: the block driver
       ({!open_compiled}, [jobs = 1]) and the morsel scheduler
       ({!eval_parallel}, [jobs >= 2]); see DESIGN.md §9–§10.}}

    Per-operator memo tables cache method invocations and property
    accesses keyed by receiver and argument {e values} in both paths:
    safe because optimized queries are side-effect free, and exactly
    what makes tuple-independent operator chains (a class-method call
    with constant arguments and the accesses hanging off it) cost one
    evaluation per execution instead of one per tuple. *)

open Soqm_vml
open Soqm_algebra

exception Error of string

type ctx = {
  store : Object_store.t;
  probe_index : cls:string -> prop:string -> Value.t -> Oid.t list option;
      (** probe a value index if one exists on [cls.prop]; implementations
          charge the index-probe counter themselves *)
  probe_range :
    cls:string ->
    prop:string ->
    lo:Soqm_storage.Sorted_index.bound ->
    hi:Soqm_storage.Sorted_index.bound ->
    Oid.t list option;
      (** probe an ordered index if one exists on [cls.prop] *)
  scan_cost : cls:string -> (int * int) option;
      (** drive the class extent's traffic through an attached paged disk
          store ([Soqm_disk]), returning [(pages touched, bytes decoded)]
          — whole pages for a row-slotted class, chunk metadata for a
          columnar one — or [None] when the database is purely
          in-memory.  Full scans call this so disk-backed databases
          charge real buffer-pool traffic (and the [pages=] / [bytes=]
          columns of [explain --analyze]). *)
}

val basic_ctx : Object_store.t -> ctx
(** A context with no indexes (index and range scans fail to resolve). *)

type iter = {
  next : unit -> Relation.tuple option;
  close : unit -> unit;
}

(** The tuple-at-a-time reference executor. *)
module Interpreted : sig
  val open_plan : ctx -> Plan.t -> iter
  (** Open the plan's root iterator.  @raise Error on dynamic failures. *)

  val run : ctx -> Plan.t -> Relation.t
  (** Exhaust the plan and canonicalize the result into a relation. *)
end

(** {1 Batch execution} *)

val block_size : int
(** Maximum rows per emitted block (128) — sized so a block's backing
    array stays within the minor-heap allocation limit
    ([Max_young_wosize]); see DESIGN.md §9. *)

type biter = {
  next_block : unit -> Relation.Row.t array option;
      (** at most {!block_size} rows, laid out per the operator's
          compiled layout; rows may be shared with input blocks *)
  close_blocks : unit -> unit;
}

type node_stats = {
  node_rows : int array;
  node_blocks : int array;
  node_morsels : int array;
      (** input morsels processed by the parallel path (0 under serial
          execution) *)
  node_partitions : int array;
      (** build-side partitions used by the parallel hash join / diff
          kernels (0 under serial execution and for non-partitioned
          operators; 1 when a tiny build side collapsed to a single
          shared table) *)
  node_pages : int array;
      (** disk pages touched by full scans of this node ([ctx.scan_cost]);
          0 for in-memory databases *)
  node_bytes : int array;
      (** bytes the storage layer decoded for full scans of this node —
          whole pages for row-slotted classes, chunk metadata for
          columnar ones; 0 for in-memory databases *)
}
(** Per-operator actuals, indexed by [Plan.compiled] node id — the
    [explain --analyze] sink. *)

val make_stats : Plan.compiled -> node_stats

val compile : ctx -> Plan.t -> Plan.compiled
(** {!Plan.compile}, with compile failures charged to the slot-miss
    counter and re-raised as {!Error} (same messages the interpreted
    executor raises at run time). *)

val open_compiled : ?stats:node_stats -> ctx -> Plan.compiled -> biter
(** The block driver: open the root block iterator, which pulls blocks
    of at most {!block_size} rows through each operator's kernel.
    Streaming operators run their kernel once per input block; pipeline
    breakers (join and diff build sides, the nested loop's inner side)
    drain their input lazily, when the first probe block arrives.  This
    is the only path for [jobs = 1]: no pool, no domain.  Every emitted
    block charges the block counter; with [stats] it also accumulates
    per-node actual rows/blocks.  @raise Error on dynamic failures. *)

val drain_blocks : biter -> Relation.Row.t array list

(** {1 Morsel-driven parallel execution}

    With [jobs >= 2], the same kernels run under the morsel scheduler
    on the {!Pool.global} domain pool: each operator materializes its
    input as one row array, workers claim {!morsel_size}-row morsels of
    it through an atomic cursor and run the operator's kernel on each
    (with per-worker memo tables), and per-morsel results are
    concatenated in morsel order — so the parallel output is row-for-row
    identical to the block driver's (DESIGN.md §10).  Equi- and natural
    joins (and diff) hash-partition their build side and build one table
    per partition with the block driver's build function, preserving
    build-input match order. *)

val morsel_size : int
(** Rows per work unit claimed by a parallel worker (1024 = 8 serial
    blocks); see DESIGN.md §10 for the sizing rationale. *)

val eval_parallel :
  ?stats:node_stats -> ctx -> jobs:int -> Plan.compiled -> Relation.Row.t array
(** The morsel scheduler: evaluate with [jobs] workers and return the
    root's materialized rows (in deterministic, serial-identical order —
    exposed for the determinism tests and benchmarks).  It schedules
    only: every row loop it runs is an operator kernel shared with
    {!open_compiled}, and it accounts through the same per-node path, so
    [node_rows] and the produced-tuple count match a [jobs = 1] run.
    @raise Error on dynamic failures, re-raised on the caller after all
    workers join. *)

val effective_jobs : ctx -> int -> Plan.compiled -> int
(** The worker count the default executor would actually use: [jobs]
    capped at [Domain.recommended_domain_count ()], collapsing to 1
    when every leaf extent of the plan fits inside a single
    {!morsel_size} morsel (one work unit per operator — domain
    handoff with no overlap). *)

val run_compiled :
  ?stats:node_stats ->
  ?jobs:int ->
  ?clamp:bool ->
  ctx ->
  Plan.compiled ->
  Relation.t
(** Exhaust the compiled plan and canonicalize the result.  [jobs]
    (default 1) selects the scheduler: 1 is the block driver
    ({!open_compiled}; no pool, no domain spawns), [>= 2] the morsel
    scheduler ({!eval_parallel}).  Unless [clamp:false], [jobs] first
    passes through {!effective_jobs}, so over-subscribed hosts and
    sub-morsel inputs silently take the block driver — callers that
    report per-node morsel counts should decide from {!effective_jobs}
    too.  Pass [~clamp:false] to force the morsel scheduler regardless
    (determinism tests, benchmarks on small fixtures). *)

val run : ?jobs:int -> ?clamp:bool -> ctx -> Plan.t -> Relation.t
(** [compile] + [run_compiled] — the default executor. *)
