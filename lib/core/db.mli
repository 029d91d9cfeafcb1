(** A ready-to-query document database: store + access paths + statistics.

    Bundles the object store with the two class-level access paths the
    example's external methods rely on — the user-defined hash index on
    [Document.title] behind [Document→select_by_index] and the inverted
    text index behind [Paragraph→retrieve_by_string] — and the statistics
    snapshot the optimizer's cost model reads. *)

open Soqm_vml
open Soqm_storage

type t = {
  store : Object_store.t;
  title_index : Hash_index.t;
  word_count_index : Sorted_index.t;
      (** ordered index on [Paragraph.word_count] — the range-scan access
          path *)
  text_index : Oid.t Soqm_ir.Inverted_index.t;
  mutable stats : Statistics.t;
      (** recollected in place, never reassigned — generated optimizers
          capture this value *)
  mutable maint : Soqm_maintenance.Maintenance.t option;
      (** incremental maintenance, when attached (the default) *)
  mutable default_jobs : int;
      (** worker count engines generated from this database execute
          with unless overridden per run; 1 (the default) is the serial
          block executor *)
  mutable disk : Soqm_disk.Store.t option;
      (** the attached paged disk store when the database was opened
          with {!open_disk}; [None] for purely in-memory databases *)
  mutable disk_buf : Soqm_disk.Wal.op list ref option;
      (** when set, the disk observer appends WAL operations here instead
          of committing each one individually — see {!buffer_disk_ops} *)
}

val hash_indexes : t -> Hash_index.t list
val sorted_indexes : t -> Sorted_index.t list
(** The database's value and ordered indexes — the one declaration of
    its access paths ([title_index] and [word_count_index]), which
    [refresh], maintenance, the derived image, the statistics' range
    counts and the executor context ([Engine.exec_ctx]) all iterate. *)

val create :
  ?schema:Soqm_vml.Schema.t ->
  ?params:Datagen.params ->
  ?maintain:bool ->
  ?jobs:int ->
  unit ->
  t
(** Build the document schema (or a cost-variant from
    {!Doc_schema.make}), install all method implementations (internal
    bodies and external natives), populate with {!Datagen}, build both
    indexes, and collect statistics.  Unless [maintain:false], then
    attach incremental maintenance (after the bulk load — point updates
    during population would be quadratic), so subsequent DML keeps
    indexes, the [largeParagraphs] implication sets and statistics
    consistent automatically. *)

val create_empty :
  ?schema:Soqm_vml.Schema.t -> ?maintain:bool -> ?jobs:int -> unit -> t
(** Same, but with no data; maintenance (default on) attaches
    immediately, so objects created through [store] are indexed as they
    arrive.  For bulk loads pass [~maintain:false], populate, {!refresh},
    or use {!create}. *)

val refresh : t -> unit
(** Rebuild indexes and statistics after manual (unobserved) data
    changes; with maintenance attached also resyncs the maintained
    implication sets and bumps the maintenance epoch. *)

val maintenance : t -> Soqm_maintenance.Maintenance.t option
(** The attached maintenance subsystem, if any. *)

val save : t -> string -> unit
(** Export the database's data to a paged disk database directory
    ([Soqm_disk]): one slotted-page heap segment per class, a meta file
    with the binary-encoded schema, and an empty WAL.  With maintenance
    attached, the derived state (index contents and statistics) is also
    persisted as [derived.idx]
    ([Soqm_maintenance.Persist]), stamped with the new store's
    checkpoint sequence, so the next open skips the derived rebuild.
    Overwrites any previous database in the directory. *)

val load : ?maintain:bool -> ?jobs:int -> string -> t
(** Import shim over the disk format: open the directory (running WAL
    recovery), materialize every record into a fresh in-memory store
    through the prefetching scan, then detach from the disk files —
    subsequent DML is {e not} written back (use {!open_disk} for that).
    Re-registers every method implementation of the document schema,
    then restores derived state the O(dirty) way when possible: a
    [derived.idx] image whose stamp matches the store's checkpoint
    sequence is loaded wholesale, the maintained sets' member tables are
    read back from the set properties in the base data, and only the
    recovered WAL tail is replayed through the maintenance observers.
    A missing, stale, older-format or
    corrupt image (or [maintain:false]) falls back to the O(extent)
    rebuild of indexes and statistics.  Only meaningful for databases of
    the document schema (possibly with cost-variant method declarations).
    @raise Soqm_disk.Store.Format_error on foreign or corrupt
    directories. *)

val open_disk :
  ?maintain:bool -> ?jobs:int -> ?pool_pages:int -> string -> t
(** Like {!load}, but stay attached to the disk store: every subsequent
    store change event appends a checksummed, fsynced WAL record {e
    before} the maintenance observers bump the epoch, and is applied to
    the buffer-pooled pages.  [pool_pages] sizes the buffer pool.  The
    attached store is {!field-t.disk}; full scans of engines generated
    from this database drive its page traffic (the [pages=] column of
    [explain --analyze]).  Close with {!close} to checkpoint and release
    the files. *)

val buffer_disk_ops : t -> (unit -> 'a) -> 'a * Soqm_disk.Wal.op list
(** Run [f] with disk write-back buffered: store change events that would
    each commit their own WAL batch are instead collected (in event
    order) and returned alongside [f]'s result, for the caller to commit
    as {e one} batch — the transaction manager applies a whole write set
    this way and commits it through the group-commit queue.  For a
    database with no attached disk store the op list is empty.  Not
    reentrant; callers must serialize (commit application already runs
    under the transaction manager's commit mutex). *)

val vacuum : ?mode:[ `Columnar | `Cluster ] -> t -> string -> int
(** Rewrite one class of the attached disk store
    ({!Soqm_disk.Store.vacuum}); returns the rows rewritten.
    [`Columnar] (default) moves the class to a columnar segment;
    [`Cluster] repacks it in parent-child traversal order (heap pages,
    or chunk boundaries for an already-columnar class).  The in-memory
    image is unaffected — only the disk representation (and the scan
    traffic model) changes.  The derived image is rewritten afterwards
    so the vacuum's checkpoint does not invalidate it.
    @raise Invalid_argument when the database has no attached disk store.
    @raise Soqm_disk.Store.Format_error for a class not in the schema. *)

val checkpoint : t -> unit
(** Flush dirty pages, fsync the segments and truncate the WAL of the
    attached disk store, then rewrite [derived.idx] to match the new
    checkpoint sequence; no-op for in-memory databases. *)

val close : t -> unit
(** Checkpoint (including the derived image) and detach the disk store,
    if any.  The database remains usable in memory; further DML is no
    longer made durable. *)

val set_jobs : t -> int -> unit
(** Set {!field-t.default_jobs} (clamped to at least 1). *)

val counters : t -> Counters.t
(** The store's cost counters. *)

val with_fresh_counters : t -> (unit -> 'a) -> 'a * Counters.t
(** Run a computation with counters reset, returning its result and the
    counters accumulated during the run. *)
