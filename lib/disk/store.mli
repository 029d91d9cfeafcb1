(** The paged disk store: heap segments + WAL + buffer pool + prefetch +
    clustered placement.

    A database directory holds one {!Segment} per schema class
    (type-clustered placement), a [meta] file (magic, format version,
    binary-encoded schema, allocation counter, columnar flags,
    checkpoint sequence) and a [wal].  Records are codec-encoded and
    addressed through an OID → (page, slot) directory rebuilt from the
    page images on open.

    {b Record format (version 2).}  Records are tagged: ['R'] inline
    records hold the whole property list; a record larger than one page
    splits into an ['H'] head plus ['C'] continuation parts — an
    overflow chain — each of which fits a page, lifting the old ~4 KB
    per-record limit.  Version-1 directories (bare untagged records)
    still open read/write with their original size limit.

    {b Clustered placement.}  Inserts place a record on (or near) the
    page of its path-expression parent — the first object-valued
    property with a declared inverse (e.g. [Paragraph.section]) — so a
    parent's children share pages and a path traversal touches few of
    them.  {!vacuum} with [~mode:`Cluster] rewrites a whole class in
    parent-child traversal order (atomically, via a temp segment +
    rename), re-clustering data inserted before the policy could group
    it.  {!locate_pages} measures the effect: distinct pages a set of
    OIDs resolves to.

    Durability protocol: {!apply} appends one Begin/ops/Commit WAL batch
    (fsynced) {e before} touching any page, then applies the operations
    to pooled pages as idempotent upserts/deletes.  Dirty pages reach the
    heap files on pool eviction and on {!checkpoint}, which flushes the
    pool, fsyncs the segments, rewrites [meta] (bumping the checkpoint
    sequence) and truncates the WAL.  {!open_dir} redoes every committed
    WAL batch over the page images and truncates torn tails, so any
    crash point replays to exactly the committed prefix; the replayed
    tail is exposed as {!recovered_ops} so derived structures
    (persistent indexes) can catch up by delta instead of rebuilding.

    Scans read pages in order through the buffer pool; with
    [~prefetch:true] a helper domain from the PR-4 {!Soqm_physical.Pool}
    reads ahead of the consumer inside a small window, overlapping
    segment I/O with record decoding.  Prefetch auto-disables on hosts
    without a second core ({!prefetch_usable}), where the domain handoff
    costs more than it overlaps. *)

open Soqm_vml

exception Format_error of string
(** Missing/foreign/corrupt database directory, or (version-1 stores
    only) a record too large for a 4 KiB page. *)

exception Locked of string
(** The directory's [lock] file is held by another process.  {!create}
    and {!open_dir} take a POSIX record lock on [dir/lock] for the
    store's lifetime; a second process fails fast with this exception
    (the message names the holder's pid).  The kernel drops the lock
    when the holder dies, so a crashed process never wedges the
    database. *)

type t

val create :
  ?pool_pages:int -> ?counters:Counters.t -> schema:Schema.t -> string -> t
(** Initialize a database directory (created if needed; stale database
    files of a previous store in the same directory are removed).
    [pool_pages] sizes the buffer pool (default 256 frames). *)

val open_dir : ?pool_pages:int -> ?counters:Counters.t -> string -> t
(** Open an existing directory: read [meta], rebuild the OID directory
    from the page images, then redo committed WAL batches and truncate
    any torn tail.  @raise Format_error when the directory does not hold
    a database of the supported version. *)

val close : ?checkpoint:bool -> t -> unit
(** Close all files, after a {!checkpoint} unless [~checkpoint:false]. *)

val checkpoint : t -> unit
(** Flush dirty pages, fsync segments, rewrite [meta] (bumping
    {!checkpoint_seq}), truncate the WAL. *)

(** {1 Data} *)

val apply : t -> Wal.op list -> unit
(** Commit one DML batch: WAL append + fsync, then page application. *)

val apply_group : t -> Wal.op list -> unit
(** Commit one DML batch through the group-commit queue
    ({!Group_commit}): concurrent callers coalesce into a single WAL
    write + fsync.  Returns once the batch is durable {e and} applied to
    the pooled pages.  Equivalent to {!apply} for a lone caller. *)

val enqueue_group : t -> Wal.op list -> Group_commit.ticket
(** Reserve the batch's place in the durable order without waiting.
    Call while holding whatever lock serializes commit decisions (the
    transaction manager's commit mutex), so WAL order matches commit
    timestamp order; then release that lock and {!wait_group}. *)

val wait_group : t -> Group_commit.ticket -> unit
(** Block until an enqueued batch is durable and applied, leading the
    flush if no other committer is. *)

val set_group_window : t -> float -> unit
(** Group-commit coalescing window in seconds (default 0): the flush
    leader waits this long for more committers before fsyncing. *)

val fetch : t -> Oid.t -> (string * Value.t) list
(** Read one record through the buffer pool.  @raise Not_found. *)

val mem : t -> Oid.t -> bool

val extent : t -> string -> Oid.t list
(** Live OIDs of a class in allocation order (ascending serial). *)

val scan :
  ?prefetch:bool -> t -> string -> (Oid.t * (string * Value.t) list) list * int
(** Decode a whole class extent in page order, returning records sorted
    by allocation order and the number of pages touched. *)

val scan_all :
  ?prefetch:bool -> t -> (Oid.t * (string * Value.t) list) list * int
(** Every record of every class, in global allocation order — the
    import feed for {!Soqm_vml.Object_store.make_dump}. *)

val scan_cost : ?prefetch:bool -> t -> string -> int * int
(** Drive a class's page sequence through the buffer pool without
    decoding (charged to the pool counters like any other access), plus
    the byte side of the traffic model: [(pages, bytes)] where bytes is whole pages for a row-slotted class and chunk
    meta (header + oid column + directory) for a columnar one.  Charges
    the bytes to [Counters.Bytes_read] — the [bytes=] column of
    [explain --analyze]. *)

val locate_pages : t -> Oid.t list -> int
(** Distinct physical units a point-fetch of these OIDs would touch:
    heap pages (overflow parts included) for heap-resident records, the
    containing column chunk for columnar rows.  The page-locality
    measure the clustering experiments report — the same path query's
    OID set lands on far fewer units after a clustering vacuum. *)

val scan_columns :
  t -> string -> string list -> (Oid.t * Value.t option list) list
(** Selective scan: per live row, the values of exactly these properties
    (argument order, [None] = absent), sorted by OID serial.  Columnar
    classes decode only the named columns (charging their byte extents);
    row-slotted classes must decode whole records. *)

val vacuum : ?mode:[ `Columnar | `Cluster ] -> t -> string -> int
(** Rewrite one class's base image; returns the rows rewritten.  Both
    modes end with a full {!checkpoint} and are crash-safe (segments are
    replaced atomically; the WAL tail redoes identically over either
    image).

    [`Columnar] (default, the PR-8 behaviour): rewrite the class as a
    columnar segment (dictionary-encoded column chunks) and empty its
    heap; the class is flagged in [meta] so reopens load the columnar
    image.  Subsequent DML lands in the heap and shadows the columnar
    rows until the next vacuum folds it in.

    [`Cluster]: rewrite in parent-child traversal order.  For a heap
    class the pages are repacked so each parent's children are
    contiguous (and overflow chains compacted); for a columnar class the
    chunks are rewritten with boundaries aligned to parent-group starts.
    @raise Format_error for a class not in the schema, or a clustering
    vacuum on a version-1 store. *)

val bulk_load :
  t -> next_id:int -> (Oid.t * (string * Value.t) list) list -> unit
(** Write a base image (no WAL records) and {!checkpoint}.  Used by
    [Db.save] to export an in-memory store. *)

(** {1 Introspection} *)

val dir : t -> string
val schema : t -> Schema.t
val counters : t -> Counters.t
val next_id : t -> int
val data_pages : t -> string -> int
(** Allocated data pages of one class (including pool-resident pages not
    yet flushed). *)

val total_data_pages : t -> int

val is_columnar : t -> string -> bool
(** Whether the class's base image lives in a columnar segment. *)

val columnar_classes : t -> string list

val columnar_bytes : t -> string -> int
(** Chunk payload bytes of the class's columnar segment (0 when not
    columnar). *)

val columnar_rows : t -> string -> int
(** Rows in the columnar base image (including shadowed/tombstoned
    ones). *)

val columnar_tombstones : t -> string -> int
(** Columnar rows deleted since the last vacuum. *)

val overflow_chains : t -> string -> int
(** Heap records of this class currently stored as overflow chains
    (head + continuations) rather than inline. *)

val clustering_parent : t -> string -> string option
(** The property the placement policy clusters this class by (the first
    object-valued property with a declared inverse), if any. *)

val set_placement : t -> bool -> unit
(** Enable/disable parent-hint placement for subsequent inserts
    (enabled by default; the clustering experiments disable it to
    measure the unclustered baseline). *)

val placement_enabled : t -> bool

val prefetch_usable : unit -> bool
(** Whether scan prefetch can help on this host (a second core is
    available).  When false, [~prefetch:true] scans silently run the
    plain single-domain loop. *)

val wal_bytes : t -> int
val pool_pages : t -> int

val checkpoint_seq : t -> int
(** Monotone checkpoint sequence number, persisted in [meta].  External
    structures derived from the store (the persistent index image) stamp
    themselves with this; on open, a stamp equal to the meta's sequence
    proves the image covers exactly the checkpointed state, so only
    {!recovered_ops} need replaying on top. *)

val recovered_batches : t -> int
(** Committed WAL batches redone by {!open_dir}. *)

val recovered_ops : t -> Wal.op list
(** The operations {!open_dir} replayed from the WAL tail, in commit
    order — the exact delta between the last checkpoint and the opened
    state.  Empty after a clean shutdown.  Update ops carry their
    pre-images ([old_value]), so index maintenance can be replayed
    without re-reading the old record versions. *)
