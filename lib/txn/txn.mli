(** Multi-statement transactions with snapshot isolation.

    A {!manager} wraps a {!Soqm_core.Db.t} with a commit clock
    ({!Versions}), a readers/writer latch ({!Rwlock}) and a commit
    queue.  Transactions buffer their writes — the store is untouched
    until commit, so {!abort} discards buffers and nothing ever rolls
    back — and read at the snapshot taken by {!begin_}: their own
    buffered effects first, then the versioned state as of their
    begin timestamp.  Readers never block writers and writers never
    block readers; the only physical waits are the short exclusive
    latch during a validated commit's in-memory application, and the
    group-commit fsync.

    {!commit} is first-committer-wins: under the commit mutex the write
    set is validated against the version bookkeeping (any key committed
    past our snapshot, or a concurrent delete, refuses the commit with
    [`Conflict]); then the commit timestamp is taken, the buffered
    operations replay into the store under the exclusive latch (the
    version recorder and all maintenance observers — inverse links,
    indexes, implication sets, statistics — run inside, so derived
    writes are versioned and WAL-logged uniformly), and the WAL batch is
    enqueued on the group-commit queue.  The fsync wait happens
    {e outside} the commit mutex — that is what lets concurrent commits
    coalesce into one fsync. *)

open Soqm_vml

(** {1 Manager} *)

type manager

val manager : Soqm_core.Db.t -> manager
(** Attach transaction management to a database.  Create at most one
    manager per database (the version recorder subscribes to the store's
    change events).  Once attached, writes should flow through
    transactions; direct store writes remain coherent (each event gets
    its own timestamp) but are not atomic or durable as a group. *)

val db : manager -> Soqm_core.Db.t

val with_read : manager -> (unit -> 'a) -> 'a
(** Run [f] under the shared latch: a consistent latest-committed view
    for query execution (no commit applies mid-query).  Do not call
    transaction reads inside — the latch is not reentrant. *)

val with_write : manager -> (unit -> 'a) -> 'a
(** Run [f] under the commit mutex {e and} the exclusive latch — for
    plans that may mutate the store directly (side-effecting method
    calls the optimizer refuses).  Takes the locks in commit order, so
    concurrent validation and snapshot reads never race the mutation.
    Not reentrant; do not commit inside. *)

val clock : manager -> int
(** The newest fully applied commit timestamp. *)

val versions : manager -> Versions.t
val active_count : manager -> int

val min_active_snapshot : manager -> int
(** Oldest snapshot an active transaction holds, or {!clock} when idle
    (the pruning horizon). *)

val set_group_window : manager -> float -> unit
(** Forwarded to {!Soqm_disk.Store.set_group_window}; no-op for
    in-memory databases. *)

val prune : manager -> unit
(** Drop version-chain entries no active snapshot can reach (down to
    the one entry at or below the pruning horizon each chain still
    owes its oldest reader). *)

val set_max_chain : manager -> int option -> unit
(** Cap every per-key version chain at [n] entries (default: unbounded).
    Normally {!prune} bounds history by the oldest active snapshot; a
    stalled reader pins that horizon and lets hot-key chains grow without
    limit.  The cap trades that memory for refusal: when a chain exceeds
    it, the oldest versions are dropped and a transaction whose snapshot
    predates the truncation gets {!Versions.Snapshot_too_old} from
    {!get_prop} instead of a wrong value — abort it and retry afresh.
    Forwarded to {!Versions.set_max_chain}. *)

val maybe_prune : manager -> unit
(** {!prune}, rate-limited: fires every few commits.  Called
    automatically by {!commit}. *)

(** {1 Transactions} *)

type t

type state = Active | Committed of int | Aborted

val begin_ : manager -> t
(** Open a transaction at the current commit timestamp. *)

val begin_ts : t -> int
val state : t -> state
val is_active : t -> bool

val get_prop : t -> Oid.t -> string -> Value.t
(** Own buffered write if any, else the snapshot value.
    @raise Not_found on an object invisible at the snapshot (or deleted
    by this transaction), [Invalid_argument] on unknown property.
    @raise Versions.Snapshot_too_old when the key's history was capped
    ({!set_max_chain}) past this transaction's snapshot. *)

val exists : t -> Oid.t -> bool
val extent : t -> string -> Oid.t list
(** Snapshot extent merged with own inserts, minus own deletes,
    ascending serial. *)

val set_prop : t -> Oid.t -> string -> Value.t -> unit
(** Buffer a property write (typechecked now, applied at commit).
    @raise Not_found on an object invisible at the snapshot. *)

val insert : t -> cls:string -> (string * Value.t) list -> Oid.t
(** Buffer an object creation.  The OID is reserved immediately (so the
    transaction can reference and read its own insert); an abort leaks
    the serial, which is harmless. *)

val delete : t -> Oid.t -> unit
(** Buffer a deletion; deleting an own uncommitted insert just unbuffers
    it. *)

val commit : t -> (int, [ `Conflict of string ]) result
(** Validate, apply, group-commit.  [Ok ts] is the commit timestamp
    (read-only transactions commit trivially at their snapshot).
    [Error (`Conflict _)] means first-committer-wins refused the write
    set; the transaction is aborted — retry by running it afresh.
    Any other failure (replay, WAL flush) re-raises after aborting and
    unregistering the transaction: it never stays [Active]. *)

val abort : t -> unit
(** Discard the buffers.  Nothing was applied, so there is nothing to
    roll back — maintenance observers never saw the writes. *)

val run : manager -> (t -> 'a) -> ('a * int, [ `Conflict of string ]) result
(** [run m f] executes [f] in a fresh transaction and commits,
    re-running it (up to 8 times) when the commit
    conflicts — the auto-commit building block.  [f] must not commit or
    abort itself.  An exception from [f] aborts and re-raises. *)
