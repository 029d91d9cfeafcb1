(** Leader/follower group commit: coalesce concurrent WAL batches into a
    single write + fsync.

    Committers {!enqueue} their batch (cheap, preserves commit order —
    call it while still holding whatever lock orders commits) and then
    {!wait} for durability outside that lock.  The first waiter whose
    batch is unflushed becomes the {e leader}: it drains every queued
    batch and hands the group, in enqueue order, to the [flush]
    callback; followers park on a condition variable.  Batches enqueued
    while a leader is flushing are picked up by the next leader, so
    under concurrent committers several batches share one fsync.

    The WAL file itself stays single-writer: only one leader is ever
    inside [flush]. *)

type t

type ticket
(** A committed batch's position in the durable order. *)

val create : flush:(Wal.op list list -> unit) -> unit -> t
(** [flush batches] must make every batch durable (one
    {!Wal.commit_many}) and apply it; it runs on exactly one domain at a
    time.  The queue starts with a zero coalescing window; see
    {!set_window}. *)

val enqueue : t -> Wal.op list -> ticket
(** Append one batch to the durable order. *)

val wait : t -> ticket -> unit
(** Block until the batch is durable, becoming the flush leader if no
    one else is.  If the flush of the group containing this ticket
    raised (WAL write or fsync failure), re-raises that exception —
    every waiter in the failed group sees it, not just the leader. *)

val submit : t -> Wal.op list -> unit
(** [enqueue] then [wait] — for callers with no external commit-order
    lock. *)

val set_window : t -> float -> unit
(** Coalescing window in seconds (clamped to >= 0): the leader sleeps
    this long before draining the queue, trading a little commit latency
    for fewer fsyncs under load. *)

val window : t -> float

val pending : t -> int
(** Batches currently queued and not yet taken by a leader. *)
