(** One client session: a single-threaded request loop over one
    connection.

    A session holds at most one open transaction.  DML outside a
    transaction auto-commits (a single-statement transaction, retried on
    conflict); DML inside buffers until [Commit].  Queries always
    execute at latest-committed state — under the manager's shared
    latch, through the shared engine's plan cache (guarded by the
    optimizer mutex) — and never reset the store's counters.
    Transactional reads ([Get]/[Extent] inside a transaction) are
    snapshot reads.

    A dropped connection aborts the session's open transaction. *)

module Txn = Soqm_txn.Txn

type t

val create :
  mgr:Txn.manager -> engine:Soqm_core.Engine.t -> opt_m:Mutex.t -> unit -> t

val handle : t -> Protocol.request -> Protocol.response
(** Process one request (exposed for in-process tests). *)

val error_message : exn -> string option
(** The one-line message for every exception the query and read paths
    define (["parse error: …"], ["type error: …"], ["execution error:
    …"], [Snapshot_too_old], …) — what a failed request answers with and
    what the CLI prints.  [None] for an exception no path is known to
    raise: the server answers its [Printexc] rendering, the CLI lets it
    reach cmdliner with its backtrace. *)

val serve : t -> Unix.file_descr -> unit
(** Read frames until the peer closes, responding to each in order. *)
