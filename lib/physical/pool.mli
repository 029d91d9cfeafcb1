(** A reusable pool of worker domains for morsel-driven execution.

    Hand-rolled on stdlib [Domain]/[Mutex]/[Condition] (domainslib is
    not a dependency).  A pool owns up to 126 helper domains (just
    under the runtime's domain limit), {e spawned lazily}: creating a
    pool spawns nothing, and a run with [jobs = 1] executes inline on
    the caller — no domain is ever created for serial work.  Helper domains park on a condition variable
    between runs, so the spawn cost is paid once per process, not once
    per query.

    Scoped parallelism only: {!run} hands the same closure to [jobs]
    workers (the caller is worker [0], helpers are [1 .. jobs-1]) and
    returns when {e all} of them have finished.  Workers coordinate
    through the task itself — typically an [Atomic.t] morsel cursor —
    so the pool never needs a work queue.  The join is a full
    synchronization point: anything written by the workers
    happens-before the caller's next instruction, which is what lets
    multi-phase kernels (partition, then build, then probe) publish
    plain hash tables between phases. *)

type t

val create : unit -> t
(** A pool with no helper domains yet.  Runs requesting more workers
    than 127 still complete, with the excess indices never handed
    out. *)

val run : t -> jobs:int -> (int -> unit) -> unit
(** [run t ~jobs f] executes [f 0], ..., [f (jobs-1)] concurrently and
    waits for all of them.  [f 0] runs on the calling domain; helpers
    are spawned on first need and reused afterwards.  [jobs <= 1] runs
    [f 0] inline without touching the pool machinery.  A re-entrant
    [run] from inside a task degrades to inline sequential execution
    (the pool is not a scheduler).  If any worker raises, the first
    exception is re-raised on the caller — after every worker has
    finished, so no task outlives the call. *)

val helpers : t -> int
(** Helper domains spawned by this pool so far (0 until the first
    [run ~jobs:(>= 2)]). *)

val shutdown : t -> unit
(** Stop and join all helper domains.  Subsequent {!run}s respawn
    helpers on demand; calling it twice is harmless. *)

val global : unit -> t
(** The process-wide pool shared by every executor; created on first
    use, shut down via [at_exit]. *)

val total_spawned : unit -> int
(** Helper domains spawned process-wide across all pools — monotone,
    never decremented on shutdown.  Lets tests assert that serial
    ([jobs = 1]) execution spawns no domain at all. *)
