(** Execution cost accounting.

    The paper notes (Section 2.3) that, unlike attributes, methods are not
    obtained at uniform access cost; external methods in particular may
    dominate query evaluation.  Every store carries a set of counters that
    the runtime, the indexes and the physical operators charge, so that
    benchmarks can report deterministic logical costs alongside wall-clock
    time.

    The integer counters form one registry: each is a constructor of
    {!counter}, declared once with its {!family}, its JSON key and its
    report label, and charged, read, reset, copied and printed through the
    same few operations. *)

type t
(** Domain-safe: the integer counters are atomics and the method-call tally
    is mutex-guarded, so the morsel-driven executor's domains never lose
    increments. *)

(** Which activity a counter accounts.  Only [Query] counters enter
    {!total_cost}; per-run reports reset them around every execution, while
    the other families accumulate across a whole workload until reset
    explicitly. *)
type family =
  | Query  (** answering queries: runtime, indexes, physical operators *)
  | Maintenance  (** keeping derived data and the plan cache current *)
  | Storage  (** buffer pool, write-ahead log and scan decoding *)
  | Txn  (** transaction lifecycle in the MVCC layer *)
  | Knowledge  (** saturation and the bounded soundness checker *)

type counter =
  (* Query *)
  | Objects_fetched  (** objects dereferenced in the store *)
  | Property_reads
  | Index_probes
  | Tuples_produced  (** tuples produced by physical operators *)
  | Blocks_produced  (** row blocks emitted by batch operators *)
  | Slot_misses
      (** plans given up at compile time because a reference or parameter
          has no slot in the input layout; zero for well-typed queries *)
  (* Maintenance *)
  | Postings_touched
      (** access-path entries (inverted-index postings, hash/sorted index
          entries) added or removed *)
  | Implication_updates
      (** membership changes of a maintained implication set (e.g. a
          paragraph entering or leaving [Document.largeParagraphs]) *)
  | Stats_deltas  (** incremental statistics adjustments *)
  | Plan_cache_hits
  | Plan_cache_misses
  (* Storage *)
  | Pages_read  (** 4 KiB pages read from a heap segment (pool misses) *)
  | Pages_written  (** dirty pages written back (eviction or checkpoint) *)
  | Pool_hits  (** page requests served from a resident pool frame *)
  | Pool_evictions  (** resident frames reassigned by the clock hand *)
  | Wal_records  (** framed records appended to the write-ahead log *)
  | Wal_commits  (** committed WAL batches *)
  | Wal_fsyncs
      (** [fsync]s of the WAL; [Wal_fsyncs / Wal_commits] drops below 1
          when group commit coalesces concurrent committers *)
  | Bytes_read
      (** payload bytes a scan decoded: what the codec touched, not what
          the pool staged, so a columnar scan's skipped columns show *)
  | Values_decoded  (** values materialized from their storage encoding *)
  (* Txn *)
  | Txn_begins
  | Txn_commits
  | Txn_conflicts  (** commits refused by first-committer-wins validation *)
  | Txn_aborts  (** explicit aborts (conflict aborts are counted apart) *)
  (* Knowledge *)
  | Rules_derived  (** specifications produced by saturation *)
  | Rules_subsumed
      (** candidate derivations dropped as alpha-variants of a known
          specification or as trivial identities *)
  | Models_checked  (** candidate stores the bounded checker evaluated *)
  | Counterexamples_found
      (** rules refuted: a candidate store where the two sides disagree
          under naive evaluation *)

val all : counter list
(** Every counter, in declaration order. *)

val family : counter -> family

val create : unit -> t

val incr : t -> counter -> unit

val add : t -> counter -> int -> unit
(** [add t c n] charges [n] at once: set-at-a-time and batch operators
    charge a whole operator's or block's work in one go. *)

val get : t -> counter -> int

val reset : t -> family -> unit
(** Zero one family.  Resetting [Query] also clears the method-call tally
    and {!charged_cost}. *)

val snapshot : t -> t
(** Independent copy (for before/after deltas). *)

val fields : t -> family -> (string * int) list
(** [(key, value)] for every counter of the family, in declaration order;
    the key is the constructor's name in lower case (["pages_read"]). *)

val pp : family -> Format.formatter -> t -> unit
(** One [label: value] line per counter of the family, in declaration
    order.  The plan-cache counters are left out: [soqm] reports them on
    one line with the hit rate and the cache size. *)

(** {1 Method calls and cost} *)

val charge_method_call : t -> meth:string -> cost:float -> unit
(** One invocation of [meth], with its schema-declared cost weight. *)

val method_call_count : t -> string -> int

val charged_cost : t -> float
(** Sum of declared per-call costs over all method invocations — the
    deterministic "work" metric used by the experiment harness. *)

val total_cost : t -> float
(** [charged_cost] plus small uniform weights for fetches, property reads,
    probes and tuples; a single scalar summary of execution effort. *)

(** {1 Getters read by perfbench}

    Aliases of [get] under the names the seed-fixed benchmark
    ([perfbench/]) calls, so that harness builds unchanged. *)

val tuples_produced : t -> int
val pages_read : t -> int
val pool_hits : t -> int
val wal_commits : t -> int
val wal_fsyncs : t -> int
val postings_touched : t -> int
val implication_updates : t -> int
val stats_deltas : t -> int
