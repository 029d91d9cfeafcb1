(** Incremental knowledge maintenance (Section 5.3 of the paper).

    The optimizer's semantic knowledge — implication sets such as
    [Document.largeParagraphs], inverse links, index contents and the
    statistics behind the cost model — is derived from base data, so DML
    must keep it consistent.  Instead of rebuilding after every write,
    this module {e attaches} to an {!Soqm_vml.Object_store}'s change
    events and routes each one through registered maintainers:

    - {b hash / sorted / inverted indexes} get point inserts, deletes and
      posting-diff replaces ([Inverted_index.replace]);
    - {b implication sets} are compiled straight from
      [Equivalence.Implication] specs whose consequent has the shape
      [x IS-IN target(x).set_prop] — the antecedent is re-evaluated for
      the touched object and its membership moved between targets;
    - {b statistics} receive cheap exact deltas (cardinalities, fanout
      totals); once accumulated writes cross {!staleness_threshold} a
      full in-place [Statistics.recollect] runs.

    Maintenance distinguishes {e knowledge-preserving} updates (the
    normal case: all derived artifacts patched in place, cached query
    plans stay valid) from events that change the cost landscape (a
    statistics recollect) — the latter bump the {!epoch}, which the
    engine's plan cache uses to invalidate (see [Engine]). *)

open Soqm_vml
open Soqm_storage

val staleness_threshold : float
(** 0.10: the fraction of the base population that may be written
    between full statistics recollects (see [Statistics.staleness]). *)

type t

val attach :
  ?hash_indexes:Hash_index.t list ->
  ?sorted_indexes:Sorted_index.t list ->
  ?text_indexes:(string * string * Oid.t Soqm_ir.Inverted_index.t) list ->
  ?implications:Soqm_semantics.Equivalence.t list ->
  ?reconcile:bool ->
  stats:Statistics.t ->
  Object_store.t ->
  t
(** Register maintainers and subscribe to the store's change events.
    [text_indexes] entries are [(cls, prop, index)] triples.  Of the
    [implications], only [Equivalence.Implication] specs with a
    membership-shaped consequent are compiled into maintained sets; the
    rest are ignored.  Indexes and [stats] must already reflect the
    store's current contents (the caller builds them); maintained sets
    are reconciled against base data at attach time.  With
    [~reconcile:false] the set properties already in the base data are
    trusted instead: each set's member table is read back from them in
    O(owners + members), skipping the O(extent) reconcile.  The
    derived-image fast open does this — the base data's derived writes
    went through the WAL like any other, and replaying the recovered
    tail through {!observe} re-derives every member it touched.  Inverse links
    need no registration — the store itself maintains them.
    @raise Invalid_argument naming both specs when two maintained
    implications fill the same set property on a shared owner class
    (each set is kept exact for its own spec, so their union would not
    be maintained). *)

val observe : t -> Object_store.change -> unit
(** The observer attached to the store; exposed for replaying events. *)

val resync : t -> unit
(** Rebuild-from-scratch for everything this [t] owns: reconcile every
    maintained implication set against base data, recollect statistics,
    bump the epoch.  Used after bulk loads that bypass the observer. *)

val epoch : t -> int
(** Monotone counter of plan-invalidating knowledge changes.  Starts at
    0; bumped by statistics recollects (staleness-triggered or via
    {!resync}) and by explicit {!bump_epoch}. *)

val bump_epoch : t -> unit
(** Force invalidation of epoch-guarded caches, e.g. after out-of-band
    schema or specification changes. *)

val staleness : t -> float
(** Current [Statistics.staleness] of the maintained statistics. *)

val recollects : t -> int
(** Number of full statistics recollects performed so far. *)

val stats : t -> Statistics.t

val maintained_sets : t -> string list
(** Names of the implication specs compiled into maintained sets. *)

val set_members : t -> (string * (Oid.t * Oid.t) list) list
(** Every maintained set's current [(member, target)] pairs. *)
