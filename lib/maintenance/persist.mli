(** Persistent derived-state image: [derived.idx] in a database
    directory.

    The Db's indexes — hash / sorted / inverted index contents — and the
    statistics snapshot, serialized as one CRC-framed, atomically
    replaced file, stamped with the store's checkpoint sequence
    ([Soqm_disk.Store.checkpoint_seq]).  Maintained implication-set
    memberships are not stored: the sets are properties of the base
    data, which the open reads back ([Maintenance.attach
    ~reconcile:false]).  An image of an older format version (version 1
    also held the memberships) reads as [None].

    Consistency protocol: the writer emits the image immediately after a
    checkpoint, carrying that checkpoint's sequence.  A reader accepts
    the image only when its stamp equals the just-opened store's
    sequence — which proves the image reflects exactly the checkpointed
    base state, so replaying the store's recovered WAL tail
    ([recovered_ops]) over it yields exactly the live derived state:
    an O(dirty) open instead of an O(extent) rebuild.  On any mismatch,
    corruption or absence the image reads as [None] and the caller
    rebuilds from base data — it is a cache, never the source of
    truth. *)

open Soqm_vml

type image = {
  seq : int;  (** checkpoint sequence of the base state covered *)
  hash : (string * string * (Value.t * int list) list) list;
      (** hash indexes: (cls, prop, buckets); OIDs as bare ids of cls *)
  sorted : (string * string * (Value.t * int) array) list;
      (** sorted indexes: entries in index order *)
  text : (string * string * (string * int list) list) list;
      (** inverted indexes: (cls, prop, word postings) *)
  stats : Soqm_storage.Statistics.snapshot option;
}

val path : dir:string -> string

val write : dir:string -> image -> unit
(** Atomically replace [dir/derived.idx] (temp ∥ fsync ∥ rename). *)

val read : dir:string -> image option
(** [None] when the file is absent, foreign, truncated or fails its
    checksum — never raises on a damaged image. *)

val remove : dir:string -> unit
(** Delete the image (and any temp), if present. *)
