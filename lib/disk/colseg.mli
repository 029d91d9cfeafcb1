(** Columnar segment files: the on-disk home of a vacuumed class.

    [<cls>.col] holds the class's records as framed {!Column} chunks
    (length prefix + CRC-32 trailer per chunk, ascending disjoint OID
    ranges); [<cls>.dead] is a checksummed tombstone sidecar recording
    rows deleted since the vacuum (rewritten at checkpoint, covered by
    the WAL in between).  Both are replaced atomically (temp + rename),
    so a reader sees either the old or the new file — anything else is
    corruption and fails closed with {!Format_error} rather than
    decoding garbage.

    Heap shadows columnar: a record present in the class's heap segment
    supersedes the columnar copy with the same OID, and tombstones hide
    columnar rows entirely.  [Store] owns that merge; this module only
    serves the columnar side. *)

open Soqm_vml

type t

exception Format_error of string
(** The file exists but is foreign, truncated, checksum-damaged, or for
    the wrong class. *)

val path : dir:string -> cls:string -> string
val dead_path : dir:string -> cls:string -> string

val write :
  ?break_before:(int -> bool) ->
  dir:string ->
  cls:string ->
  (int * (string * Value.t) list) array ->
  unit
(** Encode records (ascending OID ids) into chunks and atomically replace
    [<cls>.col].  [break_before i] requests a chunk boundary before row
    index [i] — the clustering vacuum aligns chunks to parent-group
    starts so a path query decodes whole groups, not group fragments;
    boundaries inside the first 256 rows of a chunk are ignored so tiny
    groups still share chunks.  Chunks never exceed the fixed row
    budget regardless. *)

val load : counters:Counters.t -> dir:string -> cls:string -> t
(** Read and verify [<cls>.col]: every frame bound and CRC trailer is
    checked and every chunk header decoded before any row is served.
    @raise Format_error on a missing, foreign or corrupt file. *)

val remove : dir:string -> cls:string -> unit
(** Delete the class's columnar files (segment, tombstones, temps), if
    present. *)

val cls : t -> string
val row_count : t -> int

val total_bytes : t -> int
(** Sum of chunk payload bytes (the full-decode cost). *)

val meta_bytes : t -> int
(** Chunk header + oid column + directory bytes — the fixed decode cost
    of any scan, before per-column bytes. *)

val iter_ids : t -> (int -> unit) -> unit
(** All OID ids in ascending order (no column decoding, no charges). *)

val mem : t -> int -> bool

val chunk_of : t -> int -> int option
(** Index of the chunk whose OID range covers this id, if any — the
    physical unit a point lookup decodes ({!Store.locate_pages} counts
    these as "pages" for columnar rows). *)

val fetch : t -> int -> (string * Value.t) list option
(** Point lookup; decodes (and charges) the containing chunk once and
    caches it for subsequent fetches. *)

val iter_rows : t -> (int -> (string * Value.t) list -> unit) -> unit
(** Full-record scan in ascending OID order.  Charges [bytes_read] with
    every chunk's full payload and [values_decoded] with every present
    value. *)

val iter_columns :
  t -> string list -> (int -> Value.t option list -> unit) -> unit
(** Selective scan: per row, the values of exactly these properties (in
    argument order, [None] = absent).  Charges only chunk meta bytes plus
    the selected columns' extents. *)

val write_dead : dir:string -> cls:string -> (int, unit) Hashtbl.t -> unit
(** Atomically rewrite the tombstone sidecar. *)

val load_dead : dir:string -> cls:string -> (int, unit) Hashtbl.t
(** Read the tombstone sidecar (empty table when the file is absent).
    @raise Format_error on a foreign or corrupt file. *)
