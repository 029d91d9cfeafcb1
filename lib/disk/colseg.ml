(* Columnar segment files: one [<cls>.col] per columnar class, holding
   the class's vacuumed records as framed column chunks, plus a
   [<cls>.dead] tombstone sidecar for rows deleted after the vacuum.

   File layout:

     "SOQM-COL" ∥ uvarint version ∥ string cls        -- header
     frames: u32le payload_len ∥ payload ∥ u32le crc32(payload)

   Both files are written whole to a temp name, fsynced, and renamed
   into place, so a reader never sees a torn file: anything that fails
   the magic, a frame bound or a CRC trailer is corruption and decoding
   fails closed ([Format_error] / [Codec.Corrupt]) rather than yielding
   partial rows.

   Chunks hold ascending, disjoint OID ranges (the vacuum feeds
   OID-sorted rows), so point lookups binary-search the chunk directory;
   a one-chunk row cache keeps repeated fetches from re-decoding. *)

open Soqm_vml

exception Format_error of string

let magic = "SOQM-COL"
let dead_magic = "SOQM-DED"
let version = 1
let chunk_rows = 1024

type t = {
  cls : string;
  chunks : Column.chunk array;
  counters : Counters.t;
  mutable cached : (int * (int, (string * Value.t) list) Hashtbl.t) option;
      (* one-chunk fetch cache: (chunk index, id -> props) *)
}

let path ~dir ~cls = Filename.concat dir (cls ^ ".col")
let dead_path ~dir ~cls = Filename.concat dir (cls ^ ".dead")

(* ------------------------------------------------------------------ *)
(* framing                                                             *)
(* ------------------------------------------------------------------ *)

let add_u32le buf n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Buffer.add_bytes buf b

let get_u32le s off = Int32.to_int (String.get_int32_le s off) land 0xffffffff

let add_frame buf payload =
  add_u32le buf (String.length payload);
  Buffer.add_string buf payload;
  add_u32le buf (Wal.crc32 payload)

(* Atomic whole-file replacement: temp ∥ fsync ∥ rename. *)
let write_file path contents =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.unsafe_of_string contents in
      let rec go off =
        if off < Bytes.length b then
          go (off + Unix.write fd b off (Bytes.length b - off))
      in
      go 0;
      Unix.fsync fd);
  Unix.rename tmp path

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* the columnar segment                                                *)
(* ------------------------------------------------------------------ *)

(* Minimum rows a chunk must reach before a requested boundary may cut
   it: traversal groups smaller than this share a chunk, so boundary
   alignment cannot degenerate into per-group chunks. *)
let min_aligned_rows = 256

let encode_file ?break_before ~cls rows =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  Codec.write_uvarint buf version;
  Codec.write_string buf cls;
  let n = Array.length rows in
  let off = ref 0 in
  while !off < n do
    let len =
      let hard = min chunk_rows (n - !off) in
      match break_before with
      | None -> hard
      | Some cut ->
        (* prefer the last requested boundary inside the window, once the
           chunk is big enough that alignment beats fixed slicing *)
        let best = ref hard in
        for i = min_aligned_rows to hard - 1 do
          if cut (!off + i) then best := i
        done;
        !best
    in
    add_frame buf (Column.encode (Array.sub rows !off len));
    off := !off + len
  done;
  Buffer.contents buf

let write ?break_before ~dir ~cls rows =
  write_file (path ~dir ~cls) (encode_file ?break_before ~cls rows)

let check_header ~path ~cls s =
  let m = String.length magic in
  if not (String.length s >= m && String.equal (String.sub s 0 m) magic) then
    raise (Format_error (path ^ ": not a soqm columnar segment (bad magic)"));
  let c = Codec.cursor ~pos:m s in
  let v = Codec.read_uvarint c in
  if v <> version then
    raise
      (Format_error
         (Printf.sprintf "%s: unsupported columnar version %d (want %d)" path v
            version));
  let hdr_cls = Codec.read_string c in
  if not (String.equal hdr_cls cls) then
    raise
      (Format_error
         (Printf.sprintf "%s: columnar segment holds class %s, expected %s"
            path hdr_cls cls));
  Codec.pos c

let load ~counters ~dir ~cls =
  let path = path ~dir ~cls in
  let s =
    try read_file path
    with Sys_error msg -> raise (Format_error (path ^ ": " ^ msg))
  in
  try
    let pos = ref (check_header ~path ~cls s) in
    let limit = String.length s in
    let chunks = ref [] in
    while !pos < limit do
      if !pos + 4 > limit then
        raise (Codec.Corrupt "truncated chunk length prefix");
      let len = get_u32le s !pos in
      if len < 0 || !pos + 4 + len + 4 > limit then
        raise (Codec.Corrupt "truncated chunk frame");
      let payload = String.sub s (!pos + 4) len in
      let crc = get_u32le s (!pos + 4 + len) in
      if crc <> Wal.crc32 payload then
        raise (Codec.Corrupt "chunk checksum mismatch");
      chunks := Column.decode payload :: !chunks;
      pos := !pos + 4 + len + 4
    done;
    let chunks = Array.of_list (List.rev !chunks) in
    Array.iteri
      (fun i ch ->
        if i > 0 then
          let prev = chunks.(i - 1) in
          if
            prev.Column.nrows > 0 && ch.Column.nrows > 0
            && prev.Column.ids.(prev.Column.nrows - 1) >= ch.Column.ids.(0)
          then raise (Codec.Corrupt "chunk oid ranges out of order"))
      chunks;
    { cls; chunks; counters; cached = None }
  with Codec.Corrupt msg -> raise (Format_error (path ^ ": " ^ msg))

let remove ~dir ~cls =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path ~dir ~cls; dead_path ~dir ~cls; path ~dir ~cls ^ ".tmp";
      dead_path ~dir ~cls ^ ".tmp" ]

let cls t = t.cls
let row_count t = Array.fold_left (fun acc ch -> acc + ch.Column.nrows) 0 t.chunks

let total_bytes t =
  Array.fold_left
    (fun acc ch -> acc + String.length ch.Column.payload)
    0 t.chunks

(* Bytes any scan must decode before touching columns: chunk headers,
   oid columns and directories. *)
let meta_bytes t =
  Array.fold_left (fun acc ch -> acc + ch.Column.meta_bytes) 0 t.chunks

let iter_ids t f =
  Array.iter (fun ch -> Array.iter f ch.Column.ids) t.chunks

let find_chunk t id =
  let n = Array.length t.chunks in
  let rec go lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let ch = t.chunks.(mid) in
      if ch.Column.nrows = 0 then None
      else if id < ch.Column.ids.(0) then go lo mid
      else if id > ch.Column.ids.(ch.Column.nrows - 1) then go (mid + 1) hi
      else Some (mid, ch)
  in
  go 0 n

let chunk_of t id =
  match find_chunk t id with Some (i, _) -> Some i | None -> None

let mem t id =
  match find_chunk t id with
  | None -> false
  | Some (_, ch) ->
    let ids = ch.Column.ids in
    let rec go lo hi =
      lo < hi
      &&
      let mid = (lo + hi) / 2 in
      if ids.(mid) = id then true
      else if id < ids.(mid) then go lo mid
      else go (mid + 1) hi
    in
    go 0 (Array.length ids)

let charge_chunk_rows t ch =
  Counters.add t.counters Bytes_read (String.length ch.Column.payload);
  let values = ref ch.Column.nrows in
  Array.iter
    (fun col -> values := !values + List.length (Column.presence ch col))
    ch.Column.columns;
  Counters.add t.counters Values_decoded !values

let fetch t id =
  match find_chunk t id with
  | None -> None
  | Some (i, ch) ->
    let table =
      match t.cached with
      | Some (j, table) when j = i -> table
      | _ ->
        let table = Hashtbl.create (2 * ch.Column.nrows) in
        charge_chunk_rows t ch;
        Array.iter
          (fun (id, props) -> Hashtbl.replace table id props)
          (Column.rows ch);
        t.cached <- Some (i, table);
        table
    in
    Hashtbl.find_opt table id

(* Full-record scan in ascending OID order; decodes (and charges) every
   column of every chunk. *)
let iter_rows t f =
  Array.iter
    (fun ch ->
      charge_chunk_rows t ch;
      Array.iter (fun (id, props) -> f id props) (Column.rows ch))
    t.chunks

(* Selective scan: decode only [props], yielding per-row (id, present
   values in [props] order).  Charges the chunk meta bytes plus the
   selected columns' extents — the columnar win the bench gates on. *)
let iter_columns t props f =
  Array.iter
    (fun ch ->
      let cols =
        List.map
          (fun name ->
            match Column.find ch name with
            | Some col -> Some (Column.read_column ch col)
            | None -> None)
          props
      in
      let bytes =
        List.fold_left
          (fun a name ->
            match Column.find ch name with
            | Some col -> a + col.Column.clen
            | None -> a)
          ch.Column.meta_bytes props
      in
      Counters.add t.counters Bytes_read bytes;
      let values = ref ch.Column.nrows in
      List.iter
        (function
          | Some vs ->
            Array.iter (function Some _ -> incr values | None -> ()) vs
          | None -> ())
        cols;
      Counters.add t.counters Values_decoded !values;
      Array.iteri
        (fun i id ->
          f id
            (List.map
               (function Some vs -> vs.(i) | None -> None)
               cols))
        ch.Column.ids)
    t.chunks

(* ------------------------------------------------------------------ *)
(* tombstone sidecar                                                   *)
(* ------------------------------------------------------------------ *)

let write_dead ~dir ~cls dead =
  let ids = List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) dead []) in
  let body = Buffer.create 256 in
  Buffer.add_string body dead_magic;
  Codec.write_uvarint body version;
  Codec.write_string body cls;
  Codec.write_uvarint body (List.length ids);
  List.iter (Codec.write_uvarint body) ids;
  let body = Buffer.contents body in
  let buf = Buffer.create (String.length body + 4) in
  Buffer.add_string buf body;
  add_u32le buf (Wal.crc32 body);
  write_file (dead_path ~dir ~cls) (Buffer.contents buf)

let load_dead ~dir ~cls =
  let path = dead_path ~dir ~cls in
  let dead = Hashtbl.create 16 in
  if Sys.file_exists path then (
    let s =
      try read_file path
      with Sys_error msg -> raise (Format_error (path ^ ": " ^ msg))
    in
    try
      if String.length s < 4 then raise (Codec.Corrupt "truncated tombstones");
      let body = String.sub s 0 (String.length s - 4) in
      if get_u32le s (String.length s - 4) <> Wal.crc32 body then
        raise (Codec.Corrupt "tombstone checksum mismatch");
      let m = String.length dead_magic in
      if not (String.length body >= m && String.equal (String.sub body 0 m) dead_magic)
      then raise (Format_error (path ^ ": not a soqm tombstone file"));
      let c = Codec.cursor ~pos:m body in
      let v = Codec.read_uvarint c in
      if v <> version then
        raise
          (Format_error (Printf.sprintf "%s: unsupported version %d" path v));
      let hdr_cls = Codec.read_string c in
      if not (String.equal hdr_cls cls) then
        raise
          (Format_error
             (Printf.sprintf "%s: tombstones for class %s, expected %s" path
                hdr_cls cls));
      let n = Codec.read_uvarint c in
      for _ = 1 to n do
        Hashtbl.replace dead (Codec.read_uvarint c) ()
      done
    with Codec.Corrupt msg -> raise (Format_error (path ^ ": " ^ msg)));
  dead
