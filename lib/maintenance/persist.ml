(* The persistent derived-state image: [derived.idx] inside a database
   directory, holding every index the Db keeps in memory (hash, sorted,
   inverted) and a statistics snapshot, stamped with the store's
   checkpoint sequence.  The maintained implication sets are not in it:
   their members are base data (the set properties), which the open
   reads back.

   Layout:

     "SOQM-IDX" ∥ u32le len ∥ payload ∥ u32le crc32(payload)

   — one frame over the whole body, same framing discipline as the WAL
   and the columnar segments, written atomically (temp ∥ fsync ∥
   rename).  The payload is codec-encoded; OIDs are stored as bare ids,
   the class being implied by the section.  Version 1 images also
   carried the set memberships; they read as unusable.

   The stamp is the consistency protocol: the image is valid iff its
   sequence equals the meta file's checkpoint sequence, which proves it
   reflects exactly the checkpointed base state — the WAL tail the open
   replays on the base is then the exact delta to replay on the derived
   state too.  Any mismatch, absence or corruption reads as [None] and
   the caller falls back to rebuilding from base data; the image is a
   pure cache, never the source of truth. *)

open Soqm_vml
module Codec = Soqm_disk.Codec

let magic = "SOQM-IDX"
let version = 2
let file = "derived.idx"
let path ~dir = Filename.concat dir file

type image = {
  seq : int;
  hash : (string * string * (Value.t * int list) list) list;
      (* (cls, prop, buckets); bucket oids are ids of cls *)
  sorted : (string * string * (Value.t * int) array) list;
      (* entries in index order *)
  text : (string * string * (string * int list) list) list;
      (* (cls, prop, postings); posting keys are ids of cls *)
  stats : Soqm_storage.Statistics.snapshot option;
}

(* ------------------------------------------------------------------ *)
(* encode                                                              *)
(* ------------------------------------------------------------------ *)

let add_u32le buf n =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Buffer.add_bytes buf b

let write_float buf f =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float f);
  Buffer.add_bytes buf b

let read_float c =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i (Char.chr (Codec.read_byte c))
  done;
  Int64.float_of_bits (Bytes.get_int64_le b 0)

let write_list buf f xs =
  Codec.write_uvarint buf (List.length xs);
  List.iter (f buf) xs

let read_list c f = List.init (Codec.read_uvarint c) (fun _ -> f c)

let write_ids buf ids = write_list buf Codec.write_uvarint ids
let read_ids c = read_list c Codec.read_uvarint

let encode img =
  let buf = Buffer.create 65536 in
  Codec.write_uvarint buf version;
  Codec.write_uvarint buf img.seq;
  write_list buf
    (fun buf (cls, prop, buckets) ->
      Codec.write_string buf cls;
      Codec.write_string buf prop;
      write_list buf
        (fun buf (v, ids) ->
          Codec.write_value buf v;
          write_ids buf ids)
        buckets)
    img.hash;
  write_list buf
    (fun buf (cls, prop, entries) ->
      Codec.write_string buf cls;
      Codec.write_string buf prop;
      Codec.write_uvarint buf (Array.length entries);
      Array.iter
        (fun (v, id) ->
          Codec.write_value buf v;
          Codec.write_uvarint buf id)
        entries)
    img.sorted;
  write_list buf
    (fun buf (cls, prop, postings) ->
      Codec.write_string buf cls;
      Codec.write_string buf prop;
      write_list buf
        (fun buf (word, ids) ->
          Codec.write_string buf word;
          write_ids buf ids)
        postings)
    img.text;
  (match img.stats with
  | None -> Codec.write_uvarint buf 0
  | Some snap ->
    let open Soqm_storage.Statistics in
    Codec.write_uvarint buf 1;
    write_list buf
      (fun buf (cls, v) ->
        Codec.write_string buf cls;
        write_float buf v)
      snap.snap_cards;
    let write_pair_floats buf xs =
      write_list buf
        (fun buf ((cls, prop), v) ->
          Codec.write_string buf cls;
          Codec.write_string buf prop;
          write_float buf v)
        xs
    in
    write_pair_floats buf snap.snap_set_totals;
    write_pair_floats buf snap.snap_distincts;
    Codec.write_uvarint buf snap.snap_writes;
    write_float buf snap.snap_population);
  Buffer.contents buf

let write ~dir img =
  let payload = encode img in
  let buf = Buffer.create (String.length payload + 16) in
  Buffer.add_string buf magic;
  add_u32le buf (String.length payload);
  Buffer.add_string buf payload;
  add_u32le buf (Soqm_disk.Wal.crc32 payload);
  let out = path ~dir in
  let tmp = out ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let s = Buffer.contents buf in
      let b = Bytes.unsafe_of_string s in
      let rec go off =
        if off < Bytes.length b then
          go (off + Unix.write fd b off (Bytes.length b - off))
      in
      go 0;
      Unix.fsync fd);
  Unix.rename tmp out

let remove ~dir =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path ~dir; path ~dir ^ ".tmp" ]

(* ------------------------------------------------------------------ *)
(* decode                                                              *)
(* ------------------------------------------------------------------ *)

let get_u32le s off = Int32.to_int (String.get_int32_le s off) land 0xffffffff

let decode payload =
  let c = Codec.cursor payload in
  let v = Codec.read_uvarint c in
  if v <> version then raise (Codec.Corrupt "unsupported derived-image version");
  let seq = Codec.read_uvarint c in
  let hash =
    read_list c (fun c ->
        let cls = Codec.read_string c in
        let prop = Codec.read_string c in
        let buckets =
          read_list c (fun c ->
              let v = Codec.read_value c in
              (v, read_ids c))
        in
        (cls, prop, buckets))
  in
  let sorted =
    read_list c (fun c ->
        let cls = Codec.read_string c in
        let prop = Codec.read_string c in
        let n = Codec.read_uvarint c in
        let entries =
          Array.init n (fun _ ->
              let v = Codec.read_value c in
              (v, Codec.read_uvarint c))
        in
        (cls, prop, entries))
  in
  let text =
    read_list c (fun c ->
        let cls = Codec.read_string c in
        let prop = Codec.read_string c in
        let postings =
          read_list c (fun c ->
              let w = Codec.read_string c in
              (w, read_ids c))
        in
        (cls, prop, postings))
  in
  let stats =
    match Codec.read_uvarint c with
    | 0 -> None
    | 1 ->
      let cards =
        read_list c (fun c ->
            let cls = Codec.read_string c in
            (cls, read_float c))
      in
      let pair_floats c =
        read_list c (fun c ->
            let cls = Codec.read_string c in
            let prop = Codec.read_string c in
            ((cls, prop), read_float c))
      in
      let totals = pair_floats c in
      let distincts = pair_floats c in
      let writes = Codec.read_uvarint c in
      let population = read_float c in
      Some
        {
          Soqm_storage.Statistics.snap_cards = cards;
          snap_set_totals = totals;
          snap_distincts = distincts;
          snap_writes = writes;
          snap_population = population;
        }
    | _ -> raise (Codec.Corrupt "bad stats flag")
  in
  { seq; hash; sorted; text; stats }

(* A pure cache: any defect — absence, foreign file, bad frame, CRC
   mismatch, truncated body — reads as [None] and the caller rebuilds. *)
let read ~dir =
  let p = path ~dir in
  if not (Sys.file_exists p) then None
  else
    try
      let s = In_channel.with_open_bin p In_channel.input_all in
      let m = String.length magic in
      if not (String.length s >= m + 8 && String.equal (String.sub s 0 m) magic)
      then None
      else
        let len = get_u32le s m in
        if len < 0 || m + 4 + len + 4 <> String.length s then None
        else
          let payload = String.sub s (m + 4) len in
          if get_u32le s (m + 4 + len) <> Soqm_disk.Wal.crc32 payload then None
          else Some (decode payload)
    with Codec.Corrupt _ | Sys_error _ -> None
