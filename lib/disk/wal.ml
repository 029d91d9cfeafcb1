open Soqm_vml

type op =
  | Insert of { oid : Oid.t; props : (string * Value.t) list }
  | Update of {
      oid : Oid.t;
      prop : string;
      value : Value.t;
      old_value : Value.t;
    }
  | Delete of { oid : Oid.t; props : (string * Value.t) list }

type t = {
  fd : Unix.file_descr;
  mutable bytes : int;  (* current end of the committed log *)
  counters : Counters.t;
}

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected), table-driven                        *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* ------------------------------------------------------------------ *)
(* record payloads                                                     *)
(* ------------------------------------------------------------------ *)

let write_oid buf oid =
  Codec.write_string buf (Oid.cls oid);
  Codec.write_uvarint buf (Oid.id oid)

let read_oid c =
  let cls = Codec.read_string c in
  let id = Codec.read_uvarint c in
  Oid.make ~cls ~id

let encode_op op =
  let buf = Buffer.create 64 in
  (match op with
  | Insert { oid; props } ->
    Buffer.add_char buf 'I';
    write_oid buf oid;
    Codec.write_props buf props
  | Update { oid; prop; value; old_value } ->
    Buffer.add_char buf 'V';
    write_oid buf oid;
    Codec.write_string buf prop;
    Codec.write_value buf value;
    Codec.write_value buf old_value
  | Delete { oid; props } ->
    Buffer.add_char buf 'E';
    write_oid buf oid;
    Codec.write_props buf props);
  Buffer.contents buf

(* a payload is either a framing marker or an encoded op *)
type payload = Begin | Commit | Op of op

let decode_payload s =
  if String.length s = 0 then raise (Codec.Corrupt "empty WAL payload");
  let c = Codec.cursor ~pos:1 s in
  match s.[0] with
  | 'B' -> Begin
  | 'C' -> Commit
  | 'I' ->
    let oid = read_oid c in
    let props = Codec.read_props c in
    Op (Insert { oid; props })
  | 'V' ->
    let oid = read_oid c in
    let prop = Codec.read_string c in
    let value = Codec.read_value c in
    let old_value = Codec.read_value c in
    Op (Update { oid; prop; value; old_value })
  | 'E' ->
    let oid = read_oid c in
    let props = Codec.read_props c in
    Op (Delete { oid; props })
  (* tags of logs written before pre-images existed: redo needs only the
     new values, so absent pre-images decode as Null / empty *)
  | 'U' ->
    let oid = read_oid c in
    let prop = Codec.read_string c in
    let value = Codec.read_value c in
    Op (Update { oid; prop; value; old_value = Value.Null })
  | 'D' -> Op (Delete { oid = read_oid c; props = [] })
  | t -> raise (Codec.Corrupt (Printf.sprintf "unknown WAL tag %c" t))

let add_frame buf payload =
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_le b 4 (Int32.of_int (crc32 payload));
  Buffer.add_bytes buf b;
  Buffer.add_string buf payload

(* ------------------------------------------------------------------ *)
(* recovery scan                                                       *)
(* ------------------------------------------------------------------ *)

(* Scan the raw log image, collecting batches whose Commit frame is
   intact.  Returns them with the byte offset where the committed prefix
   ends; everything after that offset is a torn tail or an uncommitted
   trailing batch. *)
let scan image =
  let len = String.length image in
  let batches = ref [] in
  let committed_end = ref 0 in
  let current = ref None in
  (* [None] outside a batch, [Some ops] inside *)
  let pos = ref 0 in
  (try
     while !pos + 8 <= len do
       let flen = Int32.to_int (String.get_int32_le image !pos) in
       if flen < 0 || !pos + 8 + flen > len then raise Exit;
       let payload = String.sub image (!pos + 8) flen in
       let crc = Int32.to_int (String.get_int32_le image (!pos + 4)) in
       if crc32 payload land 0xffffffff <> crc land 0xffffffff then raise Exit;
       (match (decode_payload payload, !current) with
       | Begin, None -> current := Some []
       | Op op, Some ops -> current := Some (op :: ops)
       | Commit, Some ops ->
         batches := List.rev ops :: !batches;
         current := None;
         committed_end := !pos + 8 + flen
       | (Begin | Op _ | Commit), _ ->
         (* framing violation: stop at the last committed point *)
         raise Exit);
       pos := !pos + 8 + flen
     done
   with Exit | Codec.Corrupt _ -> ());
  (List.rev !batches, !committed_end)

let read_file fd =
  let len = Unix.lseek fd 0 Unix.SEEK_END in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let b = Bytes.create len in
  let rec fill off =
    if off < len then
      let n = Unix.read fd b off (len - off) in
      if n = 0 then off else fill (off + n)
    else off
  in
  let got = fill 0 in
  Bytes.sub_string b 0 got

let open_log ~counters path =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  let image = read_file fd in
  let batches, committed_end = scan image in
  if committed_end < String.length image then Unix.ftruncate fd committed_end;
  ignore (Unix.lseek fd committed_end Unix.SEEK_SET);
  ({ fd; bytes = committed_end; counters }, batches)

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

let commit_many t batches =
  let buf = Buffer.create 256 in
  List.iter
    (fun ops ->
      add_frame buf "B";
      List.iter (fun op -> add_frame buf (encode_op op)) ops;
      add_frame buf "C";
      Counters.add t.counters Wal_records (List.length ops + 2);
      Counters.incr t.counters Wal_commits)
    batches;
  let s = Buffer.contents buf in
  write_all t.fd s;
  Unix.fsync t.fd;
  t.bytes <- t.bytes + String.length s;
  Counters.incr t.counters Wal_fsyncs

let commit t ops = commit_many t [ ops ]

let size t = t.bytes

let truncate t =
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  t.bytes <- 0

let close t = Unix.close t.fd
