open Soqm_vml
module Pool = Soqm_physical.Pool

exception Format_error of string
exception Locked of string

let format_error fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

(* Where a record lives: head page/slot, plus the pages/slots of its
   overflow continuation parts in chain order (empty for inline
   records). *)
type loc = {
  mutable lpage : int;
  mutable lslot : int;
  mutable lparts : (int * int) array;
}

type t = {
  dir : string;
  schema : Schema.t;
  tagged : bool;
      (* version-2 record layout: tagged records with overflow chains;
         version-1 stores keep the bare layout (and its size limit) *)
  counters : Counters.t;
  pool : Buffer_pool.t;
  wal : Wal.t;
  lockfd : Unix.file_descr;
  segments : (string, Segment.t) Hashtbl.t;
  locs : (Oid.t, loc) Hashtbl.t;
  alloc : (string, int) Hashtbl.t;  (* cls -> allocated data pages *)
  fill : (string, int) Hashtbl.t;  (* cls -> current append page *)
  placement : Placement.t;
  hints : (string * int, int) Hashtbl.t;
      (* (cls, root ancestor id) -> page that last took one of the
         root's descendants; the insert-time clustering hint *)
  cfill : (string, int) Hashtbl.t;
      (* cls -> the page new roots pack onto: small sibling groups
         (a document's handful of sections) share it instead of each
         opening a near-empty page of their own; distinct from [fill]
         so unparented inserts never interleave into clusters *)
  roots : (string * int, Oid.t) Hashtbl.t;
      (* (cls, id) -> root ancestor along the placement-parent path
         (paragraph -> section -> document); memoized so resolving a
         child's cluster root costs one lookup, not a record read per
         ancestor *)
  mutable place_by_parent : bool;
  (* columnar side: flagged classes keep their vacuumed base image in a
     [Colseg]; the heap segment holds only post-vacuum DML (heap shadows
     columnar), and [dead] tombstones hide deleted columnar rows *)
  columnar : (string, unit) Hashtbl.t;
  cols : (string, Colseg.t) Hashtbl.t;
  dead : (string, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable next_id : int;
  mutable ckpt_seq : int;
  mutable recovered : int;
  mutable tail_ops : Wal.op list;
  mutable group : Group_commit.t option;
  m : Mutex.t;
}

let meta_magic = "SOQM-DISK"
let meta_version = 2
let meta_file dir = Filename.concat dir "meta"
let wal_file dir = Filename.concat dir "wal"
let lock_file dir = Filename.concat dir "lock"

(* POSIX record lock on [dir/lock]: held for the store's lifetime,
   released by [close] and — crucially — by the kernel when the process
   dies, so a crash never leaves a stale lock behind.  The lock is
   per-process (fcntl semantics), so the same process may reopen the
   directory after [close] (the crash-recovery tests do), while a second
   process fails fast with {!Locked}. *)
let acquire_lock dir =
  let path = lock_file dir in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  try
    Unix.lockf fd Unix.F_TLOCK 0;
    (* record the holder for the error message a second process sees *)
    Unix.ftruncate fd 0;
    ignore (Unix.lseek fd 0 Unix.SEEK_SET);
    let pid = Printf.sprintf "%d\n" (Unix.getpid ()) in
    ignore (Unix.write_substring fd pid 0 (String.length pid));
    fd
  with Unix.Unix_error ((EAGAIN | EACCES), _, _) ->
    let holder =
      try
        let ic = open_in path in
        let line =
          Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)
        in
        Printf.sprintf " (held by pid %s)" (String.trim line)
      with _ -> ""
    in
    Unix.close fd;
    raise
      (Locked
         (Printf.sprintf "%s: database is locked by another process%s" dir
            holder))

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let allocated t cls = Option.value ~default:0 (Hashtbl.find_opt t.alloc cls)

let dead_tbl t cls =
  match Hashtbl.find_opt t.dead cls with
  | Some d -> d
  | None ->
    let d = Hashtbl.create 16 in
    Hashtbl.replace t.dead cls d;
    d

(* A columnar row is live unless tombstoned or shadowed by a heap copy
   (post-vacuum updates re-insert into the heap; the heap always wins). *)
let col_live t cls id =
  (not (Hashtbl.mem (dead_tbl t cls) id))
  && not (Hashtbl.mem t.locs (Oid.make ~cls ~id))

(* ------------------------------------------------------------------ *)
(* meta file                                                           *)
(* ------------------------------------------------------------------ *)

let write_meta ~dir ~version ~schema ~next_id ~columnar ~ckpt_seq =
  let buf = Buffer.create 512 in
  Buffer.add_string buf meta_magic;
  Codec.write_uvarint buf version;
  Codec.write_uvarint buf next_id;
  Codec.write_schema buf schema;
  (* the columnar-class list rides after the schema; metas written before
     columnar segments existed simply end here, which reads as "none" *)
  Codec.write_uvarint buf (List.length columnar);
  List.iter (Codec.write_string buf) (List.sort String.compare columnar);
  (* the checkpoint sequence rides after the columnar list: it stamps
     which checkpoint the derived-state image on disk belongs to *)
  Codec.write_uvarint buf ckpt_seq;
  let tmp = meta_file dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf);
  Sys.rename tmp (meta_file dir)

let read_meta dir =
  let path = meta_file dir in
  if not (Sys.file_exists path) then
    format_error "%s: not a soqm database directory (no meta file)" dir;
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  if
    not
      (String.length s >= String.length meta_magic
      && String.equal (String.sub s 0 (String.length meta_magic)) meta_magic)
  then format_error "%s: not a soqm database (bad meta magic)" dir;
  try
    let c = Codec.cursor ~pos:(String.length meta_magic) s in
    let v = Codec.read_uvarint c in
    if v < 1 || v > meta_version then
      format_error "%s: unsupported database version %d (want <= %d)" dir v
        meta_version;
    let next_id = Codec.read_uvarint c in
    let schema = Codec.read_schema c in
    let columnar =
      if Codec.pos c >= String.length s then [] (* pre-columnar meta *)
      else
        let n = Codec.read_uvarint c in
        List.init n (fun _ -> Codec.read_string c)
    in
    let ckpt_seq =
      if Codec.pos c >= String.length s then 0 (* pre-sequence meta *)
      else Codec.read_uvarint c
    in
    (schema, next_id, columnar, v, ckpt_seq)
  with Codec.Corrupt msg -> format_error "%s: corrupt meta file (%s)" dir msg

(* ------------------------------------------------------------------ *)
(* record codec                                                        *)
(* ------------------------------------------------------------------ *)

(* Version-1 records are a bare [uvarint id ∥ props] and must fit one
   page.  Version-2 records are tagged:

     'R' ∥ uvarint id ∥ props-bytes                      inline
     'H' ∥ uvarint id ∥ uvarint nparts ∥ uvarint total ∥ slice   head
     'C' ∥ uvarint id ∥ uvarint seq ∥ slice              continuation

   An oversized record splits its props-bytes across a head and
   [nparts - 1] continuations (seq 1..nparts-1); [total] is the full
   props-bytes length, validated on assembly.  Every part fits a page,
   lifting the per-record size limit. *)

let part_overhead = 16 (* tag + id + nparts/seq + total, conservatively *)
let max_part = Page.capacity - part_overhead

(* Encode one record as the list of page-sized parts to place. *)
let encode_parts t oid props =
  let body = Buffer.create 128 in
  Codec.write_props body props;
  let body = Buffer.contents body in
  if not t.tagged then begin
    let buf = Buffer.create (String.length body + 8) in
    Codec.write_uvarint buf (Oid.id oid);
    Buffer.add_string buf body;
    let r = Buffer.contents buf in
    if String.length r > Page.capacity then
      format_error
        "record %s exceeds the page capacity (%d > %d bytes; overflow chains \
         need a version-%d store)"
        (Oid.to_string oid) (String.length r) Page.capacity meta_version;
    [ r ]
  end
  else begin
    let inline = Buffer.create (String.length body + 8) in
    Buffer.add_char inline 'R';
    Codec.write_uvarint inline (Oid.id oid);
    Buffer.add_string inline body;
    if Buffer.length inline <= Page.capacity then [ Buffer.contents inline ]
    else begin
      let total = String.length body in
      let nparts = (total + max_part - 1) / max_part in
      List.init nparts (fun i ->
          let off = i * max_part in
          let len = min max_part (total - off) in
          let buf = Buffer.create (len + part_overhead) in
          if i = 0 then begin
            Buffer.add_char buf 'H';
            Codec.write_uvarint buf (Oid.id oid);
            Codec.write_uvarint buf nparts;
            Codec.write_uvarint buf total
          end
          else begin
            Buffer.add_char buf 'C';
            Codec.write_uvarint buf (Oid.id oid);
            Codec.write_uvarint buf i
          end;
          Buffer.add_substring buf body off len;
          Buffer.contents buf)
    end
  end

type slot_kind =
  | Inline of int * int  (* id, offset of props bytes *)
  | Head of int * int * int * int  (* id, nparts, total, offset *)
  | Cont of int * int  (* id, seq *)

let parse_slot t s =
  if not t.tagged then
    let c = Codec.cursor s in
    let id = Codec.read_uvarint c in
    Inline (id, Codec.pos c)
  else begin
    if String.length s = 0 then raise (Codec.Corrupt "empty record");
    let c = Codec.cursor ~pos:1 s in
    match s.[0] with
    | 'R' ->
      let id = Codec.read_uvarint c in
      Inline (id, Codec.pos c)
    | 'H' ->
      let id = Codec.read_uvarint c in
      let nparts = Codec.read_uvarint c in
      let total = Codec.read_uvarint c in
      Head (id, nparts, total, Codec.pos c)
    | 'C' ->
      let id = Codec.read_uvarint c in
      let seq = Codec.read_uvarint c in
      Cont (id, seq)
    | tag -> raise (Codec.Corrupt (Printf.sprintf "unknown record tag %c" tag))
  end

let decode_props_at s off = Codec.read_props (Codec.cursor ~pos:off s)

(* ------------------------------------------------------------------ *)
(* construction                                                        *)
(* ------------------------------------------------------------------ *)

let make ~dir ~schema ~tagged ~pool_pages ~counters ~wal ~lockfd =
  let segments = Hashtbl.create 8 in
  List.iter
    (fun cls -> Hashtbl.replace segments cls (Segment.open_seg ~dir ~cls))
    (Schema.class_names schema);
  let read_page ~cls ~page buf =
    match Hashtbl.find_opt segments cls with
    | Some s -> Segment.read_page s page buf
    | None -> format_error "%s: no segment for class %s" dir cls
  in
  let write_page ~cls ~page buf =
    match Hashtbl.find_opt segments cls with
    | Some s -> Segment.write_page s page buf
    | None -> format_error "%s: no segment for class %s" dir cls
  in
  let pool = Buffer_pool.create ~pages:pool_pages ~counters ~read_page ~write_page in
  let t =
    {
      dir;
      schema;
      tagged;
      counters;
      pool;
      wal;
      lockfd;
      segments;
      locs = Hashtbl.create 1024;
      alloc = Hashtbl.create 8;
      fill = Hashtbl.create 8;
      placement = Placement.derive schema;
      hints = Hashtbl.create 256;
      cfill = Hashtbl.create 8;
      roots = Hashtbl.create 1024;
      place_by_parent = true;
      columnar = Hashtbl.create 4;
      cols = Hashtbl.create 4;
      dead = Hashtbl.create 4;
      next_id = 0;
      ckpt_seq = 0;
      recovered = 0;
      tail_ops = [];
      group = None;
      m = Mutex.create ();
    }
  in
  Hashtbl.iter
    (fun cls seg -> Hashtbl.replace t.alloc cls (Segment.data_pages seg))
    segments;
  t

let create ?(pool_pages = 256) ?counters ~schema dir =
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    format_error "%s: exists and is not a directory" dir;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* take the directory lock before dropping a previous database: a live
     store in this directory must not lose its files under it *)
  let lockfd = acquire_lock dir in
  (* overwrite semantics: drop any previous database in this directory *)
  Array.iter
    (fun f ->
      if
        String.equal f "meta" || String.equal f "wal"
        || String.equal f "derived.idx"
        || Filename.check_suffix f ".heap"
        || Filename.check_suffix f ".col"
        || Filename.check_suffix f ".dead"
        || Filename.check_suffix f ".tmp"
      then Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  let counters = Option.value ~default:(Counters.create ()) counters in
  let wal, _ = Wal.open_log ~counters (wal_file dir) in
  let t = make ~dir ~schema ~tagged:true ~pool_pages ~counters ~wal ~lockfd in
  write_meta ~dir ~version:meta_version ~schema ~next_id:t.next_id ~columnar:[]
    ~ckpt_seq:0;
  t

(* ------------------------------------------------------------------ *)
(* page placement                                                      *)
(* ------------------------------------------------------------------ *)

(* Place one page-sized part: the clustering hint page first (partially
   filled sibling pages keep taking children until full), then the fill
   page, then a fresh page.  Clustered inserts (a placement parent is
   known) never fall back to the shared fill page — otherwise
   interleaved parents would all funnel into it and siblings would
   never co-locate.  Instead, a root whose hint page has *filled up*
   continues on a fresh page owned by that root (the cluster keeps
   growing contiguously), while a root with *no* hint yet — its first
   descendant — packs onto the per-class cluster-fill page shared by
   young roots.  Without that second tier every small sibling group
   (a document's four sections) would open a near-empty page of its
   own and the heap would balloon to a fraction of a page per root. *)
let place_part t cls ?hint ?(clustered = false) record =
  let len = String.length record in
  let try_page page =
    if page < 1 || page > allocated t cls then None
    else begin
      let data = Buffer_pool.pin t.pool ~cls ~page in
      if Page.has_room data len then begin
        let slot = Page.insert data record in
        Buffer_pool.unpin t.pool ~cls ~page ~dirty:true;
        Some slot
      end
      else begin
        Buffer_pool.unpin t.pool ~cls ~page ~dirty:false;
        None
      end
    end
  in
  let hinted =
    match hint with
    | Some p -> (
      match try_page p with Some slot -> Some (p, slot) | None -> None)
    | None -> None
  in
  match hinted with
  | Some placed -> placed
  | None when clustered && Option.is_some hint ->
    (* the root's cluster page filled up: continue it on a fresh page
       owned by the root, leaving both shared pointers alone *)
    let fresh = allocated t cls + 1 in
    Hashtbl.replace t.alloc cls fresh;
    (match try_page fresh with
    | Some slot -> (fresh, slot)
    | None -> assert false)
  | None when clustered -> (
    (* first descendant of a new root: pack onto the cluster-fill page
       (young roots share it until it fills), never the unparented fill *)
    let cfp = Option.value ~default:0 (Hashtbl.find_opt t.cfill cls) in
    match (if cfp >= 1 then try_page cfp else None) with
    | Some slot -> (cfp, slot)
    | None ->
      let fresh = allocated t cls + 1 in
      Hashtbl.replace t.alloc cls fresh;
      Hashtbl.replace t.cfill cls fresh;
      (match try_page fresh with
      | Some slot -> (fresh, slot)
      | None -> assert false))
  | None -> (
    let fillp = Option.value ~default:0 (Hashtbl.find_opt t.fill cls) in
    match (if fillp >= 1 then try_page fillp else None) with
    | Some slot -> (fillp, slot)
    | None ->
      let fresh = allocated t cls + 1 in
      Hashtbl.replace t.alloc cls fresh;
      Hashtbl.replace t.fill cls fresh;
      (match try_page fresh with
      | Some slot -> (fresh, slot)
      | None -> assert false (* an empty page holds any part <= capacity *)))

let delete_record t oid =
  let cls = Oid.cls oid in
  (* tombstone any columnar copy first: once an OID is deleted (or about
     to be replaced), the vacuumed row must never resurrect *)
  (match Hashtbl.find_opt t.cols cls with
  | Some cs when Colseg.mem cs (Oid.id oid) ->
    Hashtbl.replace (dead_tbl t cls) (Oid.id oid) ()
  | _ -> ());
  match Hashtbl.find_opt t.locs oid with
  | None -> ()
  | Some loc ->
    let del page slot =
      let data = Buffer_pool.pin t.pool ~cls ~page in
      Page.delete data slot;
      Buffer_pool.unpin t.pool ~cls ~page ~dirty:true
    in
    del loc.lpage loc.lslot;
    Array.iter (fun (p, s) -> del p s) loc.lparts;
    Hashtbl.remove t.locs oid;
    Hashtbl.remove t.roots (cls, Oid.id oid)

let slot_bytes t cls page slot =
  let data = Buffer_pool.pin t.pool ~cls ~page in
  let r = Page.read data slot in
  Buffer_pool.unpin t.pool ~cls ~page ~dirty:false;
  r

(* Reassemble an overflow chain's props bytes from its head record and
   the continuation parts the directory wired up. *)
let assemble t cls loc ~head ~id ~total ~off =
  let buf = Buffer.create total in
  Buffer.add_substring buf head off (String.length head - off);
  Array.iter
    (fun (p, s) ->
      match slot_bytes t cls p s with
      | Some part -> (
        match parse_slot t part with
        | Cont (cid, _) when cid = id ->
          let c = Codec.cursor ~pos:1 part in
          ignore (Codec.read_uvarint c);
          ignore (Codec.read_uvarint c);
          Buffer.add_substring buf part (Codec.pos c)
            (String.length part - Codec.pos c)
        | _ -> raise (Codec.Corrupt "broken overflow chain"))
      | None -> raise (Codec.Corrupt "broken overflow chain"))
    loc.lparts;
  if Buffer.length buf <> total then
    raise (Codec.Corrupt "overflow chain length mismatch");
  Buffer.contents buf

let read_record t oid =
  match Hashtbl.find_opt t.locs oid with
  | None -> (
    (* not in the heap: serve the columnar copy unless tombstoned *)
    let cls = Oid.cls oid in
    match Hashtbl.find_opt t.cols cls with
    | Some cs when not (Hashtbl.mem (dead_tbl t cls) (Oid.id oid)) ->
      Colseg.fetch cs (Oid.id oid)
    | _ -> None)
  | Some loc -> (
    let cls = Oid.cls oid in
    match slot_bytes t cls loc.lpage loc.lslot with
    | None -> None
    | Some s -> (
      match parse_slot t s with
      | Inline (_, off) -> Some (decode_props_at s off)
      | Head (id, _, total, off) ->
        Some (decode_props_at (assemble t cls loc ~head:s ~id ~total ~off) 0)
      | Cont _ -> None (* the directory never points at a continuation *)))

(* Root ancestor along the placement-parent path (paragraph → section →
   document).  Hints are keyed by root, so every descendant of one root
   shares the same cluster pages — keying by the immediate parent would
   open a near-empty page per small sibling group.  Memoized in
   [t.roots]; a miss (first insert after reopen) resolves the chain by
   reading ancestor records, which parent-before-child creation order
   keeps shallow.  The depth bound keeps schema cycles finite. *)
let rec cluster_root t oid depth =
  let cls = Oid.cls oid in
  match Placement.parent_prop t.placement cls with
  | None -> oid
  | Some prop -> (
    let k = (cls, Oid.id oid) in
    match Hashtbl.find_opt t.roots k with
    | Some r -> r
    | None ->
      let r =
        if depth = 0 then oid
        else
          match read_record t oid with
          | Some props -> (
            match List.assoc_opt prop props with
            | Some (Value.Obj p) -> cluster_root t p (depth - 1)
            | _ -> oid)
          | None -> oid
      in
      Hashtbl.replace t.roots k r;
      r)

let insert_record t oid props =
  let cls = Oid.cls oid in
  let parts = encode_parts t oid props in
  let root =
    if t.place_by_parent then
      match Placement.parent_of t.placement ~cls props with
      | Some p -> Some (cluster_root t p 8)
      | None -> None
    else None
  in
  let hint =
    match root with
    | Some r -> Hashtbl.find_opt t.hints (cls, Oid.id r)
    | None -> None
  in
  match parts with
  | [] -> assert false
  | head :: conts ->
    let clustered = Option.is_some root in
    let hpage, hslot = place_part t cls ?hint ~clustered head in
    let lparts =
      Array.of_list (List.map (fun r -> place_part t cls r) conts)
    in
    Hashtbl.replace t.locs oid { lpage = hpage; lslot = hslot; lparts };
    (match root with
    | Some r ->
      Hashtbl.replace t.hints (cls, Oid.id r) hpage;
      Hashtbl.replace t.roots (cls, Oid.id oid) r
    | None -> ());
    t.next_id <- max t.next_id (Oid.id oid + 1)

(* idempotent redo application: an insert of a live OID replaces its
   record, an update of a dead OID creates it, deletes of absent OIDs
   are no-ops — any committed suffix may already be on the pages *)
let apply_op t (op : Wal.op) =
  match op with
  | Wal.Insert { oid; props } ->
    delete_record t oid;
    insert_record t oid props
  | Wal.Update { oid; prop; value; _ } ->
    let props = Option.value ~default:[] (read_record t oid) in
    let props = (prop, value) :: List.remove_assoc prop props in
    delete_record t oid;
    insert_record t oid props
  | Wal.Delete { oid; _ } -> delete_record t oid

let apply t ops =
  locked t (fun () ->
      Wal.commit t.wal ops;
      List.iter (apply_op t) ops)

(* ------------------------------------------------------------------ *)
(* group commit                                                        *)
(* ------------------------------------------------------------------ *)

(* The queue is created on first use; its flush takes the store mutex
   once per {e group}, writes every batch with a single WAL append +
   fsync, then applies them to the pooled pages in commit order. *)
let group t =
  locked t (fun () ->
      match t.group with
      | Some g -> g
      | None ->
        let g =
          Group_commit.create
            ~flush:(fun batches ->
              locked t (fun () ->
                  Wal.commit_many t.wal batches;
                  List.iter (fun ops -> List.iter (apply_op t) ops) batches))
            ()
        in
        t.group <- Some g;
        g)

let enqueue_group t ops = Group_commit.enqueue (group t) ops
let wait_group t ticket = Group_commit.wait (group t) ticket
let apply_group t ops = Group_commit.submit (group t) ops
let set_group_window t w = Group_commit.set_window (group t) w

(* ------------------------------------------------------------------ *)
(* open + recovery                                                     *)
(* ------------------------------------------------------------------ *)

(* Directory rebuild reads raw pages with a scratch buffer (physical
   reconstruction, not query traffic: the pool and its counters stay
   cold for the workload that follows). *)
let rebuild_directory t =
  let scratch = Bytes.create Page.size in
  (* (cls, id, seq) -> continuation part location; wired to the winning
     heads after the sweep *)
  let parts = Hashtbl.create 64 in
  let heads = Hashtbl.create 16 in
  (* a relocated record can appear twice only if a crash hit between
     page writes; the higher page wins deterministically *)
  let wins oid page =
    match Hashtbl.find_opt t.locs oid with
    | Some loc when loc.lpage > page -> false
    | _ -> true
  in
  Hashtbl.iter
    (fun cls seg ->
      for page = 1 to Segment.data_pages seg do
        Segment.read_page seg page scratch;
        if not (Page.is_blank scratch) then
          Page.iter scratch (fun slot record ->
              match parse_slot t record with
              | Inline (id, _) ->
                let oid = Oid.make ~cls ~id in
                if wins oid page then begin
                  Hashtbl.replace t.locs oid
                    { lpage = page; lslot = slot; lparts = [||] };
                  Hashtbl.remove heads oid
                end;
                t.next_id <- max t.next_id (id + 1)
              | Head (id, nparts, _, _) ->
                let oid = Oid.make ~cls ~id in
                if wins oid page then begin
                  Hashtbl.replace t.locs oid
                    { lpage = page; lslot = slot; lparts = [||] };
                  Hashtbl.replace heads oid nparts
                end;
                t.next_id <- max t.next_id (id + 1)
              | Cont (id, seq) ->
                (match Hashtbl.find_opt parts (cls, id, seq) with
                | Some (p, _) when p > page -> ()
                | _ -> Hashtbl.replace parts (cls, id, seq) (page, slot));
                t.next_id <- max t.next_id (id + 1)
              | exception Codec.Corrupt msg ->
                format_error "%s/%s.heap page %d slot %d: %s" t.dir cls page
                  slot msg)
      done)
    t.segments;
  Hashtbl.iter
    (fun oid nparts ->
      match Hashtbl.find_opt t.locs oid with
      | None -> ()
      | Some loc ->
        let cls = Oid.cls oid in
        let ok = ref true in
        let arr =
          Array.init (nparts - 1) (fun i ->
              match Hashtbl.find_opt parts (cls, Oid.id oid, i + 1) with
              | Some ps -> ps
              | None ->
                ok := false;
                (0, 0))
        in
        if !ok then loc.lparts <- arr
        else
          (* torn chain (crash between part writes): treat the record as
             absent; WAL redo reinserts it whole *)
          Hashtbl.remove t.locs oid)
    heads

let open_dir ?(pool_pages = 256) ?counters dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    format_error "%s: not a soqm database directory" dir;
  let schema, meta_next_id, columnar, version, ckpt_seq = read_meta dir in
  let lockfd = acquire_lock dir in
  let counters = Option.value ~default:(Counters.create ()) counters in
  let wal, batches =
    try Wal.open_log ~counters (wal_file dir)
    with e ->
      Unix.close lockfd;
      raise e
  in
  let t =
    make ~dir ~schema ~tagged:(version >= 2) ~pool_pages ~counters ~wal ~lockfd
  in
  t.ckpt_seq <- ckpt_seq;
  (* columnar segments load (and verify) before recovery: WAL redo may
     tombstone or shadow their rows *)
  List.iter
    (fun cls ->
      if not (List.mem cls (Schema.class_names schema)) then
        format_error "%s: columnar flag for unknown class %s" dir cls;
      Hashtbl.replace t.columnar cls ();
      (try Hashtbl.replace t.cols cls (Colseg.load ~counters ~dir ~cls)
       with Colseg.Format_error msg -> format_error "%s" msg);
      try Hashtbl.replace t.dead cls (Colseg.load_dead ~dir ~cls)
      with Colseg.Format_error msg -> format_error "%s" msg)
    columnar;
  rebuild_directory t;
  Hashtbl.iter
    (fun _ cs ->
      Colseg.iter_ids cs (fun id -> t.next_id <- max t.next_id (id + 1)))
    t.cols;
  t.next_id <- max t.next_id meta_next_id;
  (* fill pointers resume at each segment's last page *)
  Hashtbl.iter (fun cls pages -> if pages > 0 then Hashtbl.replace t.fill cls pages) t.alloc;
  List.iter
    (fun ops ->
      List.iter (apply_op t) ops;
      t.recovered <- t.recovered + 1)
    batches;
  t.tail_ops <- List.concat batches;
  t

let columnar_list t =
  Hashtbl.fold (fun cls () acc -> cls :: acc) t.columnar []

let meta_version_of t = if t.tagged then meta_version else 1

(* WAL truncation makes replay unavailable, so everything the WAL was
   covering must be durable first: dirty heap pages, and the columnar
   tombstones accumulated since the last checkpoint.  Each checkpoint
   bumps the sequence the meta file carries, so external structures
   derived from this store (the persistent index image) can tell which
   checkpoint they belong to. *)
let checkpoint_locked t =
  Buffer_pool.flush t.pool;
  Hashtbl.iter (fun _ seg -> Segment.sync seg) t.segments;
  Hashtbl.iter
    (fun cls () -> Colseg.write_dead ~dir:t.dir ~cls (dead_tbl t cls))
    t.columnar;
  t.ckpt_seq <- t.ckpt_seq + 1;
  write_meta ~dir:t.dir ~version:(meta_version_of t) ~schema:t.schema
    ~next_id:t.next_id ~columnar:(columnar_list t) ~ckpt_seq:t.ckpt_seq;
  Wal.truncate t.wal

let checkpoint t = locked t (fun () -> checkpoint_locked t)

let close ?(checkpoint = true) t =
  if checkpoint then locked t (fun () -> checkpoint_locked t);
  Hashtbl.iter (fun _ seg -> Segment.close seg) t.segments;
  Wal.close t.wal;
  Unix.close t.lockfd

(* ------------------------------------------------------------------ *)
(* reads and scans                                                     *)
(* ------------------------------------------------------------------ *)

let fetch t oid =
  locked t (fun () ->
      match read_record t oid with Some props -> props | None -> raise Not_found)

let mem t oid =
  locked t (fun () ->
      Hashtbl.mem t.locs oid
      ||
      let cls = Oid.cls oid in
      match Hashtbl.find_opt t.cols cls with
      | Some cs -> Colseg.mem cs (Oid.id oid) && col_live t cls (Oid.id oid)
      | None -> false)

let extent t cls =
  locked t (fun () ->
      let heap =
        Hashtbl.fold
          (fun oid _ acc ->
            if String.equal (Oid.cls oid) cls then oid :: acc else acc)
          t.locs []
      in
      let rows =
        match Hashtbl.find_opt t.cols cls with
        | None -> heap
        | Some cs ->
          let acc = ref heap in
          Colseg.iter_ids cs (fun id ->
              if col_live t cls id then acc := Oid.make ~cls ~id :: !acc);
          !acc
      in
      List.sort (fun a b -> Int.compare (Oid.id a) (Oid.id b)) rows)

(* One in-order pass over a class's pages through the pool.  [f] runs on
   the caller; with [prefetch] a helper domain pins pages ahead of the
   consumer inside a fixed window, so segment reads overlap decoding.
   The helper only pays off with a second core: on a single-core host
   the domain handoff makes the pass slower than the plain loop, so
   prefetching auto-disables there. *)
let prefetch_window = 8

let prefetch_usable () = Domain.recommended_domain_count () >= 2

let page_pass ?(prefetch = false) t cls ~f =
  let n = allocated t cls in
  if n = 0 then 0
  else begin
    let consume () =
      for page = 1 to n do
        let data = Buffer_pool.pin t.pool ~cls ~page in
        f page data;
        Buffer_pool.unpin t.pool ~cls ~page ~dirty:false
      done
    in
    if (not prefetch) || n <= 2 || not (prefetch_usable ()) then consume ()
    else begin
      let next = Atomic.make 1 in
      let stop = Atomic.make false in
      Pool.run (Pool.global ()) ~jobs:2 (fun w ->
          if w = 0 then
            Fun.protect
              ~finally:(fun () -> Atomic.set stop true)
              (fun () ->
                for page = 1 to n do
                  let data = Buffer_pool.pin t.pool ~cls ~page in
                  f page data;
                  Buffer_pool.unpin t.pool ~cls ~page ~dirty:false;
                  Atomic.set next (page + 1)
                done)
          else
            (* read ahead of the consumer, never past the window *)
            let rec go page =
              if page <= n && not (Atomic.get stop) then
                if page < Atomic.get next + prefetch_window then begin
                  (try
                     ignore (Buffer_pool.pin t.pool ~cls ~page);
                     Buffer_pool.unpin t.pool ~cls ~page ~dirty:false
                   with Failure _ -> ());
                  go (page + 1)
                end
                else begin
                  Domain.cpu_relax ();
                  go page
                end
            in
            go 1)
    end;
    n
  end

(* Run [k] on the record this slot holds iff it is the live copy: the
   directory must point at this page/slot (stale copies of relocated
   records fail that check), and continuation parts are served through
   their head.  [k] gets the decoded props and the bytes decoded. *)
let live_slot t cls page slot record k =
  match parse_slot t record with
  | Cont _ -> ()
  | Inline (id, off) -> (
    let oid = Oid.make ~cls ~id in
    match Hashtbl.find_opt t.locs oid with
    | Some loc when loc.lpage = page && loc.lslot = slot ->
      k oid (decode_props_at record off) (String.length record)
    | _ -> ())
  | Head (id, _, total, off) -> (
    let oid = Oid.make ~cls ~id in
    match Hashtbl.find_opt t.locs oid with
    | Some loc when loc.lpage = page && loc.lslot = slot ->
      let body = assemble t cls loc ~head:record ~id ~total ~off in
      k oid (decode_props_at body 0) (off + total)
    | _ -> ())

let scan ?prefetch t cls =
  let rows = ref [] in
  let pages =
    page_pass ?prefetch t cls ~f:(fun page data ->
        Page.iter data (fun slot record ->
            match
              live_slot t cls page slot record (fun oid props bytes ->
                  Counters.add t.counters Bytes_read bytes;
                  Counters.add t.counters Values_decoded
                    (1 + List.length props);
                  rows := (oid, props) :: !rows)
            with
            | () -> ()
            | exception Codec.Corrupt msg ->
              format_error "%s/%s.heap page %d slot %d: %s" t.dir cls page slot
                msg))
  in
  (* merge in the columnar base image (heap shadows and tombstones win) *)
  let pages =
    match Hashtbl.find_opt t.cols cls with
    | None -> pages
    | Some cs ->
      Colseg.iter_rows cs (fun id props ->
          if col_live t cls id then
            rows := (Oid.make ~cls ~id, props) :: !rows);
      pages + ((Colseg.total_bytes cs + Page.size - 1) / Page.size)
  in
  (* page order is insertion order except for relocated (updated) rows;
     sorting by serial restores allocation order exactly *)
  let rows =
    List.sort (fun (a, _) (b, _) -> Int.compare (Oid.id a) (Oid.id b)) !rows
  in
  (rows, pages)

let scan_all ?prefetch t =
  let rows, pages =
    List.fold_left
      (fun (rows, pages) cls ->
        let r, p = scan ?prefetch t cls in
        (r :: rows, pages + p))
      ([], 0)
      (Schema.class_names t.schema)
  in
  let rows =
    List.concat rows
    |> List.sort (fun (a, _) (b, _) -> Int.compare (Oid.id a) (Oid.id b))
  in
  (rows, pages)

(* Per-query scan traffic model: pages driven through the pool plus the
   bytes a scan of this class must decode — whole pages for the
   row-slotted heap, chunk meta (header + oid column + directory) for the
   columnar base image.  Charged to [bytes_read] so mixed workloads
   accumulate a per-format byte picture; [values_decoded] is left to the
   paths that actually decode. *)
let scan_cost ?prefetch t cls =
  let pages = page_pass ?prefetch t cls ~f:(fun _ _ -> ()) in
  let bytes = pages * Page.size in
  let bytes =
    match Hashtbl.find_opt t.cols cls with
    | None -> bytes
    | Some cs -> bytes + Colseg.meta_bytes cs
  in
  if bytes > 0 then Counters.add t.counters Bytes_read bytes;
  (pages, bytes)

(* Distinct physical units a point-fetch of these OIDs would touch:
   heap pages (overflow parts included) for heap-resident records, the
   containing column chunk for columnar rows.  This is what clustered
   placement moves: the same path query's OID set lands on far fewer
   pages after a clustering vacuum. *)
let locate_pages t oids =
  locked t (fun () ->
      let units = Hashtbl.create 64 in
      List.iter
        (fun oid ->
          let cls = Oid.cls oid in
          match Hashtbl.find_opt t.locs oid with
          | Some loc ->
            Hashtbl.replace units (cls, loc.lpage) ();
            Array.iter
              (fun (p, _) -> Hashtbl.replace units (cls, p) ())
              loc.lparts
          | None -> (
            match Hashtbl.find_opt t.cols cls with
            | Some cs when col_live t cls (Oid.id oid) -> (
              match Colseg.chunk_of cs (Oid.id oid) with
              (* chunks share the page namespace under negative keys *)
              | Some i -> Hashtbl.replace units (cls, -1 - i) ()
              | None -> ())
            | _ -> ()))
        oids;
      Hashtbl.length units)

(* Selective scan: per live row, the values of exactly [props] (argument
   order, [None] = absent).  Columnar classes decode only those columns;
   heap rows must decode whole records — the asymmetry the columnar
   bench gate measures. *)
let scan_columns t cls props =
  let by_id (a, _) (b, _) = Int.compare (Oid.id a) (Oid.id b) in
  let heap = ref [] in
  ignore
    (page_pass t cls ~f:(fun page data ->
         Page.iter data (fun slot record ->
             match
               live_slot t cls page slot record (fun oid rprops bytes ->
                   Counters.add t.counters Bytes_read bytes;
                   Counters.add t.counters Values_decoded
                     (1 + List.length rprops);
                   heap :=
                     (oid, List.map (fun p -> List.assoc_opt p rprops) props)
                     :: !heap)
             with
             | () -> ()
             | exception Codec.Corrupt msg ->
               format_error "%s/%s.heap page %d slot %d: %s" t.dir cls page
                 slot msg)));
  let heap = List.sort by_id !heap in
  match Hashtbl.find_opt t.cols cls with
  | None -> heap
  | Some cs ->
    (* chunks and the ids within them are ascending, so collecting in
       reverse and reversing once restores allocation order without the
       O(n log n) sort of the heap path; the liveness probes hoist their
       common case — no tombstones, an empty (freshly vacuumed) heap
       that cannot shadow anything — out of the per-row loop, skipping
       the per-row [Oid] allocation and directory hash *)
    let dead = dead_tbl t cls in
    let no_dead = Hashtbl.length dead = 0 in
    let no_heap = allocated t cls = 0 in
    let acc = ref [] in
    Colseg.iter_columns cs props (fun id vals ->
        if
          (no_dead || not (Hashtbl.mem dead id))
          && (no_heap || not (Hashtbl.mem t.locs (Oid.make ~cls ~id)))
        then acc := (Oid.make ~cls ~id, vals) :: !acc);
    let cols_rows = List.rev !acc in
    if heap == [] then cols_rows else List.merge by_id heap cols_rows

(* ------------------------------------------------------------------ *)
(* vacuum: re-clustering and columnar rewrite                          *)
(* ------------------------------------------------------------------ *)

(* Traversal sort key of a row: ancestor ids root-first (following the
   placement policy's parent edges across classes), own id last, so
   sorting groups children under their parent and parents under theirs.
   Keys are memoized per (class, id); the depth bound keeps schema
   cycles finite. *)
let traversal_keys t cls rows =
  let cache : (string * int, int list) Hashtbl.t =
    Hashtbl.create (2 * List.length rows)
  in
  let rec key kcls id props depth =
    match Hashtbl.find_opt cache (kcls, id) with
    | Some k -> k
    | None ->
      let k =
        if depth = 0 then [ id ]
        else
          match Placement.parent_of t.placement ~cls:kcls props with
          | Some parent -> (
            let pcls = Oid.cls parent and pid = Oid.id parent in
            match
              match Hashtbl.find_opt cache (pcls, pid) with
              | Some pk -> Some pk
              | None ->
                Option.map
                  (fun pprops -> key pcls pid pprops (depth - 1))
                  (locked t (fun () -> read_record t parent))
            with
            | Some pk -> pk @ [ id ]
            | None -> [ id ])
          | None -> [ id ]
      in
      Hashtbl.replace cache (kcls, id) k;
      k
  in
  List.map (fun (oid, props) -> (key cls (Oid.id oid) props 8, (oid, props))) rows

let sort_traversal keyed =
  List.map snd
    (List.sort (fun (a, _) (b, _) -> List.compare Int.compare a b) keyed)

(* Chunk-boundary predicate for the columnar writer: break where the
   parent of row [i] differs from the parent of row [i-1]. *)
let group_breaks t cls rows =
  let parent i =
    let _, props = rows.(i) in
    Placement.parent_of t.placement ~cls props
  in
  fun i ->
    i > 0
    && i < Array.length rows
    && not (Option.equal Oid.equal (parent i) (parent (i - 1)))

(* Rewrite one class columnar: snapshot its live rows, write them as a
   fresh [<cls>.col] (atomic rename), flag the class in [meta], then
   empty the heap segment.  Crash-safe at every boundary: before the
   meta write the flag is absent and the stale [.col] is ignored; after
   it the heap still holds shadow copies with identical content until
   the truncate, and the final checkpoint makes the whole move durable.
   Post-vacuum DML lands in the (now empty) heap and shadows the
   columnar image until the next vacuum folds it in. *)
let vacuum_columnar ?break_before t cls =
  let rows, _ = scan t cls in
  let rows =
    Array.of_list (List.map (fun (oid, props) -> (Oid.id oid, props)) rows)
  in
  locked t (fun () ->
      Colseg.write ?break_before ~dir:t.dir ~cls rows;
      Hashtbl.replace t.columnar cls ();
      (try Hashtbl.replace t.cols cls (Colseg.load ~counters:t.counters ~dir:t.dir ~cls)
       with Colseg.Format_error msg -> format_error "%s" msg);
      Hashtbl.replace t.dead cls (Hashtbl.create 16);
      Colseg.write_dead ~dir:t.dir ~cls (dead_tbl t cls);
      write_meta ~dir:t.dir ~version:(meta_version_of t) ~schema:t.schema
        ~next_id:t.next_id ~columnar:(columnar_list t) ~ckpt_seq:t.ckpt_seq;
      (* the columnar image is durable and flagged: empty the heap *)
      Buffer_pool.drop_class t.pool ~cls;
      (match Hashtbl.find_opt t.segments cls with
      | Some seg -> Segment.reset seg
      | None -> ());
      Hashtbl.replace t.alloc cls 0;
      Hashtbl.remove t.fill cls;
      let stale =
        Hashtbl.fold
          (fun oid _ acc ->
            if String.equal (Oid.cls oid) cls then oid :: acc else acc)
          t.locs []
      in
      List.iter (Hashtbl.remove t.locs) stale;
      checkpoint_locked t);
  Array.length rows

(* Re-clustering heap rewrite: pack the class's live rows into fresh
   page images in traversal order and atomically swap the segment.  The
   WAL tail stays valid across the swap — redo is delete+insert by OID,
   which lands identically on the new image — and a crash before the
   rename leaves the old heap untouched. *)
let vacuum_cluster t cls =
  let rows, _ = scan t cls in
  let keyed =
    List.sort
      (fun (a, _) (b, _) -> List.compare Int.compare a b)
      (traversal_keys t cls rows)
  in
  (* traversal keys are root-first, own id last: the head of a key of
     length >= 2 is the row's cluster-root id, which the rewrite uses to
     seed root-keyed insert hints *)
  let root_ids = Hashtbl.create 1024 in
  List.iter
    (fun (k, (oid, _)) ->
      match k with
      | rid :: _ :: _ -> Hashtbl.replace root_ids (Oid.id oid) rid
      | _ -> ())
    keyed;
  let rows = List.map snd keyed in
  let nrows = List.length rows in
  if not t.tagged then
    format_error "%s: clustering vacuum needs a version-%d store" t.dir
      meta_version;
  (* build the new page images and directory off-line *)
  let pages = ref [] in
  let npages = ref 0 in
  let cur = ref None in
  let fresh () =
    let p = Bytes.create Page.size in
    Page.format p;
    incr npages;
    cur := Some p;
    p
  in
  let flushed () =
    (match !cur with
    | Some p -> pages := p :: !pages
    | None -> ());
    cur := None
  in
  let put part =
    let p = match !cur with Some p -> p | None -> fresh () in
    if Page.has_room p (String.length part) then (!npages, Page.insert p part)
    else begin
      flushed ();
      let p = fresh () in
      (!npages, Page.insert p part)
    end
  in
  let new_locs = Hashtbl.create (2 * nrows) in
  let new_hints = Hashtbl.create 256 in
  List.iter
    (fun (oid, props) ->
      match encode_parts t oid props with
      | [] -> assert false
      | head :: conts ->
        let hpage, hslot = put head in
        let lparts = Array.of_list (List.map put conts) in
        Hashtbl.replace new_locs oid
          { lpage = hpage; lslot = hslot; lparts };
        (match Hashtbl.find_opt root_ids (Oid.id oid) with
        | Some rid -> Hashtbl.replace new_hints (cls, rid) hpage
        | None -> ()))
    rows;
  flushed ();
  let images = Array.of_list (List.rev !pages) in
  locked t (fun () ->
      (* cached images of the old heap must go before the swap: a stale
         dirty page flushed later would corrupt the new file *)
      Buffer_pool.drop_class t.pool ~cls;
      (match Hashtbl.find_opt t.segments cls with
      | Some seg -> Segment.rewrite seg images
      | None -> format_error "%s: no segment for class %s" t.dir cls);
      let stale =
        Hashtbl.fold
          (fun oid _ acc ->
            if String.equal (Oid.cls oid) cls then oid :: acc else acc)
          t.locs []
      in
      List.iter (Hashtbl.remove t.locs) stale;
      Hashtbl.iter (fun oid loc -> Hashtbl.replace t.locs oid loc) new_locs;
      Hashtbl.replace t.alloc cls (Array.length images);
      if Array.length images > 0 then
        Hashtbl.replace t.fill cls (Array.length images)
      else Hashtbl.remove t.fill cls;
      (* old hints point into the dropped image; the rewrite seeds fresh
         ones so post-vacuum DML clusters immediately *)
      let stale_hints =
        Hashtbl.fold
          (fun ((hcls, _) as k) _ acc ->
            if String.equal hcls cls then k :: acc else acc)
          t.hints []
      in
      List.iter (Hashtbl.remove t.hints) stale_hints;
      Hashtbl.iter (fun k p -> Hashtbl.replace t.hints k p) new_hints;
      (* the cluster-fill page was rewritten too; the next new root
         starts a fresh one *)
      Hashtbl.remove t.cfill cls;
      checkpoint_locked t);
  nrows

let vacuum ?(mode = `Columnar) t cls =
  if not (List.mem cls (Schema.class_names t.schema)) then
    format_error "%s: cannot vacuum unknown class %s" t.dir cls;
  match mode with
  | `Columnar -> vacuum_columnar t cls
  | `Cluster ->
    if Hashtbl.mem t.columnar cls then begin
      (* a columnar class re-clusters by rewriting its chunks with
         boundaries aligned to parent-group starts *)
      let rows, _ = scan t cls in
      let sorted = sort_traversal (traversal_keys t cls rows) in
      let arr = Array.of_list sorted in
      ignore arr;
      (* columnar chunks must keep ascending disjoint OID ranges, so the
         rewrite stays in OID order; traversal-created data already has
         OID order = traversal order, and the boundary predicate aligns
         chunk cuts to parent-group starts within it *)
      let rows_arr =
        Array.of_list (List.map (fun (oid, props) -> (oid, props)) rows)
      in
      vacuum_columnar ~break_before:(group_breaks t cls rows_arr) t cls
    end
    else vacuum_cluster t cls

let bulk_load t ~next_id objects =
  locked t (fun () ->
      List.iter (fun (oid, props) -> insert_record t oid props) objects;
      t.next_id <- max t.next_id next_id);
  checkpoint t

(* ------------------------------------------------------------------ *)
(* introspection                                                       *)
(* ------------------------------------------------------------------ *)

let dir t = t.dir
let schema t = t.schema
let counters t = t.counters
let next_id t = t.next_id
let data_pages t cls = allocated t cls
let total_data_pages t = Hashtbl.fold (fun _ n acc -> acc + n) t.alloc 0
let is_columnar t cls = Hashtbl.mem t.columnar cls
let columnar_classes t = List.sort String.compare (columnar_list t)

let columnar_bytes t cls =
  match Hashtbl.find_opt t.cols cls with
  | Some cs -> Colseg.total_bytes cs
  | None -> 0

let columnar_rows t cls =
  match Hashtbl.find_opt t.cols cls with
  | Some cs -> Colseg.row_count cs
  | None -> 0

let columnar_tombstones t cls =
  match Hashtbl.find_opt t.dead cls with
  | Some d -> Hashtbl.length d
  | None -> 0

let overflow_chains t cls =
  locked t (fun () ->
      Hashtbl.fold
        (fun oid loc acc ->
          if String.equal (Oid.cls oid) cls && Array.length loc.lparts > 0 then
            acc + 1
          else acc)
        t.locs 0)

let set_placement t on = t.place_by_parent <- on
let placement_enabled t = t.place_by_parent
let clustering_parent t cls = Placement.parent_prop t.placement cls
let wal_bytes t = Wal.size t.wal
let pool_pages t = Buffer_pool.capacity t.pool
let checkpoint_seq t = t.ckpt_seq
let recovered_batches t = t.recovered
let recovered_ops t = t.tail_ops
