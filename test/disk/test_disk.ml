(* The paged disk storage subsystem: codec, slotted pages, buffer pool,
   WAL commit/recovery, and the store end to end.

   The centerpiece is the crash-recovery torture property: a random DML
   trace is committed batch by batch, the WAL is cut at a random byte
   offset (simulating a crash with a torn tail), the directory is
   reopened, and the recovered contents must equal an oracle replay of
   exactly the batches whose Commit frame survived the cut — for any
   offset. *)

open Soqm_vml
open Soqm_disk
module F = Soqm_testlib.Fixtures

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* codec                                                               *)
(* ------------------------------------------------------------------ *)

let roundtrip_value v =
  let buf = Buffer.create 64 in
  Codec.write_value buf v;
  Codec.read_value (Codec.cursor (Buffer.contents buf))

let test_codec_values () =
  let samples =
    [
      Value.Null;
      Value.Bool true;
      Value.Bool false;
      Value.Int 0;
      Value.Int (-1);
      Value.Int max_int;
      Value.Int min_int;
      Value.Real 3.25;
      Value.Real nan;
      Value.Real infinity;
      Value.Str "";
      Value.Str "héllo\x00world";
      Value.Obj (Oid.make ~cls:"Paragraph" ~id:42);
      Value.Cls "Document";
      Value.set [ Value.Int 3; Value.Int 1; Value.Int 2 ];
      Value.tuple [ ("b", Value.Int 2); ("a", Value.Str "x") ];
      Value.Arr [| Value.Int 1; Value.Null |];
      Value.dict [ (Value.Str "k", Value.Int 9) ];
    ]
  in
  List.iter
    (fun v ->
      check F.value "value roundtrips" v (roundtrip_value v);
      (* NaN breaks Value.equal reflexivity; spot-check the tag *)
      ())
    (List.filter (fun v -> Value.equal v v) samples);
  (match roundtrip_value (Value.Real nan) with
  | Value.Real r -> check Alcotest.bool "nan survives" true (Float.is_nan r)
  | _ -> Alcotest.fail "nan decoded to a different constructor")

let test_codec_rejects_garbage () =
  let rejects name s f =
    Alcotest.match_raises name
      (function Codec.Corrupt _ -> true | _ -> false)
      (fun () -> ignore (f (Codec.cursor s)))
  in
  rejects "truncated varint" "\xff\xff" Codec.read_uvarint;
  rejects "truncated string" "\x0aab" Codec.read_string;
  rejects "unknown value tag" "\x7f" Codec.read_value;
  rejects "empty input" "" Codec.read_value

let test_codec_schema_roundtrip () =
  let schema = Soqm_core.Doc_schema.schema in
  let buf = Buffer.create 256 in
  Codec.write_schema buf schema;
  let schema' = Codec.read_schema (Codec.cursor (Buffer.contents buf)) in
  check
    Alcotest.(list string)
    "class names survive" (Schema.class_names schema)
    (Schema.class_names schema');
  check Alcotest.bool "inverse links survive" true
    (Schema.inverse_of schema' ~cls:"Section" ~prop:"document"
    = Schema.inverse_of schema ~cls:"Section" ~prop:"document")

(* ------------------------------------------------------------------ *)
(* slotted pages                                                       *)
(* ------------------------------------------------------------------ *)

let test_page_ops () =
  let p = Bytes.create Page.size in
  Page.format p;
  check Alcotest.bool "formatted page is not blank" false (Page.is_blank p);
  check Alcotest.int "no slots yet" 0 (Page.nslots p);
  let s0 = Page.insert p "alpha" in
  let s1 = Page.insert p "beta" in
  let s2 = Page.insert p "gamma" in
  check Alcotest.(list int) "slot numbers ascend" [ 0; 1; 2 ] [ s0; s1; s2 ];
  check Alcotest.(option string) "read back" (Some "beta") (Page.read p s1);
  (* deletion marks the slot dead without renumbering the others *)
  Page.delete p s1;
  Page.delete p s1 (* idempotent *);
  Page.delete p 99 (* out of range: ignored *);
  check Alcotest.(option string) "dead slot" None (Page.read p s1);
  check Alcotest.(option string) "later slot stable" (Some "gamma")
    (Page.read p s2);
  let seen = ref [] in
  Page.iter p (fun slot r -> seen := (slot, r) :: !seen);
  check
    Alcotest.(list (pair int string))
    "iter skips dead slots"
    [ (0, "alpha"); (2, "gamma") ]
    (List.rev !seen)

let test_page_capacity () =
  let p = Bytes.create Page.size in
  Page.format p;
  let big = String.make Page.capacity 'x' in
  check Alcotest.bool "full-capacity record fits" true (Page.has_room p (String.length big));
  ignore (Page.insert p big);
  check Alcotest.bool "page now full" false (Page.has_room p 1);
  Alcotest.check_raises "overflow rejected"
    (Invalid_argument "Page.insert: record does not fit")
    (fun () -> ignore (Page.insert p "y"))

let test_page_compaction_reclaims_dead_space () =
  (* fill a page, delete every other record, then insert a record larger
     than the watermark gap: only in-page compaction can make room, and
     it must preserve surviving slot numbers and contents *)
  let p = Bytes.create Page.size in
  Page.format p;
  let payload i = Printf.sprintf "%02d-%s" i (String.make 120 (Char.chr (97 + (i mod 26)))) in
  let slots = ref [] in
  (try
     let i = ref 0 in
     while Page.has_room p (String.length (payload !i)) do
       slots := Page.insert p (payload !i) :: !slots;
       incr i
     done
   with Invalid_argument _ -> ());
  let slots = Array.of_list (List.rev !slots) in
  check Alcotest.bool "page filled" true (Array.length slots > 10);
  let gap_full = Page.free_space p in
  Array.iteri (fun i s -> if i mod 2 = 0 then Page.delete p s) slots;
  check Alcotest.bool "dead bytes accumulated" true (Page.dead_bytes p > 0);
  (* the watermark gap did not grow: deletion alone reclaims nothing *)
  check Alcotest.int "gap unchanged by deletes" gap_full (Page.free_space p);
  let big = String.make (gap_full + 100) 'Z' in
  check Alcotest.bool "room counts compactable space" true
    (Page.has_room p (String.length big));
  let bslot = Page.insert p big in
  check Alcotest.(option string) "compacted insert readable" (Some big)
    (Page.read p bslot);
  Array.iteri
    (fun i s ->
      if i mod 2 = 1 then
        check Alcotest.(option string)
          (Printf.sprintf "survivor slot %d intact" s)
          (Some (payload i)) (Page.read p s))
    slots;
  check Alcotest.bool "dead slot entry recycled" true
    (Array.exists (fun s -> s = bslot) slots)

(* ------------------------------------------------------------------ *)
(* column chunks: codec roundtrip, torture values, corruption          *)
(* ------------------------------------------------------------------ *)

let sorted_row props =
  (* canonical on-disk order; duplicate property names keep the last
     binding, mirroring the store's upsert semantics *)
  let tbl = Hashtbl.create 8 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) props;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let column_roundtrip recs =
  let chunk = Column.decode (Column.encode recs) in
  Array.to_list (Column.rows chunk)
  |> List.map (fun (id, props) -> (id, sorted_row props))

let test_column_torture_values () =
  (* one record per corner: min_int/max_int ints, huge and empty and
     NUL-bearing strings, explicit Nulls (generic-encoding fallback),
     absent properties, structured values *)
  let huge = String.make 100_000 'h' in
  let recs =
    [|
      (0, [ ("i", Value.Int min_int); ("s", Value.Str "") ]);
      (1, [ ("i", Value.Int max_int); ("s", Value.Str huge) ]);
      (2, [ ("i", Value.Null); ("s", Value.Str "a\x00b") ]);
      (5, [ ("s", Value.Str huge); ("extra", Value.Bool false) ]);
      (9, [ ("i", Value.Int 0) ]);
      ( 12,
        [
          ("set", Value.set [ Value.Int 2; Value.Int 1 ]);
          ("obj", Value.Obj (Oid.make ~cls:"Item" ~id:3));
        ] );
      (100, []);
    |]
  in
  let expect =
    Array.to_list recs |> List.map (fun (id, ps) -> (id, sorted_row ps))
  in
  check Alcotest.bool "torture rows roundtrip" true
    (expect = column_roundtrip recs);
  (* selective decode agrees with full reassembly *)
  let chunk = Column.decode (Column.encode recs) in
  (match Column.find chunk "i" with
  | None -> Alcotest.fail "column i missing from directory"
  | Some col ->
    check
      Alcotest.(list int)
      "presence bitmap" [ 0; 1; 2; 4 ]
      (Column.presence chunk col);
    let vals = Column.read_column chunk col in
    check Alcotest.bool "read_column values" true
      (vals
      = [|
          Some (Value.Int min_int);
          Some (Value.Int max_int);
          Some Value.Null;
          None;
          Some (Value.Int 0);
          None;
          None;
        |]));
  check Alcotest.bool "unknown property absent" true
    (Column.find chunk "nope" = None)

let test_column_empty_and_all_null () =
  (* the degenerate chunks: zero rows, and a column that is Null on
     every present row (generic encoding, full presence) *)
  check Alcotest.bool "empty chunk roundtrips" true ([] = column_roundtrip [||]);
  let all_null = Array.init 6 (fun i -> (i, [ ("n", Value.Null) ])) in
  check Alcotest.bool "all-null column roundtrips" true
    (Array.to_list all_null |> List.map (fun (id, ps) -> (id, sorted_row ps))
    = column_roundtrip all_null);
  Alcotest.check_raises "non-ascending ids rejected"
    (Invalid_argument "Column.encode: oids not ascending")
    (fun () -> ignore (Column.encode [| (3, []); (3, []) |]))

let value_gen =
  let open QCheck2.Gen in
  oneof
    [
      return Value.Null;
      map (fun b -> Value.Bool b) bool;
      map (fun n -> Value.Int n) (oneof [ small_signed_int; int ]);
      map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 30));
      (* skewed strings exercise the dictionary encoding *)
      map
        (fun i -> Value.Str (Printf.sprintf "tag-%d" (i mod 3)))
        (int_range 0 9);
      map (fun id -> Value.Obj (Oid.make ~cls:"Item" ~id)) (int_range 0 99);
      map (fun xs -> Value.set (List.map (fun n -> Value.Int n) xs))
        (list_size (int_range 0 4) small_signed_int);
    ]

let chunk_gen =
  let open QCheck2.Gen in
  let props =
    (* distinct names per row: property lists are maps (the store upserts
       by name before any record reaches the codec) *)
    map
      (fun ps ->
        List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) ps)
      (list_size (int_range 0 5)
         (pair (oneofl [ "a"; "b"; "c"; "d"; "e" ]) value_gen))
  in
  (* strictly ascending ids via positive gaps *)
  map
    (fun rows ->
      let id = ref (-1) in
      Array.of_list
        (List.map
           (fun (gap, ps) ->
             id := !id + 1 + gap;
             (!id, ps))
           rows))
    (list_size (int_range 0 40) (pair (int_range 0 5) props))

let prop_column_roundtrip recs =
  let expect =
    Array.to_list recs |> List.map (fun (id, ps) -> (id, sorted_row ps))
  in
  let got = column_roundtrip recs in
  if expect <> got then
    QCheck2.Test.fail_reportf "chunk of %d rows did not roundtrip"
      (Array.length recs);
  true

let prop_column_chunk_roundtrip =
  QCheck2.Test.make ~count:200
    ~name:"column chunks roundtrip arbitrary records" chunk_gen
    prop_column_roundtrip

let prop_column_selective_parity recs =
  (* every column read selectively must agree with full reassembly *)
  let chunk = Column.decode (Column.encode recs) in
  let full = Column.rows chunk in
  Array.iter
    (fun (col : Column.column) ->
      let vals = Column.read_column chunk col in
      Array.iteri
        (fun row v ->
          let _, props = full.(row) in
          let expect = List.assoc_opt col.Column.cname props in
          if v <> expect then
            QCheck2.Test.fail_reportf "column %s row %d diverges"
              col.Column.cname row)
        vals)
    chunk.Column.columns;
  true

let prop_column_selective =
  QCheck2.Test.make ~count:200
    ~name:"selective column reads agree with full reassembly" chunk_gen
    prop_column_selective_parity

let prop_column_corruption (recs, pos, byte) =
  (* flip one byte anywhere in the payload: decode must either fail
     closed with Codec.Corrupt or still produce well-formed rows — it
     must never raise anything else *)
  let payload = Bytes.of_string (Column.encode recs) in
  if Bytes.length payload = 0 then true
  else begin
    let pos = pos mod Bytes.length payload in
    let flipped = Char.chr (Char.code (Bytes.get payload pos) lxor byte) in
    Bytes.set payload pos flipped;
    match Column.decode (Bytes.to_string payload) with
    | chunk ->
      (* survived the header checks; forcing the columns may still fail,
         but only with the typed error *)
      (try
         Array.iter
           (fun col -> ignore (Column.read_column chunk col))
           chunk.Column.columns
       with Codec.Corrupt _ -> ());
      true
    | exception Codec.Corrupt _ -> true
    | exception Invalid_argument _ -> true (* huge bogus length prefix *)
    | exception e ->
      QCheck2.Test.fail_reportf "byte %d flipped: escaped with %s" pos
        (Printexc.to_string e)
  end

let prop_column_fail_closed =
  QCheck2.Test.make ~count:300
    ~name:"corrupt chunk payloads fail closed with Codec.Corrupt"
    QCheck2.Gen.(triple chunk_gen (int_bound 10_000) (int_range 1 255))
    prop_column_corruption

(* ------------------------------------------------------------------ *)
(* buffer pool                                                         *)
(* ------------------------------------------------------------------ *)

(* a pool over an in-memory "disk" of formatted pages *)
let memory_pool ~pages =
  let disk = Hashtbl.create 16 in
  let counters = Counters.create () in
  let read_page ~cls ~page buf =
    match Hashtbl.find_opt disk (cls, page) with
    | Some img -> Bytes.blit img 0 buf 0 Page.size
    | None -> Bytes.fill buf 0 Page.size '\000'
  in
  let write_page ~cls ~page buf =
    Hashtbl.replace disk (cls, page) (Bytes.copy buf)
  in
  (Buffer_pool.create ~pages ~counters ~read_page ~write_page, disk, counters)

let test_pool_hits_and_evictions () =
  let pool, _, c = memory_pool ~pages:4 in
  check Alcotest.int "capacity respected" 4 (Buffer_pool.capacity pool);
  (* touch 4 pages: all cold misses *)
  for page = 1 to 4 do
    ignore (Buffer_pool.pin pool ~cls:"A" ~page);
    Buffer_pool.unpin pool ~cls:"A" ~page ~dirty:false
  done;
  check Alcotest.int "4 cold reads" 4 (Counters.get c Pages_read);
  check Alcotest.int "no hits yet" 0 (Counters.get c Pool_hits);
  (* touch them again: all hits, no traffic *)
  for page = 1 to 4 do
    ignore (Buffer_pool.pin pool ~cls:"A" ~page);
    Buffer_pool.unpin pool ~cls:"A" ~page ~dirty:false
  done;
  check Alcotest.int "re-reads hit" 4 (Counters.get c Pool_hits);
  check Alcotest.int "no extra reads" 4 (Counters.get c Pages_read);
  (* a 5th page forces one eviction *)
  ignore (Buffer_pool.pin pool ~cls:"A" ~page:5);
  Buffer_pool.unpin pool ~cls:"A" ~page:5 ~dirty:false;
  check Alcotest.int "one eviction" 1 (Counters.get c Pool_evictions);
  check Alcotest.int "still 4 resident" 4
    (List.length (Buffer_pool.resident pool))

let test_pool_dirty_writeback () =
  let pool, disk, c = memory_pool ~pages:4 in
  let data = Buffer_pool.pin pool ~cls:"A" ~page:1 in
  Page.format data;
  ignore (Page.insert data "persisted");
  Buffer_pool.unpin pool ~cls:"A" ~page:1 ~dirty:true;
  check Alcotest.int "not written yet" 0 (Counters.get c Pages_written);
  Buffer_pool.flush pool;
  check Alcotest.int "flushed once" 1 (Counters.get c Pages_written);
  (match Hashtbl.find_opt disk ("A", 1) with
  | Some img -> check Alcotest.(option string) "image holds the record"
      (Some "persisted")
      (Page.read (Bytes.copy img) 0)
  | None -> Alcotest.fail "dirty page never reached the disk");
  (* flushing again writes nothing: the frame is clean *)
  Buffer_pool.flush pool;
  check Alcotest.int "clean frames not rewritten" 1
    (Counters.get c Pages_written)

let test_pool_pinned_never_evicted () =
  let pool, _, _ = memory_pool ~pages:4 in
  (* pin all frames and ask for one more *)
  for page = 1 to 4 do
    ignore (Buffer_pool.pin pool ~cls:"A" ~page)
  done;
  Alcotest.match_raises "all-pinned pool refuses"
    (function Failure _ -> true | _ -> false)
    (fun () -> ignore (Buffer_pool.pin pool ~cls:"A" ~page:5));
  (* release one; the next pin succeeds by evicting it *)
  Buffer_pool.unpin pool ~cls:"A" ~page:2 ~dirty:false;
  ignore (Buffer_pool.pin pool ~cls:"A" ~page:5);
  check Alcotest.bool "victim was the unpinned page" false
    (List.mem ("A", 2) (Buffer_pool.resident pool))

(* ------------------------------------------------------------------ *)
(* store: basics, reopen, parity with the in-memory path               *)
(* ------------------------------------------------------------------ *)

let item_schema =
  Schema.make
    [
      Schema.cls "Item"
        ~properties:
          [ Schema.prop "n" Vtype.TInt; Schema.prop "s" Vtype.TString ];
    ]

let item id = Oid.make ~cls:"Item" ~id

let sorted_props ps =
  List.sort (fun (a, _) (b, _) -> String.compare a b) ps

let store_image t =
  (* oid -> sorted props, via the page scan *)
  fst (Store.scan_all t)
  |> List.map (fun (oid, props) -> (oid, sorted_props props))

let test_store_roundtrip () =
  F.with_temp_dir "soqm_disk" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      Store.apply t
        [
          Wal.Insert { oid = item 0; props = [ ("n", Value.Int 1); ("s", Value.Str "a") ] };
          Wal.Insert { oid = item 1; props = [ ("n", Value.Int 2); ("s", Value.Str "b") ] };
        ];
      Store.apply t
        [
          Wal.Update
            { oid = item 0; prop = "n"; value = Value.Int 7; old_value = Value.Int 1 };
        ];
      Store.apply t [ Wal.Insert { oid = item 2; props = [ ("n", Value.Int 3) ] } ];
      Store.apply t [ Wal.Delete { oid = item 1; props = [] } ];
      check Alcotest.bool "mem sees live" true (Store.mem t (item 0));
      check Alcotest.bool "mem sees deleted" false (Store.mem t (item 1));
      check F.value "update applied" (Value.Int 7)
        (List.assoc "n" (Store.fetch t (item 0)));
      check Alcotest.int "next id past highest" 3 (Store.next_id t);
      let before = store_image t in
      Store.close t (* checkpoints: WAL empty, pages durable *);
      let t' = Store.open_dir dir in
      check Alcotest.int "clean reopen recovers nothing" 0
        (Store.recovered_batches t');
      check Alcotest.int "WAL empty after checkpoint" 0 (Store.wal_bytes t');
      check Alcotest.bool "contents survive reopen" true
        (before = store_image t');
      check
        Alcotest.(list int)
        "extent in allocation order" [ 0; 2 ]
        (List.map Oid.id (Store.extent t' "Item"));
      Store.close t')

let test_store_records_span_pages () =
  (* enough records that every class needs several pages, with updates
     relocating rows across them *)
  F.with_temp_dir "soqm_disk" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      let blob i = String.make 300 (Char.chr (65 + (i mod 26))) in
      for i = 0 to 99 do
        Store.apply t
          [
            Wal.Insert
              { oid = item i; props = [ ("n", Value.Int i); ("s", Value.Str (blob i)) ] };
          ]
      done;
      for i = 0 to 99 do
        if i mod 3 = 0 then
          Store.apply t
            [
              Wal.Update
                {
                  oid = item i;
                  prop = "n";
                  value = Value.Int (-i);
                  old_value = Value.Int i;
                };
            ]
      done;
      check Alcotest.bool "multiple pages allocated" true
        (Store.data_pages t "Item" > 5);
      let rows, pages = Store.scan t "Item" in
      check Alcotest.int "all rows survive relocation" 100 (List.length rows);
      check Alcotest.int "scan touched every page" (Store.data_pages t "Item")
        pages;
      List.iteri
        (fun i (oid, props) ->
          check Alcotest.int "allocation order" i (Oid.id oid);
          let expect = if i mod 3 = 0 then -i else i in
          check F.value "updated in place" (Value.Int expect)
            (List.assoc "n" props))
        rows;
      (* a record past the page capacity spills into an overflow chain
         and reads back whole *)
      Store.apply t
        [
          Wal.Insert
            {
              oid = item 999;
              props = [ ("s", Value.Str (String.make 5000 'x')) ];
            };
        ];
      check F.value "overflow record round-trips" (Value.Str (String.make 5000 'x'))
        (List.assoc "s" (Store.fetch t (item 999)));
      check Alcotest.bool "stored as a chain" true
        (Store.overflow_chains t "Item" >= 1);
      Store.close t)

let test_store_prefetch_parity () =
  F.with_temp_dir "soqm_disk" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      for i = 0 to 199 do
        Store.apply t
          [
            Wal.Insert
              {
                oid = item i;
                props =
                  [ ("n", Value.Int i); ("s", Value.Str (String.make 100 'p')) ];
              };
          ]
      done;
      let plain = Store.scan ~prefetch:false t "Item" in
      let pre = Store.scan ~prefetch:true t "Item" in
      check Alcotest.bool "prefetched scan returns identical rows" true
        (plain = pre);
      Store.close t)

let test_db_disk_attachment () =
  (* Db.open_disk keeps the store attached: DML reaches the WAL, full
     scans drive pool traffic, close checkpoints *)
  F.with_temp_dir "soqm_db" (fun dir ->
      let db0 = F.tiny_db () in
      Soqm_core.Db.save db0 dir;
      let db = Soqm_core.Db.open_disk dir in
      (match db.Soqm_core.Db.disk with
      | None -> Alcotest.fail "open_disk did not attach the store"
      | Some d ->
        check Alcotest.int "clean open" 0 (Store.recovered_batches d);
        let wal0 = Store.wal_bytes d in
        let store = db.Soqm_core.Db.store in
        let oid =
          Object_store.create_object store ~cls:"Document"
            [ ("title", Value.Str "Crash Consistency") ]
        in
        check Alcotest.bool "DML reached the WAL" true
          (Store.wal_bytes d > wal0);
        check Alcotest.bool "and the pages" true (Store.mem d oid);
        Object_store.set_prop store oid "title" (Value.Str "Recovery");
        check F.value "update reached the pages" (Value.Str "Recovery")
          (List.assoc "title" (Store.fetch d oid)));
      Soqm_core.Db.close db;
      check Alcotest.bool "close detaches" true
        (db.Soqm_core.Db.disk = None);
      (* reload: the change is durable, queries agree with memory *)
      let db' = Soqm_core.Db.load dir in
      let titles cls_db =
        List.map
          (fun o -> Object_store.peek_prop cls_db.Soqm_core.Db.store o "title")
          (Object_store.extent cls_db.Soqm_core.Db.store "Document")
      in
      check Alcotest.bool "documents survive the round trip" true
        (List.mem (Value.Str "Recovery") (titles db')))

(* ------------------------------------------------------------------ *)
(* columnar segments: vacuum, shadowing, tombstones, corruption        *)
(* ------------------------------------------------------------------ *)

let populate_items t n =
  for i = 0 to n - 1 do
    Store.apply t
      [
        Wal.Insert
          {
            oid = item i;
            props =
              [
                ("n", Value.Int i);
                (* three distinct strings: dictionary-friendly *)
                ("s", Value.Str (Printf.sprintf "tag-%d" (i mod 3)));
              ];
          };
      ]
  done

let test_vacuum_roundtrip_and_reopen () =
  F.with_temp_dir "soqm_vac" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      populate_items t 150;
      let before = store_image t in
      let heap_pages = Store.data_pages t "Item" in
      check Alcotest.bool "row format before vacuum" false
        (Store.is_columnar t "Item");
      let n = Store.vacuum t "Item" in
      check Alcotest.int "every row rewritten" 150 n;
      check Alcotest.bool "flagged columnar" true (Store.is_columnar t "Item");
      check Alcotest.(list string) "columnar class listed" [ "Item" ]
        (Store.columnar_classes t);
      check Alcotest.int "heap emptied" 0 (Store.data_pages t "Item");
      check Alcotest.int "columnar rows" 150 (Store.columnar_rows t "Item");
      check Alcotest.bool "columnar smaller than the heap it replaced" true
        (Store.columnar_bytes t "Item" < heap_pages * Page.size);
      check Alcotest.bool "contents identical after vacuum" true
        (before = store_image t);
      check F.value "point fetch served from columns" (Value.Int 42)
        (List.assoc "n" (Store.fetch t (item 42)));
      Store.close t;
      (* reopen: the columnar flag and image come back from meta *)
      let t' = Store.open_dir dir in
      check Alcotest.bool "columnar after reopen" true
        (Store.is_columnar t' "Item");
      check Alcotest.bool "contents identical after reopen" true
        (before = store_image t');
      Store.close t';
      (* vacuum is idempotent over an unchanged class *)
      let t'' = Store.open_dir dir in
      check Alcotest.int "re-vacuum rewrites the same rows" 150
        (Store.vacuum t'' "Item");
      check Alcotest.bool "contents stable" true (before = store_image t'');
      Store.close t'')

let test_vacuum_dml_shadowing () =
  F.with_temp_dir "soqm_vac" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      populate_items t 60;
      ignore (Store.vacuum t "Item");
      (* post-vacuum DML: update shadows, delete tombstones, insert lands
         in the heap *)
      Store.apply t
        [
          Wal.Update
            { oid = item 7; prop = "n"; value = Value.Int (-7); old_value = Value.Int 7 };
        ];
      Store.apply t [ Wal.Delete { oid = item 8; props = [] } ];
      Store.apply t
        [ Wal.Insert { oid = item 60; props = [ ("n", Value.Int 60) ] } ];
      let live () =
        List.map Oid.id (Store.extent t "Item") |> List.sort Int.compare
      in
      check Alcotest.bool "delete hides the columnar row" true
        (not (List.mem 8 (live ())));
      check Alcotest.bool "insert visible" true (List.mem 60 (live ()));
      check F.value "update shadows the columnar value" (Value.Int (-7))
        (List.assoc "n" (Store.fetch t (item 7)));
      (* two tombstones: the delete, and the update — relocating a
         columnar row into the heap tombstones its columnar copy so it
         can never resurrect *)
      check Alcotest.int "tombstones recorded" 2
        (Store.columnar_tombstones t "Item");
      (* the WAL alone carries the tombstone until a checkpoint persists
         the sidecar: both a crash-reopen (WAL replay) and a clean
         checkpointed close must restore it *)
      Store.close ~checkpoint:false t;
      let t' = Store.open_dir dir in
      check Alcotest.int "tombstones recovered from the WAL" 2
        (Store.columnar_tombstones t' "Item");
      check F.value "shadow recovered" (Value.Int (-7))
        (List.assoc "n" (Store.fetch t' (item 7)));
      Store.close t' (* checkpoint: sidecar + meta durable, WAL empty *);
      let t'' = Store.open_dir dir in
      check Alcotest.int "tombstones persisted via checkpoint" 2
        (Store.columnar_tombstones t'' "Item");
      check Alcotest.bool "deleted row stays hidden" false
        (Store.mem t'' (item 8));
      (* re-vacuum folds the shadow and drops the tombstone *)
      ignore (Store.vacuum t'' "Item");
      check Alcotest.int "tombstones folded away" 0
        (Store.columnar_tombstones t'' "Item");
      check F.value "folded value" (Value.Int (-7))
        (List.assoc "n" (Store.fetch t'' (item 7)));
      check Alcotest.int "row count excludes the deleted" 60
        (Store.columnar_rows t'' "Item");
      Store.close t'')

let test_vacuum_scan_costs_and_counters () =
  F.with_temp_dir "soqm_vac" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      populate_items t 200;
      let c = Store.counters t in
      (* row path: record bytes charged to Bytes_read, every property
         decoded.  These live in the storage counter family, which
         accumulates across a workload — resetting that family, not the
         per-run Query reset, clears them *)
      Counters.reset c Storage;
      let rows, pages = Store.scan t "Item" in
      let row_bytes = Counters.get c Bytes_read in
      check Alcotest.bool "row scan: record bytes charged" true (row_bytes > 0);
      check Alcotest.bool "row scan: values decoded" true
        (Counters.get c Values_decoded >= 400);
      let row_pair = Store.scan_cost t "Item" in
      check Alcotest.bool "row scan_cost = pages * page size" true
        (row_pair = (pages, pages * Page.size));
      ignore (Store.vacuum t "Item");
      (* columnar full scan: chunk payloads, not pages *)
      Counters.reset c Storage;
      let crows, _ = Store.scan t "Item" in
      let full_bytes = Counters.get c Bytes_read in
      check Alcotest.bool "columnar scan rows identical" true
        (List.map snd rows |> List.map sorted_props
        = (List.map snd crows |> List.map sorted_props));
      check Alcotest.bool "columnar scan charges payload bytes" true
        (full_bytes > 0 && full_bytes < pages * Page.size);
      (* selective scan of the dictionary string column decodes fewer
         bytes than the full scan *)
      Counters.reset c Storage;
      let svals = Store.scan_columns t "Item" [ "s" ] in
      let sel_bytes = Counters.get c Bytes_read in
      check Alcotest.int "selective scan sees every row" 200
        (List.length svals);
      check Alcotest.bool
        (Printf.sprintf "selective < full decode (%d < %d)" sel_bytes
           full_bytes)
        true
        (sel_bytes < full_bytes);
      check Alcotest.bool "selective values correct" true
        (List.for_all
           (fun (oid, vs) ->
             vs = [ Some (Value.Str (Printf.sprintf "tag-%d" (Oid.id oid mod 3))) ])
           svals);
      (* the scan traffic model mirrors what explain --analyze charges *)
      Counters.reset c Storage;
      let _, meta_bytes = Store.scan_cost t "Item" in
      check Alcotest.int "scan_cost charges its own bytes" meta_bytes
        (Counters.get c Bytes_read);
      check Alcotest.bool "columnar meta cost below full decode" true
        (meta_bytes < full_bytes);
      Store.close t)

let test_colseg_corruption_fails_closed () =
  F.with_temp_dir "soqm_vac" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      populate_items t 80;
      ignore (Store.vacuum t "Item");
      Store.close t;
      let seg = Colseg.path ~dir ~cls:"Item" in
      let size = (Unix.stat seg).Unix.st_size in
      (* flip one byte in the last frame's CRC trailer *)
      let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd (size - 2) Unix.SEEK_SET);
      ignore (Unix.write_substring fd "\xaa" 0 1);
      Unix.close fd;
      Alcotest.match_raises "trailer damage detected on open"
        (function
          | Store.Format_error _ | Colseg.Format_error _ -> true | _ -> false)
        (fun () -> ignore (Store.open_dir dir));
      (* truncation mid-frame is equally fatal *)
      Unix.truncate seg (size - (size / 3));
      Alcotest.match_raises "truncated segment detected"
        (function
          | Store.Format_error _ | Colseg.Format_error _ -> true | _ -> false)
        (fun () -> ignore (Store.open_dir dir)))

let test_db_vacuum_plumbing () =
  (* Db.vacuum reaches the attached store; in-memory queries see no
     change; a reload serves the columnar image *)
  F.with_temp_dir "soqm_vacdb" (fun dir ->
      let db0 = F.tiny_db () in
      Soqm_core.Db.save db0 dir;
      let db = Soqm_core.Db.open_disk dir in
      let titles d =
        List.map
          (fun o -> Object_store.peek_prop d.Soqm_core.Db.store o "title")
          (Object_store.extent d.Soqm_core.Db.store "Document")
        |> List.sort compare
      in
      let before = titles db in
      let n = Soqm_core.Db.vacuum db "Document" in
      check Alcotest.bool "documents rewritten" true (n > 0);
      check Alcotest.bool "memory image unchanged" true (before = titles db);
      (match db.Soqm_core.Db.disk with
      | Some d ->
        check Alcotest.bool "store flagged" true (Store.is_columnar d "Document")
      | None -> Alcotest.fail "disk detached");
      Soqm_core.Db.close db;
      let db' = Soqm_core.Db.load dir in
      check Alcotest.bool "reload serves the columnar class" true
        (before = titles db');
      let mem = Soqm_core.Db.create_empty ~maintain:false () in
      Alcotest.check_raises "vacuum without a disk store refuses"
        (Invalid_argument "Db.vacuum: no attached disk store")
        (fun () -> ignore (Soqm_core.Db.vacuum mem "Document")))

(* ------------------------------------------------------------------ *)
(* clustered placement and the `Cluster vacuum                         *)
(* ------------------------------------------------------------------ *)

(* a minimal parent-child schema with a declared inverse: the placement
   policy derives [Kid -> par] as the clustering edge *)
let pc_schema =
  Schema.make
    [
      Schema.cls "Par"
        ~properties:
          [
            Schema.prop "name" Vtype.TString;
            Schema.prop "kids"
              (Vtype.TSet (Vtype.TObj "Kid"))
              ~inverse:("Kid", "par");
          ];
      Schema.cls "Kid"
        ~properties:
          [
            Schema.prop "n" Vtype.TInt;
            Schema.prop "pad" Vtype.TString;
            Schema.prop "par" (Vtype.TObj "Par") ~inverse:("Par", "kids");
          ];
    ]

let par id = Oid.make ~cls:"Par" ~id
let kid id = Oid.make ~cls:"Kid" ~id
let n_pars = 8
let n_kids = 400

(* kids assigned round-robin: consecutive OIDs belong to different
   parents, the worst case for path-expression locality *)
let populate_parents_round_robin t =
  for p = 0 to n_pars - 1 do
    Store.apply t
      [
        Wal.Insert
          {
            oid = par p;
            props = [ ("name", Value.Str (Printf.sprintf "par-%d" p)) ];
          };
      ]
  done;
  for k = 0 to n_kids - 1 do
    Store.apply t
      [
        Wal.Insert
          {
            oid = kid k;
            props =
              [
                ("n", Value.Int k);
                ("pad", Value.Str (String.make 150 'x'));
                ("par", Value.Obj (par (k mod n_pars)));
              ];
          };
      ]
  done

let kids_of p =
  List.init n_kids Fun.id
  |> List.filter (fun k -> k mod n_pars = p)
  |> List.map kid

let kid_image t =
  List.map (fun o -> (Oid.id o, sorted_props (Store.fetch t o)))
    (Store.extent t "Kid")
  |> List.sort compare

let test_insert_placement_clusters () =
  F.with_temp_dir "soqm_place" (fun dir ->
      let t = Store.create ~schema:pc_schema dir in
      check Alcotest.(option string) "policy derived from the inverse link"
        (Some "par")
        (Store.clustering_parent t "Kid");
      check Alcotest.bool "placement on by default" true
        (Store.placement_enabled t);
      populate_parents_round_robin t;
      let clustered = Store.locate_pages t (kids_of 0) in
      Store.close t;
      (* same trace with placement off: round-robin spreads each parent's
         kids over nearly every page *)
      F.with_temp_dir "soqm_noplace" (fun dir' ->
          let u = Store.create ~schema:pc_schema dir' in
          Store.set_placement u false;
          populate_parents_round_robin u;
          let scattered = Store.locate_pages u (kids_of 0) in
          check Alcotest.bool
            (Printf.sprintf "placement reads fewer pages (%d < %d)" clustered
               scattered)
            true
            (2 * clustered <= scattered);
          Store.close u))

let test_cluster_vacuum_improves_locality () =
  F.with_temp_dir "soqm_cluster" (fun dir ->
      let t = Store.create ~schema:pc_schema dir in
      Store.set_placement t false;
      populate_parents_round_robin t;
      let before_img = kid_image t in
      let scattered = Store.locate_pages t (kids_of 0) in
      let n = Store.vacuum ~mode:`Cluster t "Kid" in
      check Alcotest.int "every kid rewritten" n_kids n;
      check Alcotest.bool "heap stays row-format" false
        (Store.is_columnar t "Kid");
      let clustered = Store.locate_pages t (kids_of 0) in
      check Alcotest.bool
        (Printf.sprintf "clustering halves page reads (%d vs %d)" clustered
           scattered)
        true
        (2 * clustered <= scattered);
      check Alcotest.bool "contents identical after the rewrite" true
        (before_img = kid_image t);
      (* post-vacuum DML, then a crash: recovery replays over the
         re-clustered image *)
      Store.apply t
        [
          Wal.Insert
            {
              oid = kid n_kids;
              props =
                [
                  ("n", Value.Int n_kids);
                  ("pad", Value.Str "fresh");
                  ("par", Value.Obj (par 0));
                ];
            };
        ];
      Store.apply t
        [
          Wal.Update
            {
              oid = kid 0;
              prop = "n";
              value = Value.Int (-1);
              old_value = Value.Int 0;
            };
        ];
      Store.apply t [ Wal.Delete { oid = kid 1; props = [] } ];
      let after_dml = kid_image t in
      Store.close ~checkpoint:false t;
      let t' = Store.open_dir dir in
      check Alcotest.bool "crash recovery lands on the clustered image" true
        (after_dml = kid_image t');
      check F.value "update applied" (Value.Int (-1))
        (List.assoc "n" (Store.fetch t' (kid 0)));
      check Alcotest.bool "delete applied" false (Store.mem t' (kid 1));
      let still = Store.locate_pages t' (kids_of 0) in
      check Alcotest.bool "locality survives the reopen" true
        (2 * still <= scattered + 2);
      Store.close t';
      (* clean reopen after checkpoint: locality and contents stable *)
      let t'' = Store.open_dir dir in
      check Alcotest.bool "contents stable after checkpointed reopen" true
        (after_dml = kid_image t'');
      (* a columnar class accepts the `Cluster mode too: the rows are
         re-vacuumed with chunk boundaries aligned to parent groups *)
      ignore (Store.vacuum t'' "Kid");
      check Alcotest.bool "columnar now" true (Store.is_columnar t'' "Kid");
      let col_img = kid_image t'' in
      ignore (Store.vacuum ~mode:`Cluster t'' "Kid");
      check Alcotest.bool "still columnar after `Cluster" true
        (Store.is_columnar t'' "Kid");
      check Alcotest.bool "columnar contents unchanged" true
        (col_img = kid_image t'');
      Store.close t'')

(* ------------------------------------------------------------------ *)
(* overflow chains: records past one page, on heap and columnar paths  *)
(* ------------------------------------------------------------------ *)

let test_overflow_chains_roundtrip () =
  F.with_temp_dir "soqm_overflow" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      let big i = String.make (4000 + (i * 1700)) (Char.chr (97 + i)) in
      for i = 0 to 4 do
        Store.apply t
          [
            Wal.Insert
              {
                oid = item i;
                props = [ ("n", Value.Int i); ("s", Value.Str (big i)) ];
              };
          ]
      done;
      Store.apply t
        [ Wal.Insert { oid = item 5; props = [ ("n", Value.Int 5) ] } ];
      check Alcotest.bool "chains allocated" true
        (Store.overflow_chains t "Item" >= 4);
      let fetch_ok t' =
        List.for_all
          (fun i -> List.assoc "s" (Store.fetch t' (item i)) = Value.Str (big i))
          [ 0; 1; 2; 3; 4 ]
      in
      check Alcotest.bool "oversize records round-trip" true (fetch_ok t);
      (* the scan path must reassemble chains identically *)
      check Alcotest.int "scan sees every record" 6
        (List.length (fst (Store.scan_all t)));
      (* crash: chains are rebuilt from the WAL replay *)
      Store.close ~checkpoint:false t;
      let t' = Store.open_dir dir in
      check Alcotest.bool "chains recovered from the WAL" true (fetch_ok t');
      Store.close t' (* checkpoint *);
      let t'' = Store.open_dir dir in
      check Alcotest.bool "chains survive a checkpointed reopen" true
        (fetch_ok t'');
      (* an overwrite drops the old chain's continuation parts *)
      Store.apply t''
        [
          Wal.Update
            {
              oid = item 0;
              prop = "s";
              value = Value.Str "short now";
              old_value = Value.Str (big 0);
            };
        ];
      check F.value "shrunk record readable" (Value.Str "short now")
        (List.assoc "s" (Store.fetch t'' (item 0)));
      (* the columnar path carries the same oversize values *)
      ignore (Store.vacuum t'' "Item");
      check Alcotest.bool "columnar" true (Store.is_columnar t'' "Item");
      check Alcotest.bool "oversize values intact in columns" true
        (List.for_all
           (fun i -> List.assoc "s" (Store.fetch t'' (item i)) = Value.Str (big i))
           [ 1; 2; 3; 4 ]);
      Store.close t'';
      let t3 = Store.open_dir dir in
      check Alcotest.bool "columnar oversize survives reopen" true
        (List.for_all
           (fun i -> List.assoc "s" (Store.fetch t3 (item i)) = Value.Str (big i))
           [ 1; 2; 3; 4 ]);
      Store.close t3)

(* ------------------------------------------------------------------ *)
(* persistent derived state: derived.idx and the O(dirty) open         *)
(* ------------------------------------------------------------------ *)

module Db = Soqm_core.Db
module Persist = Soqm_maintenance.Persist

(* canonical dump of everything derived.idx covers — for equality
   between the image fast path and a from-scratch rebuild *)
let derived_signature (db : Db.t) =
  let hash =
    let acc = ref [] in
    Soqm_storage.Hash_index.iter db.Db.title_index (fun v oids ->
        acc := (v, List.sort Oid.compare oids) :: !acc);
    List.sort compare !acc
  in
  let sorted =
    let acc = ref [] in
    Soqm_storage.Sorted_index.iter_entries db.Db.word_count_index (fun v oid ->
        acc := (v, oid) :: !acc);
    List.rev !acc
  in
  let text =
    let acc = ref [] in
    Soqm_ir.Inverted_index.iter_postings db.Db.text_index (fun w keys ->
        acc := (w, List.sort Oid.compare keys) :: !acc);
    List.sort compare !acc
  in
  let sets =
    match Db.maintenance db with
    | None -> []
    | Some m ->
      List.map
        (fun (name, members) -> (name, List.sort compare members))
        (Soqm_maintenance.Maintenance.set_members m)
      |> List.sort compare
  in
  (hash, sorted, text, sets)

let base_image (db : Db.t) =
  List.concat_map
    (fun (cd : Schema.class_def) ->
      List.map
        (fun o ->
          ( o,
            List.map
              (fun (p : Schema.property) ->
                ( p.Schema.prop_name,
                  Object_store.peek_prop db.Db.store o p.Schema.prop_name ))
              cd.Schema.properties ))
        (Object_store.extent db.Db.store cd.Schema.cls_name))
    (Schema.classes (Object_store.schema db.Db.store))
  |> List.sort compare

(* abandon a Db mid-flight: close the paged files without checkpointing,
   exactly what a crash leaves behind *)
let crash_db (db : Db.t) =
  match db.Db.disk with
  | Some d ->
    db.Db.disk <- None;
    Store.close ~checkpoint:false d
  | None -> Alcotest.fail "no attached disk store to crash"

let some_title store =
  match Object_store.extent store "Document" with
  | d :: _ -> Object_store.peek_prop store d "title"
  | [] -> Alcotest.fail "no documents"

let dirty_up store =
  (* one of each op kind, all index-relevant *)
  let sec = List.hd (Object_store.extent store "Section") in
  let fresh =
    Object_store.create_object store ~cls:"Paragraph"
      [
        ("number", Value.Int 990);
        ("word_count", Value.Int 4096);
        ("content", Value.Str "replayed tail paragraph");
        ("section", Value.Obj sec);
      ]
  in
  let doc = List.hd (Object_store.extent store "Document") in
  Object_store.set_prop store doc "title" (Value.Str "Tail Title");
  (match
     List.find_opt
       (fun p -> not (Oid.equal p fresh))
       (Object_store.extent store "Paragraph")
   with
  | Some victim -> Object_store.delete_object store victim
  | None -> ())

let test_derived_fast_open_replays_tail () =
  F.with_temp_dir "soqm_derived" (fun dir ->
      let db0 = F.tiny_db () in
      Db.save db0 dir;
      check Alcotest.bool "save writes the image" true
        (Persist.read ~dir <> None);
      let db = Db.open_disk dir in
      dirty_up db.Db.store;
      crash_db db;
      (* the fast-path preconditions hold on disk: the image's stamp
         matches the store's checkpoint sequence and the crash left a
         WAL tail to replay *)
      (match Persist.read ~dir with
      | None -> Alcotest.fail "image unreadable after the crash"
      | Some img ->
        let t = Store.open_dir dir in
        check Alcotest.int "image stamped with the checkpoint seq"
          (Store.checkpoint_seq t) img.Persist.seq;
        check Alcotest.bool "WAL tail present" true
          (Store.recovered_ops t <> []);
        Store.close ~checkpoint:false t);
      let fast = Db.load dir in
      let fast_sig = derived_signature fast in
      let fast_base = base_image fast in
      (* the image is a pure cache: removing it forces the O(extent)
         rebuild, which must agree exactly *)
      Persist.remove ~dir;
      let rebuilt = Db.load dir in
      check Alcotest.bool "fast open = from-scratch rebuild" true
        (fast_sig = derived_signature rebuilt);
      check Alcotest.bool "base data agrees too" true
        (fast_base = base_image rebuilt);
      check F.value "tail update visible through the fast path"
        (Value.Str "Tail Title")
        (some_title fast.Db.store))

let test_derived_corrupt_or_stale_falls_back () =
  F.with_temp_dir "soqm_derived" (fun dir ->
      let db0 = F.tiny_db () in
      Db.save db0 dir;
      let oracle = Db.load dir in
      let oracle_sig = derived_signature oracle in
      (* flip a byte inside the image: CRC rejects it, load rebuilds *)
      let p = Persist.path ~dir in
      let size = (Unix.stat p).Unix.st_size in
      let fd = Unix.openfile p [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd (size / 2) Unix.SEEK_SET);
      ignore (Unix.write_substring fd "\xff" 0 1);
      Unix.close fd;
      check Alcotest.(option reject) "corrupt image reads as None" None
        (Option.map ignore (Persist.read ~dir));
      let recovered = Db.load dir in
      check Alcotest.bool "corrupt image falls back to a full rebuild" true
        (oracle_sig = derived_signature recovered);
      (* stale stamp: checkpoint the store without rewriting the image *)
      Db.save db0 dir;
      let t = Store.open_dir dir in
      Store.apply t
        [
          Wal.Insert
            {
              oid = Oid.make ~cls:"Document" ~id:9999;
              props = [ ("title", Value.Str "Orphan") ];
            };
        ];
      Store.checkpoint t;
      Store.close t;
      (match Persist.read ~dir with
      | Some img ->
        let t' = Store.open_dir dir in
        check Alcotest.bool "stamp is stale now" true
          (img.Persist.seq <> Store.checkpoint_seq t');
        Store.close ~checkpoint:false t'
      | None -> Alcotest.fail "image vanished");
      let stale = Db.load dir in
      check Alcotest.bool "stale image ignored, document indexed" true
        (List.length
           (Soqm_storage.Hash_index.probe stale.Db.title_index
              (Object_store.counters stale.Db.store)
              (Value.Str "Orphan"))
        = 1))

(* torture: random DML against an attached store, crash at a random
   point, reopen through the image fast path — the derived state must
   equal a from-scratch rebuild, for any trace and any kill point. *)
type ddl =
  | SetWc of int * int
  | SetTitle of int * int
  | NewPara of int * int
  | DelPara of int

let ddl_gen =
  let open QCheck2.Gen in
  let ix = int_bound 999 in
  oneof
    [
      map2 (fun i wc -> SetWc (i, wc)) ix (int_range 0 2000);
      map2 (fun i s -> SetTitle (i, s)) ix (int_bound 9);
      map2 (fun i wc -> NewPara (i, wc)) ix (int_range 0 2000);
      map (fun i -> DelPara i) ix;
    ]

let apply_ddl store op =
  let pick cls i =
    match Object_store.extent store cls with
    | [] -> None
    | xs -> Some (List.nth xs (i mod List.length xs))
  in
  match op with
  | SetWc (i, wc) -> (
    match pick "Paragraph" i with
    | Some p -> Object_store.set_prop store p "word_count" (Value.Int wc)
    | None -> ())
  | SetTitle (i, s) -> (
    match pick "Document" i with
    | Some d ->
      Object_store.set_prop store d "title"
        (Value.Str (Printf.sprintf "Torture Title %d" s))
    | None -> ())
  | NewPara (i, wc) -> (
    match pick "Section" i with
    | Some sec ->
      ignore
        (Object_store.create_object store ~cls:"Paragraph"
           [
             ("number", Value.Int (1000 + i));
             ("word_count", Value.Int wc);
             ("content", Value.Str (Printf.sprintf "torture body %d" i));
             ("section", Value.Obj sec);
           ])
    | None -> ())
  | DelPara i -> (
    match pick "Paragraph" i with
    | Some p -> Object_store.delete_object store p
    | None -> ())

(* template database saved once; each case clones the directory *)
let derived_template =
  lazy
    (let dir =
       Filename.concat (Filename.get_temp_dir_name ())
         (Printf.sprintf "soqm_derived_template_%d" (Unix.getpid ()))
     in
     if not (Sys.file_exists dir) then begin
       let db0 = F.tiny_db () in
       Db.save db0 dir
     end;
     dir)

let clone_dir src dst =
  if not (Sys.file_exists dst) then Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let s = In_channel.with_open_bin (Filename.concat src name)
          In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat dst name) (fun oc ->
          Out_channel.output_string oc s))
    (Sys.readdir src)

let prop_derived_torture (ops, kill_pct) =
  let template = Lazy.force derived_template in
  F.with_temp_dir "soqm_dtorture" (fun dir ->
      clone_dir template dir;
      let db = Db.open_disk dir in
      let keep = List.length ops * kill_pct / 100 in
      List.iteri
        (fun i op -> if i < keep then apply_ddl db.Db.store op)
        ops;
      crash_db db;
      let fast = Db.load dir in
      let fast_sig = derived_signature fast in
      let fast_base = base_image fast in
      Persist.remove ~dir;
      let rebuilt = Db.load dir in
      if
        fast_sig <> derived_signature rebuilt
        || fast_base <> base_image rebuilt
      then
        QCheck2.Test.fail_reportf
          "derived state diverged after %d/%d ops (kill %d%%)" keep
          (List.length ops) kill_pct;
      true)

let prop_derived_persistence_torture =
  QCheck2.Test.make ~count:15
    ~name:"image + WAL-tail replay = from-scratch rebuild, any kill point"
    QCheck2.Gen.(
      pair (list_size (int_range 1 25) ddl_gen) (int_range 0 100))
    prop_derived_torture

(* ------------------------------------------------------------------ *)
(* WAL recovery: deterministic cases                                   *)
(* ------------------------------------------------------------------ *)

let wal_path dir = Filename.concat dir "wal"

let test_recovery_replays_uncheckpointed () =
  F.with_temp_dir "soqm_disk" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      Store.apply t [ Wal.Insert { oid = item 0; props = [ ("n", Value.Int 1) ] } ];
      Store.apply t [ Wal.Insert { oid = item 1; props = [ ("n", Value.Int 2) ] } ];
      (* crash: dirty pages in the pool are lost, the WAL survives *)
      Store.close ~checkpoint:false t;
      let t' = Store.open_dir dir in
      check Alcotest.int "both batches redone" 2 (Store.recovered_batches t');
      check Alcotest.int "records restored" 2
        (List.length (Store.extent t' "Item"));
      check F.value "payload intact" (Value.Int 2)
        (List.assoc "n" (Store.fetch t' (item 1)));
      (* recovery is idempotent: reopening again replays the same WAL
         over the same (still unflushed) base image *)
      Store.close ~checkpoint:false t';
      let t'' = Store.open_dir dir in
      check Alcotest.int "stable under re-recovery" 2
        (List.length (Store.extent t'' "Item"));
      Store.close t'')

let test_recovery_discards_torn_tail () =
  F.with_temp_dir "soqm_disk" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      Store.apply t [ Wal.Insert { oid = item 0; props = [ ("n", Value.Int 1) ] } ];
      let committed = Store.wal_bytes t in
      (* the torn batch mixes every record kind, including the
         pre-imaged update ('V') and snapshotting delete ('E') frames *)
      Store.apply t
        [
          Wal.Insert { oid = item 1; props = [ ("n", Value.Int 2) ] };
          Wal.Update
            {
              oid = item 0;
              prop = "n";
              value = Value.Int 10;
              old_value = Value.Int 1;
            };
          Wal.Delete { oid = item 0; props = [ ("n", Value.Int 10) ] };
        ];
      let full = Store.wal_bytes t in
      Store.close ~checkpoint:false t;
      (* tear the second batch's tail *)
      Unix.truncate (wal_path dir) (committed + ((full - committed) / 2));
      let t' = Store.open_dir dir in
      check Alcotest.int "only the intact batch replays" 1
        (Store.recovered_batches t');
      check Alcotest.(list int) "its record is live" [ 0 ]
        (List.map Oid.id (Store.extent t' "Item"));
      check Alcotest.int "torn tail truncated away" committed
        (Store.wal_bytes t');
      (* corrupt a byte inside the surviving batch: checksum kills it *)
      Store.close ~checkpoint:false t';
      let fd = Unix.openfile (wal_path dir) [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd (committed - 3) Unix.SEEK_SET);
      ignore (Unix.write_substring fd "\xff" 0 1);
      Unix.close fd;
      let t'' = Store.open_dir dir in
      check Alcotest.int "checksum failure discards the batch" 0
        (Store.recovered_batches t'');
      Store.close t'')

(* ------------------------------------------------------------------ *)
(* lock file: one process per database directory                       *)
(* ------------------------------------------------------------------ *)

let test_lock_blocks_second_process () =
  (* lockf locks are per-process, so the contender must be a real child
     process: fork, try to open the held directory, report via exit
     status.  (Forked before any domain is spawned.) *)
  F.with_temp_dir "soqm_lock" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      Store.apply t [ Wal.Insert { oid = item 0; props = [ ("n", Value.Int 1) ] } ];
      (match Unix.fork () with
      | 0 ->
        (* child: both open_dir and create must refuse *)
        let refused f =
          match f () with
          | (_ : Store.t) -> false
          | exception Store.Locked _ -> true
          | exception _ -> false
        in
        let ok =
          refused (fun () -> Store.open_dir dir)
          && refused (fun () -> Store.create ~schema:item_schema dir)
        in
        Unix._exit (if ok then 0 else 1)
      | pid ->
        let _, status = Unix.waitpid [] pid in
        check Alcotest.bool "second process fails fast with Locked" true
          (status = Unix.WEXITED 0));
      (* create-over-locked must not have destroyed the live store *)
      check Alcotest.bool "holder's data intact" true (Store.mem t (item 0));
      Store.close t;
      (* after close the lock is free again *)
      let t' = Store.open_dir dir in
      check Alcotest.bool "reopen after close" true (Store.mem t' (item 0));
      Store.close t')

(* ------------------------------------------------------------------ *)
(* group commit: commit_many batching and the leader/follower queue    *)
(* ------------------------------------------------------------------ *)

let test_commit_many_single_fsync () =
  F.with_temp_dir "soqm_group" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      let c = Store.counters t in
      let f0 = Counters.get c Wal_fsyncs in
      (* three batches through the group queue from one thread: each
         submit is its own flush here, but commit_many inside a flush
         of k batches costs one fsync *)
      let batches =
        List.init 3 (fun i ->
            [ Wal.Insert { oid = item i; props = [ ("n", Value.Int i) ] } ])
      in
      let tickets = List.map (Store.enqueue_group t) batches in
      Store.wait_group t (List.nth tickets 2);
      check Alcotest.int "three enqueued batches flush with one fsync"
        (f0 + 1) (Counters.get c Wal_fsyncs);
      check Alcotest.int "wal_commits counts every batch" 3
        (Counters.get c Wal_commits);
      check Alcotest.int "all records applied" 3
        (List.length (Store.extent t "Item"));
      (* waiting again on a flushed ticket is a no-op *)
      Store.wait_group t (List.hd tickets);
      (* crash without checkpoint: recovery replays all three batches *)
      Store.close ~checkpoint:false t;
      let t' = Store.open_dir dir in
      check Alcotest.int "grouped batches recover individually" 3
        (Store.recovered_batches t');
      check Alcotest.int "records restored" 3
        (List.length (Store.extent t' "Item"));
      Store.close t')

let test_group_commit_concurrent_coalescing () =
  F.with_temp_dir "soqm_group" (fun dir ->
      let t = Store.create ~schema:item_schema dir in
      Store.set_group_window t 0.005;
      let c = Store.counters t in
      let f0 = Counters.get c Wal_fsyncs in
      let n = 16 in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to (n / 4) - 1 do
                  let id = (d * n / 4) + i in
                  Store.apply_group t
                    [ Wal.Insert { oid = item id; props = [ ("n", Value.Int id) ] } ]
                done))
      in
      List.iter Domain.join domains;
      let fsyncs = Counters.get c Wal_fsyncs - f0 in
      check Alcotest.int "every batch committed" n (Counters.get c Wal_commits);
      check Alcotest.int "every record applied" n
        (List.length (Store.extent t "Item"));
      check Alcotest.bool
        (Printf.sprintf "fsyncs coalesced (%d < %d)" fsyncs n)
        true (fsyncs < n && fsyncs >= 1);
      Store.close t;
      let t' = Store.open_dir dir in
      check Alcotest.int "durable after checkpointed close" n
        (List.length (Store.extent t' "Item"));
      Store.close t')

(* A failing flush (WAL write or fsync error) must surface to every
   waiter in the drained group, not just the leader — a follower
   returning normally would report Committed on a batch that was never
   made durable. *)
let test_group_flush_failure_propagates () =
  let boom = Failure "fsync failed" in
  let g = Group_commit.create ~flush:(fun _ -> raise boom) () in
  let batch i = [ Wal.Insert { oid = item i; props = [] } ] in
  let t1 = Group_commit.enqueue g (batch 0) in
  let t2 = Group_commit.enqueue g (batch 1) in
  (* the first wait leads and drains both batches into the failing flush *)
  (match Group_commit.wait g t1 with
  | () -> Alcotest.fail "leader must see the flush failure"
  | exception Failure _ -> ());
  (* the second batch was in the same failed group: its (non-leading)
     wait must raise the same error instead of reporting durability *)
  (match Group_commit.wait g t2 with
  | () -> Alcotest.fail "follower must see the flush failure"
  | exception Failure _ -> ());
  check Alcotest.int "failed group leaves nothing pending" 0
    (Group_commit.pending g)

(* ------------------------------------------------------------------ *)
(* crash-recovery torture: random trace, random cut                    *)
(* ------------------------------------------------------------------ *)

(* oracle replay mirroring the store's idempotent upsert semantics *)
let oracle_apply tbl (op : Wal.op) =
  match op with
  | Wal.Insert { oid; props } -> Hashtbl.replace tbl oid props
  | Wal.Update { oid; prop; value; _ } ->
    let props =
      match Hashtbl.find_opt tbl oid with Some ps -> ps | None -> []
    in
    Hashtbl.replace tbl oid ((prop, value) :: List.remove_assoc prop props)
  | Wal.Delete { oid; _ } -> Hashtbl.remove tbl oid

let op_gen =
  let open QCheck2.Gen in
  let oid = map item (int_range 0 19) in
  let value =
    frequency
      [
        (4, map (fun n -> Value.Int n) small_signed_int);
        (4, map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 40)));
        (* oversize: forces a head + continuation chain (v2 records),
           so torn-tail recovery also tortures chain reassembly *)
        (1, map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 4200 9000)));
      ]
  in
  oneof
    [
      map2
        (fun o (n, s) ->
          Wal.Insert { oid = o; props = [ ("n", Value.Int n); ("s", s) ] })
        oid
        (pair small_signed_int value);
      map2
        (fun o v ->
          Wal.Update { oid = o; prop = "s"; value = v; old_value = Value.Null })
        oid value;
      map (fun o -> Wal.Delete { oid = o; props = [] }) oid;
    ]

let trace_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 12) (list_size (int_range 1 5) op_gen))
      (* cut position as a fraction of the final WAL size, biased to
         land inside the log but covering both extremes *)
      (int_range 0 100))

let prop_torture (batches, cut_pct) =
  F.with_temp_dir "soqm_torture" (fun dir ->
      (* pool larger than the working set: no evictions before the
         crash, so the heap image stays at the (empty) base and recovery
         is driven by the WAL alone — the invariant that makes an
         arbitrary cut offset meaningful *)
      let t = Store.create ~pool_pages:512 ~schema:item_schema dir in
      let ends =
        List.map
          (fun ops ->
            Store.apply t ops;
            Store.wal_bytes t)
          batches
      in
      let total = Store.wal_bytes t in
      (* crash without flushing anything *)
      Store.close ~checkpoint:false t;
      let cut = total * cut_pct / 100 in
      Unix.truncate (wal_path dir) cut;
      let t' = Store.open_dir dir in
      let committed =
        List.concat
          (List.filteri (fun i _ -> List.nth ends i <= cut) batches)
      in
      let oracle = Hashtbl.create 32 in
      List.iter (oracle_apply oracle) committed;
      let expected =
        Hashtbl.fold (fun oid props acc -> (oid, sorted_props props) :: acc)
          oracle []
        |> List.sort (fun (a, _) (b, _) -> Int.compare (Oid.id a) (Oid.id b))
      in
      let actual = store_image t' in
      let batches_committed =
        List.length (List.filter (fun e -> e <= cut) ends)
      in
      let recovered_ok = Store.recovered_batches t' = batches_committed in
      let truncated_ok = Store.wal_bytes t' <= cut in
      Store.close ~checkpoint:false t';
      if not (expected = actual && recovered_ok && truncated_ok) then
        QCheck2.Test.fail_reportf
          "cut %d/%d bytes: %d/%d batches committed, store has %d records, \
           oracle %d, recovered=%d"
          cut total batches_committed (List.length ends) (List.length actual)
          (List.length expected) (Store.recovered_batches t');
      true)

let prop_crash_recovery_torture =
  QCheck2.Test.make ~count:60
    ~name:"WAL cut at any offset recovers the committed prefix exactly"
    trace_gen prop_torture

(* Grouped variant: batches reach the WAL through the group-commit
   queue, several per physical write, so a cut can now land in the
   middle of a coalesced write.  Recovery must still restore exactly
   the prefix of batches whose Commit frame survived — never a torn
   suffix of a group, never out of order. *)
let group_trace_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 8)
         (list_size (int_range 1 4) (list_size (int_range 1 4) op_gen)))
      (int_range 0 100))

let prop_group_torture (groups, cut_pct) =
  F.with_temp_dir "soqm_gtorture" (fun dir ->
      let t = Store.create ~pool_pages:512 ~schema:item_schema dir in
      let group_ends =
        List.map
          (fun batches ->
            let tickets = List.map (Store.enqueue_group t) batches in
            Store.wait_group t (List.nth tickets (List.length tickets - 1));
            Store.wal_bytes t)
          groups
      in
      let total = Store.wal_bytes t in
      Store.close ~checkpoint:false t;
      let cut = total * cut_pct / 100 in
      Unix.truncate (wal_path dir) cut;
      let t' = Store.open_dir dir in
      let r = Store.recovered_batches t' in
      let all_batches = List.concat groups in
      (* a group whose write ended at or before the cut is fully
         committed; a group that started after the cut contributes
         nothing; a group torn by the cut contributes some prefix *)
      let sizes = List.map List.length groups in
      let low =
        List.fold_left2
          (fun acc size e -> if e <= cut then acc + size else acc)
          0 sizes group_ends
      in
      let starts = 0 :: List.filteri (fun i _ -> i < List.length group_ends - 1) group_ends in
      let high =
        List.fold_left2
          (fun acc size s -> if s < cut then acc + size else acc)
          0 sizes starts
      in
      let oracle = Hashtbl.create 32 in
      List.iteri
        (fun i ops -> if i < r then List.iter (oracle_apply oracle) ops)
        all_batches;
      let expected =
        Hashtbl.fold (fun oid props acc -> (oid, sorted_props props) :: acc)
          oracle []
        |> List.sort (fun (a, _) (b, _) -> Int.compare (Oid.id a) (Oid.id b))
      in
      let actual = store_image t' in
      let bounds_ok = low <= r && r <= high in
      let truncated_ok = Store.wal_bytes t' <= cut in
      Store.close ~checkpoint:false t';
      if not (expected = actual && bounds_ok && truncated_ok) then
        QCheck2.Test.fail_reportf
          "cut %d/%d bytes: recovered %d batches (bounds %d..%d), store has \
           %d records, prefix oracle %d"
          cut total r low high (List.length actual) (List.length expected);
      true)

let prop_group_crash_recovery_torture =
  QCheck2.Test.make ~count:60
    ~name:"cut inside a coalesced group-commit write recovers a clean prefix"
    group_trace_gen prop_group_torture

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "disk"
    [
      (* first: Unix.fork is only legal before any domain is spawned,
         and the pool/store tests below start domains *)
      ( "lock",
        [ F.case "second process refused" test_lock_blocks_second_process ] );
      ( "codec",
        [
          F.case "values roundtrip" test_codec_values;
          F.case "garbage rejected" test_codec_rejects_garbage;
          F.case "schema roundtrips" test_codec_schema_roundtrip;
        ] );
      ( "pages",
        [
          F.case "slot ops" test_page_ops;
          F.case "capacity" test_page_capacity;
          F.case "compaction reclaims dead space"
            test_page_compaction_reclaims_dead_space;
        ] );
      ( "columns",
        [
          F.case "torture values" test_column_torture_values;
          F.case "empty and all-null chunks" test_column_empty_and_all_null;
          QCheck_alcotest.to_alcotest prop_column_chunk_roundtrip;
          QCheck_alcotest.to_alcotest prop_column_selective;
          QCheck_alcotest.to_alcotest prop_column_fail_closed;
        ] );
      ( "pool",
        [
          F.case "hits and evictions" test_pool_hits_and_evictions;
          F.case "dirty write-back" test_pool_dirty_writeback;
          F.case "pins block eviction" test_pool_pinned_never_evicted;
        ] );
      ( "store",
        [
          F.case "roundtrip and reopen" test_store_roundtrip;
          F.case "records span pages" test_store_records_span_pages;
          F.case "prefetch parity" test_store_prefetch_parity;
          F.case "db attachment" test_db_disk_attachment;
        ] );
      ( "columnar",
        [
          F.case "vacuum roundtrip and reopen" test_vacuum_roundtrip_and_reopen;
          F.case "DML shadows, tombstones persist" test_vacuum_dml_shadowing;
          F.case "scan costs and counters" test_vacuum_scan_costs_and_counters;
          F.case "corrupt segments fail closed"
            test_colseg_corruption_fails_closed;
          F.case "Db.vacuum plumbing" test_db_vacuum_plumbing;
        ] );
      ( "clustering",
        [
          F.case "insert-time placement clusters siblings"
            test_insert_placement_clusters;
          F.case "`Cluster vacuum improves locality"
            test_cluster_vacuum_improves_locality;
        ] );
      ( "overflow",
        [ F.case "chains round-trip, recover, vacuum" test_overflow_chains_roundtrip ] );
      ( "derived-image",
        [
          F.case "fast open replays the WAL tail"
            test_derived_fast_open_replays_tail;
          F.case "corrupt or stale image falls back"
            test_derived_corrupt_or_stale_falls_back;
          QCheck_alcotest.to_alcotest prop_derived_persistence_torture;
        ] );
      ( "group-commit",
        [
          F.case "commit_many costs one fsync" test_commit_many_single_fsync;
          F.case "concurrent commits coalesce"
            test_group_commit_concurrent_coalescing;
          F.case "flush failure reaches every waiter"
            test_group_flush_failure_propagates;
        ] );
      ( "recovery",
        [
          F.case "uncheckpointed batches replay" test_recovery_replays_uncheckpointed;
          F.case "torn tails discarded" test_recovery_discards_torn_tail;
          QCheck_alcotest.to_alcotest prop_crash_recovery_torture;
          QCheck_alcotest.to_alcotest prop_group_crash_recovery_torture;
        ] );
    ]
