open Soqm_vml
open Soqm_storage

type t = {
  store : Object_store.t;
  title_index : Hash_index.t;
  word_count_index : Sorted_index.t;
  text_index : Oid.t Soqm_ir.Inverted_index.t;
  mutable stats : Statistics.t;
  mutable maint : Soqm_maintenance.Maintenance.t option;
  mutable default_jobs : int;
  mutable disk : Soqm_disk.Store.t option;
  mutable disk_buf : Soqm_disk.Wal.op list ref option;
}

let register_external_methods t =
  let store = t.store in
  (* Document->select_by_index(title): one probe of the title index. *)
  Object_store.register_own_method store ~cls:"Document" ~meth:"select_by_index"
    (Object_store.Native
       (fun store _recv args ->
         match args with
         | [ (Value.Str _ as title) ] ->
           let oids =
             Hash_index.probe t.title_index (Object_store.counters store) title
           in
           Value.set (List.map (fun o -> Value.Obj o) oids)
         | _ -> raise (Runtime.Error "select_by_index expects one string")));
  (* Paragraph->retrieve_by_string(s): one probe of the inverted index. *)
  Object_store.register_own_method store ~cls:"Paragraph"
    ~meth:"retrieve_by_string"
    (Object_store.Native
       (fun store _recv args ->
         match args with
         | [ Value.Str s ] ->
           Counters.incr (Object_store.counters store) Index_probes;
           let oids = Soqm_ir.Inverted_index.lookup_all t.text_index s in
           Value.set (List.map (fun o -> Value.Obj o) oids)
         | _ -> raise (Runtime.Error "retrieve_by_string expects one string")));
  (* Paragraph.contains_string(s): word containment on this paragraph's
     content — the expensive per-object external IR operation. *)
  Object_store.register_inst_method store ~cls:"Paragraph" ~meth:"contains_string"
    (Object_store.Native
       (fun store recv args ->
         match recv, args with
         | Value.Obj oid, [ Value.Str s ] -> (
           match Object_store.get_prop store oid "content" with
           | Value.Str content ->
             let words = Soqm_ir.Tokenizer.vocabulary s in
             Value.Bool
               (words <> []
               && List.for_all (Soqm_ir.Tokenizer.contains_word content) words)
           | _ -> Value.Bool false)
         | _ -> raise (Runtime.Error "contains_string expects one string")));
  (* Paragraph.wordCount(): simulated expensive computation over the
     content; the value itself is precomputed at load time. *)
  Object_store.register_inst_method store ~cls:"Paragraph" ~meth:"wordCount"
    (Object_store.Native
       (fun store recv args ->
         match recv, args with
         | Value.Obj oid, [] -> Object_store.get_prop store oid "word_count"
         | _ -> raise (Runtime.Error "wordCount expects no arguments")))

(* The document database's access paths, declared once: [make] creates
   the three indexes, and every consumer — [refresh], the maintainers,
   the derived image, the range counts, the executor's and optimizer's
   index lookups — iterates these lists. *)
let hash_indexes t = [ t.title_index ]
let sorted_indexes t = [ t.word_count_index ]
let text_indexes t = [ ("Paragraph", "content", t.text_index) ]

let register_range_counts t =
  List.iter
    (fun idx ->
      Statistics.register_range t.stats ~cls:(Sorted_index.cls idx)
        ~prop:(Sorted_index.prop idx) (Sorted_index.count_range idx))
    (sorted_indexes t)

let refresh t =
  List.iter (fun idx -> Hash_index.build idx t.store) (hash_indexes t);
  List.iter (fun idx -> Sorted_index.build idx t.store) (sorted_indexes t);
  List.iter
    (fun (cls, prop, idx) ->
      Soqm_ir.Inverted_index.clear idx;
      List.iter
        (fun oid ->
          match Object_store.peek_prop t.store oid prop with
          | Value.Str text -> Soqm_ir.Inverted_index.add idx ~key:oid ~text
          | _ -> ())
        (Object_store.extent t.store cls))
    (text_indexes t);
  (* in place, never reassigned: generated optimizers capture [t.stats];
     resync recollects itself, so don't scan twice *)
  match t.maint with
  | Some m -> Soqm_maintenance.Maintenance.resync m
  | None -> Statistics.recollect t.stats t.store

let attach_maintenance ?reconcile t =
  match t.maint with
  | Some _ -> ()
  | None ->
    t.maint <-
      Some
        (Soqm_maintenance.Maintenance.attach ?reconcile
           ~hash_indexes:(hash_indexes t) ~sorted_indexes:(sorted_indexes t)
           ~text_indexes:(text_indexes t)
           ~implications:[ Doc_knowledge.word_count_implication ]
           ~stats:t.stats t.store)

let maintenance t = t.maint

(* The one place that decides which access paths a document database
   has: the three indexes (empty until [refresh] or a derived image
   fills them) and the external methods and range counts built on them.
   No maintenance, no disk. *)
let make store ~stats ~jobs =
  let t =
    {
      store;
      title_index = Hash_index.create ~cls:"Document" ~prop:"title";
      word_count_index = Sorted_index.create ~cls:"Paragraph" ~prop:"word_count";
      text_index = Soqm_ir.Inverted_index.create ();
      stats;
      maint = None;
      default_jobs = max 1 jobs;
      disk = None;
      disk_buf = None;
    }
  in
  register_external_methods t;
  register_range_counts t;
  t

let create_empty ?(schema = Doc_schema.schema) ?(maintain = true) ?(jobs = 1) ()
    =
  let store = Object_store.create schema in
  Doc_schema.install_internal_methods store;
  let t = make store ~stats:(Statistics.collect store) ~jobs in
  if maintain then attach_maintenance t;
  t

let create ?schema ?(params = Datagen.default) ?(maintain = true) ?jobs () =
  (* bulk-load unmaintained (incremental index splices would be
     quadratic), then rebuild everything and attach the observers *)
  let t = create_empty ?schema ~maintain:false ?jobs () in
  Datagen.populate t.store params;
  refresh t;
  if maintain then attach_maintenance t;
  t

module Disk = Soqm_disk.Store
module Persist = Soqm_maintenance.Persist

(* ------------------------------------------------------------------ *)
(* persistent derived state                                            *)
(* ------------------------------------------------------------------ *)

(* Snapshot every index and the statistics into the persistent image
   form, stamped with the disk store's current checkpoint sequence. *)
let derived_image t d =
  let hash_section idx =
    let buckets = ref [] in
    Hash_index.iter idx (fun v oids ->
        buckets := (v, List.map Oid.id oids) :: !buckets);
    (Hash_index.cls idx, Hash_index.prop idx, !buckets)
  in
  let sorted_section idx =
    let entries = ref [] in
    Sorted_index.iter_entries idx (fun v oid ->
        entries := (v, Oid.id oid) :: !entries);
    ( Sorted_index.cls idx,
      Sorted_index.prop idx,
      Array.of_list (List.rev !entries) )
  in
  let text_section (cls, prop, idx) =
    let postings = ref [] in
    Soqm_ir.Inverted_index.iter_postings idx (fun w keys ->
        postings := (w, List.map Oid.id keys) :: !postings);
    (cls, prop, !postings)
  in
  {
    Persist.seq = Disk.checkpoint_seq d;
    hash = List.map hash_section (hash_indexes t);
    sorted = List.map sorted_section (sorted_indexes t);
    text = List.map text_section (text_indexes t);
    stats = Some (Statistics.snapshot t.stats);
  }

(* Write [derived.idx] next to an attached disk store.  Only meaningful
   right after a checkpoint (the image must describe exactly the
   checkpointed base state) and only with maintenance attached (without
   observers the in-memory indexes stop tracking DML, so persisting them
   would freeze stale contents). *)
let write_derived t =
  match (t.disk, t.maint) with
  | Some d, Some _ -> Persist.write ~dir:(Disk.dir d) (derived_image t d)
  | _ -> ()

(* [save] exports to the paged disk format: a database directory with
   one heap segment per class, a meta file and an (empty) WAL — plus
   the derived image when this Db maintains one. *)
let save t path =
  let dump = Object_store.export t.store in
  let d =
    Disk.create ~counters:(Object_store.counters t.store)
      ~schema:(Object_store.dump_schema dump) path
  in
  Disk.bulk_load d ~next_id:(Object_store.dump_next_id dump)
    (Object_store.dump_objects dump);
  (match t.maint with
  | Some _ -> Persist.write ~dir:path (derived_image t d)
  | None -> ());
  Disk.close ~checkpoint:false d

(* Translate store change events into WAL-committed disk batches.  The
   subscription happens after [refresh] (so resyncing derived state on
   open does not re-log records already on disk) and before
   [attach_maintenance] — DML events append their WAL records before the
   maintenance observers run and bump the epoch. *)
let attach_disk t d =
  t.disk <- Some d;
  let emit op =
    (* with a buffer installed (transactional commit application), the
       op joins the transaction's WAL batch instead of committing as its
       own fsynced singleton *)
    match t.disk_buf with
    | Some buf -> buf := op :: !buf
    | None -> Disk.apply d [ op ]
  in
  Object_store.subscribe t.store (function
    | Object_store.Created oid -> emit (Soqm_disk.Wal.Insert { oid; props = [] })
    | Object_store.Prop_set { oid; prop; old_value; new_value; _ } ->
      emit (Soqm_disk.Wal.Update { oid; prop; value = new_value; old_value })
    | Object_store.Deleted { oid; props } ->
      emit (Soqm_disk.Wal.Delete { oid; props }))

let buffer_disk_ops t f =
  let buf = ref [] in
  t.disk_buf <- Some buf;
  let r = Fun.protect ~finally:(fun () -> t.disk_buf <- None) f in
  (r, List.rev !buf)

(* The store-change events one replayed WAL op stands for.  Update ops
   carry their pre-images precisely so the index observers can replay
   them without the old record versions. *)
let events_of_op (op : Soqm_disk.Wal.op) =
  match op with
  | Soqm_disk.Wal.Insert { oid; props } ->
    Object_store.Created oid
    :: List.map
         (fun (prop, v) ->
           Object_store.Prop_set
             {
               oid;
               prop;
               old_value = Value.Null;
               new_value = v;
               origin = Object_store.User;
             })
         props
  | Soqm_disk.Wal.Update { oid; prop; value; old_value } ->
    [
      Object_store.Prop_set
        { oid; prop; old_value; new_value = value; origin = Object_store.User };
    ]
  | Soqm_disk.Wal.Delete { oid; props } ->
    [ Object_store.Deleted { oid; props } ]

(* Install a persisted index image into this Db's (empty) in-memory
   indexes.  False when a section this Db needs is absent or malformed —
   the caller falls back to [refresh], which rebuilds everything from
   base data regardless of what was partially installed. *)
let load_derived t (img : Persist.image) =
  let load sections key install indexes =
    List.for_all
      (fun idx ->
        let cls, prop = key idx in
        match
          List.find_opt
            (fun (c, p, _) -> String.equal c cls && String.equal p prop)
            sections
        with
        | Some (_, _, section) ->
          install idx (fun id -> Oid.make ~cls ~id) section;
          true
        | None -> false)
      indexes
  in
  try
    load img.Persist.hash
      (fun idx -> (Hash_index.cls idx, Hash_index.prop idx))
      (fun idx oid buckets ->
        List.iter
          (fun (v, ids) -> Hash_index.load_bucket idx v (List.map oid ids))
          buckets)
      (hash_indexes t)
    && load img.Persist.sorted
         (fun idx -> (Sorted_index.cls idx, Sorted_index.prop idx))
         (fun idx oid entries ->
           Sorted_index.load_sorted idx
             (Array.map (fun (v, id) -> (v, oid id)) entries))
         (sorted_indexes t)
    && load img.Persist.text
         (fun (cls, prop, _) -> (cls, prop))
         (fun (_, _, idx) oid postings ->
           List.iter
             (fun (w, ids) ->
               Soqm_ir.Inverted_index.load_postings idx ~word:w
                 ~keys:(List.map oid ids))
             postings)
         (text_indexes t)
  with Invalid_argument _ -> false

let of_disk ~attach ~maintain ~jobs ~pool_pages path =
  let counters = Counters.create () in
  let d = Disk.open_dir ?pool_pages ~counters path in
  (* the cold materialization scan: a prefetcher domain reads each
     segment ahead of the decoding consumer *)
  let rows, _pages = Disk.scan_all ~prefetch:true d in
  let dump =
    Object_store.make_dump ~schema:(Disk.schema d) ~next_id:(Disk.next_id d)
      rows
  in
  let store = Object_store.import ~counters dump in
  Doc_schema.install_internal_methods store;
  (* O(dirty) open: a derived image stamped with this open's checkpoint
     sequence covers exactly the checkpointed base state, so the derived
     rebuild reduces to loading it and replaying the WAL tail the base
     recovery already replayed.  Any mismatch (crash between checkpoint
     and image write, foreign file, corruption) falls back to the
     O(extent) rebuild below.  Without maintenance there are no
     observers to replay the tail through, so the image is unusable. *)
  let image =
    if maintain then
      match Persist.read ~dir:path with
      | Some img when img.Persist.seq = Disk.checkpoint_seq d -> Some img
      | _ -> None
    else None
  in
  let stats =
    match image with
    | Some { Persist.stats = Some snap; _ } ->
      Statistics.of_snapshot (Object_store.schema store) snap
    | _ -> Statistics.collect store
  in
  let t = make store ~stats ~jobs in
  (match image with
  | Some img when load_derived t img ->
    if attach then attach_disk t d;
    (* a maintained database wrote this image at this checkpoint, so
       the checkpointed set properties were exact; the replay below
       re-derives every member the WAL tail touched *)
    attach_maintenance ~reconcile:false t;
    (match t.maint with
    | Some m ->
      List.iter
        (fun op ->
          List.iter (Soqm_maintenance.Maintenance.observe m) (events_of_op op))
        (Disk.recovered_ops d)
    | None -> ());
    if not attach then Disk.close ~checkpoint:false d
  | _ ->
    refresh t;
    if attach then attach_disk t d else Disk.close ~checkpoint:false d;
    if maintain then attach_maintenance t);
  t

let open_disk ?(maintain = true) ?(jobs = 1) ?pool_pages path =
  of_disk ~attach:true ~maintain ~jobs ~pool_pages path

(* [load] is an import shim over the disk format: materialize and detach
   (read-only on the directory; recovery truncation aside). *)
let load ?(maintain = true) ?(jobs = 1) path =
  of_disk ~attach:false ~maintain ~jobs ~pool_pages:None path

(* Every Db-initiated checkpoint rewrites the derived image right after
   the base checkpoint: the image's stamp then matches the new meta
   sequence and the next open takes the fast path. *)
let checkpoint t =
  match t.disk with
  | Some d ->
    Disk.checkpoint d;
    write_derived t
  | None -> ()

(* In-memory contents are unaffected (the store already materialized the
   rows); only the disk representation changes. *)
let vacuum ?mode t cls =
  match t.disk with
  | None -> invalid_arg "Db.vacuum: no attached disk store"
  | Some d ->
    let n = Disk.vacuum ?mode d cls in
    (* the vacuum checkpointed, so the old image's stamp is stale *)
    write_derived t;
    n

let close t =
  match t.disk with
  | Some d ->
    Disk.checkpoint d;
    write_derived t;
    Disk.close ~checkpoint:false d;
    t.disk <- None
  | None -> ()

let set_jobs t jobs = t.default_jobs <- max 1 jobs

let counters t = Object_store.counters t.store

let with_fresh_counters t f =
  let c = counters t in
  Counters.reset c Query;
  let result = f () in
  (result, Counters.snapshot c)
