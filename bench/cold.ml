(* Cold-start benchmark and CI gate for the PR-9 performance layer.

   Two claims, both single-core safe:

   1. O(dirty) cold opens: [Db.load] on a directory whose [derived.idx]
      image matches the checkpoint stamp versus the rebuild-from-extent
      baseline (same directory, image removed), at n_docs=10k.  Both
      paths pay the same record-materialization floor (open the
      directory, scan every segment, import into the in-memory store),
      so the bench measures that floor separately with the public API
      and gates on the derived phase it isolates: restoring the
      persisted hash/sorted/inverted indexes, implication sets and
      statistics must be >= 5x faster than rebuilding them all from a
      full extent scan.  End-to-end open times are reported alongside.
      The 5x bound is enforced at n_docs >= 10000 (the claim's scale);
      smaller runs report it but gate only locality and parity.

   2. Clustered placement halves cold path-query page reads: after the
      bulk load, documents keep growing — one new paragraph per
      document per round, round-robin, the worst case for
      insertion-order placement (every round's appends interleave all
      documents onto the same fill pages).  With placement on, each
      paragraph lands on its section's cluster page instead.  The page
      footprint of one document's paragraph set ([Store.locate_pages],
      the model behind the [pages=] column of [explain --analyze
      --db]) must be >= 2x smaller, summed over a document sample.

   Plus the usual oracle: the EXP-A query mix on the fast-opened
   database must match the in-memory database exactly.

   Run with:  dune exec bench/cold.exe -- [--assert] [--docs N] [--seed N]
                [--reps N] [--json PATH] [--rounds N] [--sample N]
   Every check runs with or without [--assert]; the exit code is 1 iff
   one failed.  Emits BENCH_cold.json. *)

open Soqm_vml
open Soqm_core
open Bench_util
module A = Soqm_algebra
module Store = Soqm_disk.Store
module Persist = Soqm_maintenance.Persist


(* gates *)
let min_open_speedup = 5.0
let min_locality_ratio = 2.0

(* ------------------------------------------------------------------ *)
(* Growth workload: interleaved paragraph appends                      *)
(* ------------------------------------------------------------------ *)

(* One paragraph per document per round, iterating documents in order
   within each round — each round's appends interleave every document.
   This is how a corpus actually grows, and the worst case for
   insertion-order placement. *)
let grow_documents db ~rounds =
  let store = db.Db.store in
  let docs = Object_store.extent store "Document" in
  (* first section of each document *)
  let first_sec = Hashtbl.create (List.length docs) in
  List.iter
    (fun s ->
      match
        (Object_store.get_prop store s "document",
         Object_store.get_prop store s "number")
      with
      | Value.Obj d, Value.Int 0 -> Hashtbl.replace first_sec (Oid.id d) s
      | _ -> ())
    (Object_store.extent store "Section");
  let added = ref 0 in
  for r = 1 to rounds do
    List.iter
      (fun d ->
        match Hashtbl.find_opt first_sec (Oid.id d) with
        | None -> ()
        | Some sec ->
          incr added;
          ignore
            (Object_store.create_object store ~cls:"Paragraph"
               [
                 ("number", Value.Int (100 + r));
                 ("section", Value.Obj sec);
                 ( "content",
                   Value.Str (Printf.sprintf "appended round %d update " r) );
                 ("word_count", Value.Int (20 + ((r * 37) mod 400)));
               ]))
      docs
  done;
  !added

(* paragraph OID sets per document, from the in-memory oracle *)
let paragraphs_by_document db =
  let store = db.Db.store in
  let tbl = Hashtbl.create 1024 in
  List.iter
    (fun p ->
      match Object_store.get_prop store p "section" with
      | Value.Obj s -> (
        match Object_store.get_prop store s "document" with
        | Value.Obj d ->
          Hashtbl.replace tbl (Oid.id d)
            (p :: Option.value ~default:[] (Hashtbl.find_opt tbl (Oid.id d)))
        | _ -> ())
      | _ -> ())
    (Object_store.extent store "Paragraph");
  tbl

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let n_docs = docs 10_000 in
  let reps = reps 2 in
  let rounds = arg_value "--rounds" 4 int_of_string in
  let sample = arg_value "--sample" 50 int_of_string in
  let db, dt_gen = time (fun () -> database n_docs) in
  let added, dt_grow = time (fun () -> grow_documents db ~rounds) in
  let paras = Object_store.extent_size db.Db.store "Paragraph" in
  Printf.printf
    "cold-start bench (n_docs=%d, %d paragraphs after %d growth rounds, %d \
     core(s))\n"
    n_docs paras rounds cores;
  Printf.printf "generated in %.1f s, appended %d paragraphs in %.1f s\n\n"
    dt_gen added dt_grow;

  with_temp_dir "soqm_cold_clustered" @@ fun dir_c ->
  with_temp_dir "soqm_cold_scattered" @@ fun dir_s ->
  (* clustered export: Db.save inserts each record with placement on
     (the default), so paragraphs land on their section's cluster pages
     even though the export stream interleaves the growth appends *)
  let (), dt_save = time (fun () -> Db.save db dir_c) in
  (* insertion-order baseline: identical record stream, placement off *)
  let dump = Object_store.export db.Db.store in
  let sdisk = Store.create ~schema:(Object_store.dump_schema dump) dir_s in
  Store.set_placement sdisk false;
  Store.bulk_load sdisk
    ~next_id:(Object_store.dump_next_id dump)
    (Object_store.dump_objects dump);
  Store.close ~checkpoint:false sdisk;
  Printf.printf "saved clustered image in %.1f s\n\n" dt_save;

  (* -- claim 2: path-query page footprint ------------------------- *)
  let by_doc = paragraphs_by_document db in
  let sample_ids =
    List.filteri (fun i _ -> i < sample) (Object_store.extent db.Db.store "Document")
  in
  let footprint dir =
    let d = Store.open_dir dir in
    let total =
      List.fold_left
        (fun acc doc ->
          match Hashtbl.find_opt by_doc (Oid.id doc) with
          | Some oids -> acc + Store.locate_pages d oids
          | None -> acc)
        0 sample_ids
    in
    Store.close ~checkpoint:false d;
    total
  in
  let clustered_pages = footprint dir_c in
  let scattered_pages = footprint dir_s in
  let ratio = float_of_int scattered_pages /. float_of_int (max 1 clustered_pages) in
  Printf.printf
    "path-query footprint over %d documents: clustered %d page(s), \
     insertion-order %d page(s) (%.2fx, bound %.1fx)\n"
    (List.length sample_ids) clustered_pages scattered_pages ratio
    min_locality_ratio;
  check
    (Printf.sprintf "clustered placement reads >= %.1fx fewer pages"
       min_locality_ratio)
    (ratio >= min_locality_ratio);

  (* -- claim 1: O(dirty) cold open vs rebuild-from-extent --------- *)
  (* Best-of-reps with a level GC field: the previous rep's result (a
     whole materialized database) is released and the major heap
     compacted before each timed rep, so no rep pays the collection
     debt of the one before it — without this, restore-phase timings
     swung 2x+ between runs (the EXP-L lesson at database scale). *)
  let best f =
    let b = ref infinity in
    let last = ref None in
    for i = 1 to reps do
      last := None;
      Gc.compact ();
      let x, dt = time f in
      if i = reps then last := Some x;
      if dt < !b then b := dt
    done;
    (Option.get !last, !b *. 1000.)
  in
  (* the shared floor both opens pay: directory open (recovery, heap
     directory rebuild), the materialization scan, the in-memory store
     import — measured with the same public calls [Db.load] makes *)
  let _, floor_ms =
    best (fun () ->
        let d = Store.open_dir dir_c in
        let rows, _ = Store.scan_all ~prefetch:true d in
        let dump =
          Object_store.make_dump ~schema:(Store.schema d)
            ~next_id:(Store.next_id d) rows
        in
        let store = Object_store.import dump in
        Store.close ~checkpoint:false d;
        store)
  in
  let fast_db, fast_ms = best (fun () -> Db.load dir_c) in
  Persist.remove ~dir:dir_c;
  let _rebuilt_db, rebuild_ms = best (fun () -> Db.load dir_c) in
  let total_speedup = rebuild_ms /. fast_ms in
  let restore_ms = Float.max 1.0 (fast_ms -. floor_ms) in
  let derived_rebuild_ms = Float.max 1.0 (rebuild_ms -. floor_ms) in
  let open_speedup = derived_rebuild_ms /. restore_ms in
  Printf.printf
    "\ncold open: with derived image %.1f ms, rebuild from extent %.1f ms \
     (%.2fx end to end)\n"
    fast_ms rebuild_ms total_speedup;
  Printf.printf
    "derived state: image restore + tail replay %.1f ms, rebuild from \
     extent %.1f ms over a %.1f ms materialization floor (%.2fx, bound \
     %.1fx)\n"
    restore_ms derived_rebuild_ms floor_ms open_speedup min_open_speedup;
  (* the 5x bound is a statement about scale: below ~10k documents the
     derived phase is small in absolute terms and a few tens of ms of
     fixed cost (image decode, observer attachment) eat into the ratio,
     so smaller runs report the speedup without enforcing it *)
  let gate_enforced = n_docs >= 10_000 in
  if gate_enforced then
    check
      (Printf.sprintf "image-backed cold open >= %.1fx over index rebuild"
         min_open_speedup)
      (open_speedup >= min_open_speedup)
  else
    Printf.printf
      "note the >= %.1fx bound is enforced at n_docs >= 10000 only (got \
       %.2fx at n_docs=%d)\n"
      min_open_speedup open_speedup n_docs;

  (* -- oracle: fast-opened database = in-memory database ----------- *)
  let mem_engine = Engine.generate db in
  let fast_engine = Engine.generate fast_db in
  let divergences =
    List.fold_left
      (fun acc (name, q) ->
        let mem = Engine.run_optimized mem_engine q in
        let fast = Engine.run_optimized fast_engine q in
        let same = A.Relation.equal mem.Engine.result fast.Engine.result in
        check (Printf.sprintf "%s: fast open == memory" name) same;
        if same then acc else acc + 1)
      0 exp_a_queries
  in

  write_json (json_path "cold")
    (header "cold" ~n_docs ~paragraphs:paras ()
    @ [
        ( "cold_open",
          Obj
            [
              ("total_fast_ms", Fixed (1, fast_ms));
              ("total_rebuild_ms", Fixed (1, rebuild_ms));
              ("total_speedup", Fixed (2, total_speedup));
              ("floor_ms", Fixed (1, floor_ms));
              ("derived_restore_ms", Fixed (1, restore_ms));
              ("derived_rebuild_ms", Fixed (1, derived_rebuild_ms));
              ("speedup", Fixed (2, open_speedup));
              ("bound", Fixed (2, min_open_speedup));
              ("speedup_gate_enforced", Bool gate_enforced);
            ] );
        ( "locality",
          Obj
            [
              ("sample_docs", Int (List.length sample_ids));
              ("clustered_pages", Int clustered_pages);
              ("scattered_pages", Int scattered_pages);
              ("ratio", Fixed (2, ratio));
              ("bound", Fixed (2, min_locality_ratio));
            ] );
        ("parity_divergences", Int divergences);
      ]);
  finish ()
