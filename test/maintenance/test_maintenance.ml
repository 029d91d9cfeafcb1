(* Tests for the incremental knowledge-maintenance subsystem: store
   change events, index maintainers (including Inverted_index.replace),
   implication-set upkeep, statistics deltas with staleness-triggered
   recollects, the epoch-guarded LRU plan cache, and a property test
   interleaving DML with queries against a rebuild-from-scratch oracle. *)

open Soqm_vml
open Soqm_storage
open Soqm_core
module F = Soqm_testlib.Fixtures
module Maint = Soqm_maintenance.Maintenance

let check = Alcotest.check

let queries =
  [
    "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
     AND (p->document()).title == 'Query Optimization'";
    "ACCESS d FROM d IN Document WHERE d.title == 'Query Optimization'";
    "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500";
    "ACCESS [n: s.number, t: d.title] FROM s IN Section, d IN Document WHERE \
     s.document == d AND d.title == 'Query Optimization'";
    "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation')";
  ]

let some_paragraph db =
  match Object_store.extent db.Db.store "Paragraph" with
  | p :: _ -> p
  | [] -> Alcotest.fail "no paragraphs"

let doc_of db p =
  match Object_store.peek_prop db.Db.store p "section" with
  | Value.Obj s -> (
    match Object_store.peek_prop db.Db.store s "document" with
    | Value.Obj d -> d
    | _ -> Alcotest.fail "paragraph's section has no document")
  | _ -> Alcotest.fail "paragraph has no section"

let in_large_set db p =
  match Object_store.peek_prop db.Db.store (doc_of db p) "largeParagraphs" with
  | Value.Set xs -> List.exists (Value.equal (Value.Obj p)) xs
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Change events                                                       *)
(* ------------------------------------------------------------------ *)

let test_change_events () =
  let db = Db.create ~params:F.tiny_params ~maintain:false () in
  let store = db.Db.store in
  let events = ref [] in
  Object_store.subscribe store (fun ev -> events := ev :: !events);
  let sec =
    match Object_store.extent store "Section" with
    | s :: _ -> s
    | [] -> Alcotest.fail "no sections"
  in
  let oid =
    Object_store.create_object store ~cls:"Paragraph"
      [
        ("number", Value.Int 99);
        ("word_count", Value.Int 42);
        ("content", Value.Str "event test");
        ("section", Value.Obj sec);
      ]
  in
  let created =
    List.exists
      (function Object_store.Created o -> Oid.equal o oid | _ -> false)
      !events
  in
  check Alcotest.bool "Created event observed" true created;
  let user_sets, derived_sets =
    List.partition
      (function
        | Object_store.Prop_set { origin = Object_store.User; _ } -> true
        | _ -> false)
      (List.filter
         (function Object_store.Prop_set _ -> true | _ -> false)
         !events)
  in
  check Alcotest.bool "user writes observed" true (List.length user_sets >= 4);
  (* setting [section] maintains the inverse Section.paragraphs link as a
     Derived write, visible to observers but marked as such *)
  check Alcotest.bool "backlink write is Derived" true
    (List.exists
       (function
         | Object_store.Prop_set
             { origin = Object_store.Derived; prop = "paragraphs"; _ } ->
           true
         | _ -> false)
       derived_sets);
  events := [];
  Object_store.delete_object store oid;
  let deleted_props =
    List.find_map
      (function
        | Object_store.Deleted { oid = o; props } when Oid.equal o oid ->
          Some props
        | _ -> None)
      !events
  in
  match deleted_props with
  | None -> Alcotest.fail "no Deleted event"
  | Some props ->
    check Alcotest.bool "snapshot carries final values" true
      (match List.assoc_opt "word_count" props with
      | Some (Value.Int 42) -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Inverted_index.replace                                              *)
(* ------------------------------------------------------------------ *)

let test_replace_no_duplicate_postings () =
  let idx : int Soqm_ir.Inverted_index.t = Soqm_ir.Inverted_index.create () in
  Soqm_ir.Inverted_index.add idx ~key:1 ~text:"alpha beta gamma";
  Soqm_ir.Inverted_index.replace idx ~key:1 ~old_text:"alpha beta gamma"
    ~text:"beta gamma delta";
  check (Alcotest.list Alcotest.int) "kept word, single posting" [ 1 ]
    (Soqm_ir.Inverted_index.lookup_all idx "beta");
  check (Alcotest.list Alcotest.int) "new word indexed" [ 1 ]
    (Soqm_ir.Inverted_index.lookup_all idx "delta");
  check (Alcotest.list Alcotest.int) "old word gone" []
    (Soqm_ir.Inverted_index.lookup_all idx "alpha");
  (* replaying the same replace must stay idempotent *)
  Soqm_ir.Inverted_index.replace idx ~key:1 ~old_text:"beta gamma delta"
    ~text:"beta gamma delta";
  check (Alcotest.list Alcotest.int) "idempotent" [ 1 ]
    (Soqm_ir.Inverted_index.lookup_all idx "beta")

let test_dml_no_duplicate_postings () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate db in
  let p = some_paragraph db in
  (* several rewrites sharing words must leave exactly one posting *)
  Engine.update engine p ~prop:"content"
    (Value.Str "shared words one two three");
  Engine.update engine p ~prop:"content" (Value.Str "shared words two four");
  Engine.update engine p ~prop:"content" (Value.Str "shared words two five");
  let hits = Soqm_ir.Inverted_index.lookup_all db.Db.text_index "shared" in
  check Alcotest.int "single posting for kept word" 1
    (List.length (List.filter (Oid.equal p) hits));
  check (Alcotest.list Alcotest.bool) "dropped words gone" [ true; true ]
    (List.map
       (fun w ->
         not
           (List.exists (Oid.equal p)
              (Soqm_ir.Inverted_index.lookup_all db.Db.text_index w)))
       [ "one"; "four" ])

(* ------------------------------------------------------------------ *)
(* Index maintainers                                                   *)
(* ------------------------------------------------------------------ *)

let test_index_maintenance () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate db in
  let store = db.Db.store in
  let c = Object_store.counters store in
  Counters.reset c Maintenance;
  let doc =
    Engine.insert engine ~cls:"Document"
      [ ("title", Value.Str "Maintained Title"); ("author", Value.Str "A") ]
  in
  check
    (Alcotest.list F.oid_t)
    "hash index sees the insert" [ doc ]
    (Hash_index.probe db.Db.title_index c (Value.Str "Maintained Title"));
  Engine.update engine doc ~prop:"title" (Value.Str "Renamed");
  check (Alcotest.list F.oid_t) "old key vacated" []
    (Hash_index.probe db.Db.title_index c (Value.Str "Maintained Title"));
  check (Alcotest.list F.oid_t) "new key found" [ doc ]
    (Hash_index.probe db.Db.title_index c (Value.Str "Renamed"));
  let p = some_paragraph db in
  let before = Sorted_index.entries db.Db.word_count_index in
  Engine.update engine p ~prop:"word_count" (Value.Int 123456);
  check Alcotest.int "sorted index size stable under update" before
    (Sorted_index.entries db.Db.word_count_index);
  check (Alcotest.list F.oid_t) "range probe finds the moved entry" [ p ]
    (Sorted_index.probe_range db.Db.word_count_index c
       ~lo:(Sorted_index.Inclusive (Value.Int 100000))
       ~hi:Sorted_index.Unbounded);
  Engine.delete engine p;
  check (Alcotest.list F.oid_t) "deleted entry leaves the sorted index" []
    (Sorted_index.probe_range db.Db.word_count_index c
       ~lo:(Sorted_index.Inclusive (Value.Int 100000))
       ~hi:Sorted_index.Unbounded);
  check Alcotest.bool "postings were counted" true
    (Counters.get (Counters.snapshot c) Postings_touched > 0)

(* ------------------------------------------------------------------ *)
(* Implication sets                                                    *)
(* ------------------------------------------------------------------ *)

let test_implication_set_threshold () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate db in
  let p = some_paragraph db in
  Engine.update engine p ~prop:"word_count" (Value.Int 700);
  check Alcotest.bool "crossing up joins largeParagraphs" true
    (in_large_set db p);
  Engine.update engine p ~prop:"word_count" (Value.Int 300);
  check Alcotest.bool "crossing down leaves largeParagraphs" false
    (in_large_set db p);
  Engine.update engine p ~prop:"word_count" (Value.Int 501);
  check Alcotest.bool "boundary is strict (501 joins)" true (in_large_set db p);
  Engine.update engine p ~prop:"word_count" (Value.Int 500);
  check Alcotest.bool "boundary is strict (500 leaves)" false
    (in_large_set db p)

let test_implication_set_moves_with_reparent () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate db in
  let store = db.Db.store in
  let p = some_paragraph db in
  Engine.update engine p ~prop:"word_count" (Value.Int 800);
  let d1 = doc_of db p in
  let other_sec =
    List.find
      (fun s ->
        match Object_store.peek_prop store s "document" with
        | Value.Obj d -> not (Oid.equal d d1)
        | _ -> false)
      (Object_store.extent store "Section")
  in
  Engine.update engine p ~prop:"section" (Value.Obj other_sec);
  let d2 = doc_of db p in
  check Alcotest.bool "documents differ" false (Oid.equal d1 d2);
  check Alcotest.bool "member of the new document's set" true
    (in_large_set db p);
  check Alcotest.bool "gone from the old document's set" false
    (match Object_store.peek_prop store d1 "largeParagraphs" with
    | Value.Set xs -> List.exists (Value.equal (Value.Obj p)) xs
    | _ -> false)

let test_implication_set_delete_member () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate db in
  let p = some_paragraph db in
  Engine.update engine p ~prop:"word_count" (Value.Int 900);
  let d = doc_of db p in
  Engine.delete engine p;
  check Alcotest.bool "deleted member removed from the set" false
    (match Object_store.peek_prop db.Db.store d "largeParagraphs" with
    | Value.Set xs -> List.exists (Value.equal (Value.Obj p)) xs
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Statistics deltas                                                   *)
(* ------------------------------------------------------------------ *)

let test_stats_deltas () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate db in
  let stats = db.Db.stats in
  let card0 = Statistics.cardinality stats "Paragraph" in
  let sec =
    match Object_store.extent db.Db.store "Section" with
    | s :: _ -> s
    | [] -> Alcotest.fail "no sections"
  in
  let p =
    Engine.insert engine ~cls:"Paragraph"
      [
        ("number", Value.Int 77);
        ("word_count", Value.Int 700);
        ("content", Value.Str "statistics delta paragraph");
        ("section", Value.Obj sec);
      ]
  in
  check (Alcotest.float 0.01) "cardinality tracked the insert" (card0 +. 1.)
    (Statistics.cardinality stats "Paragraph");
  check Alcotest.bool "staleness grew" true (Statistics.staleness stats > 0.);
  Engine.delete engine p;
  check (Alcotest.float 0.01) "cardinality tracked the delete" card0
    (Statistics.cardinality stats "Paragraph")

let test_staleness_triggers_recollect_and_epoch () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate db in
  let m = Option.get (Db.maintenance db) in
  let e0 = Maint.epoch m in
  let r0 = Maint.recollects m in
  let paras = Array.of_list (Object_store.extent db.Db.store "Paragraph") in
  (* hammer scalar writes until staleness crosses the 10% threshold *)
  for i = 0 to Array.length paras - 1 do
    Engine.update engine
      paras.(i mod Array.length paras)
      ~prop:"number" (Value.Int i)
  done;
  check Alcotest.bool "recollect ran" true (Maint.recollects m > r0);
  check Alcotest.bool "epoch bumped" true (Maint.epoch m > e0);
  check Alcotest.bool "staleness reset below threshold" true
    (Maint.staleness m < Maint.default_policy.Maint.staleness_threshold)

(* ------------------------------------------------------------------ *)
(* Plan cache                                                          *)
(* ------------------------------------------------------------------ *)

let test_plan_cache_epoch_invalidation () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate db in
  let m = Option.get (Db.maintenance db) in
  let q = List.hd queries in
  let r1 = Engine.optimize_query engine q in
  let r2 = Engine.optimize_query engine q in
  check Alcotest.bool "same epoch: physically identical" true (r1 == r2);
  let hits, misses = Engine.cache_stats engine in
  check Alcotest.int "one hit" 1 hits;
  check Alcotest.int "one miss" 1 misses;
  Maint.bump_epoch m;
  let r3 = Engine.optimize_query engine q in
  check Alcotest.bool "stale epoch: re-optimized" true (not (r3 == r1));
  let r4 = Engine.optimize_query engine q in
  check Alcotest.bool "fresh entry hits again" true (r3 == r4)

let test_plan_cache_knowledge_preserving_dml_keeps_plans () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate db in
  let q = List.hd queries in
  let r1 = Engine.optimize_query engine q in
  (* one small update: well under the staleness threshold, so the epoch
     must not move and the cached plan stays valid *)
  Engine.update engine (some_paragraph db) ~prop:"word_count" (Value.Int 750);
  let r2 = Engine.optimize_query engine q in
  check Alcotest.bool "plan survived knowledge-preserving DML" true (r1 == r2)

let test_plan_cache_lru_eviction () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate ~cache_capacity:2 db in
  let q1 = List.nth queries 1 in
  let q2 = List.nth queries 2 in
  let q3 = List.nth queries 3 in
  ignore (Engine.optimize_query engine q1);
  ignore (Engine.optimize_query engine q2);
  ignore (Engine.optimize_query engine q1);
  (* capacity 2: inserting q3 evicts the least recently used (q2) *)
  ignore (Engine.optimize_query engine q3);
  check Alcotest.bool "cache stays bounded" true (Engine.cache_size engine <= 2);
  let _, m0 = Engine.cache_stats engine in
  ignore (Engine.optimize_query engine q1);
  let h1, m1 = Engine.cache_stats engine in
  check Alcotest.int "q1 survived (hit)" m0 m1;
  ignore (Engine.optimize_query engine q2);
  let h2, m2 = Engine.cache_stats engine in
  check Alcotest.int "q2 was evicted (miss)" (m1 + 1) m2;
  ignore (h1, h2)

(* ------------------------------------------------------------------ *)
(* Property: random DML/query interleavings vs scratch rebuild          *)
(* ------------------------------------------------------------------ *)

type dml_op =
  | Set_wc of int * int  (* paragraph picker, new word count *)
  | Rewrite of int * bool  (* paragraph picker, keep the query word? *)
  | Reparent of int * int  (* paragraph picker, section picker *)
  | Insert_para of int * int  (* section picker, word count *)
  | Delete_para of int
  | Run_query of int

let op_gen =
  let open QCheck2.Gen in
  oneof
    [
      map2 (fun i wc -> Set_wc (i, wc)) (int_range 0 1000) (int_range 0 1000);
      map2 (fun i kw -> Rewrite (i, kw)) (int_range 0 1000) bool;
      map2 (fun i s -> Reparent (i, s)) (int_range 0 1000) (int_range 0 1000);
      map2 (fun s wc -> Insert_para (s, wc)) (int_range 0 1000)
        (int_range 0 1000);
      map (fun i -> Delete_para i) (int_range 0 1000);
      map (fun i -> Run_query i) (int_range 0 (List.length queries - 1));
    ]

let ops_gen = QCheck2.Gen.(list_size (int_range 10 40) op_gen)

let pick arr i =
  if Array.length arr = 0 then None else Some arr.(i mod Array.length arr)

let apply_op db engine op =
  let store = db.Db.store in
  let paras () = Array.of_list (Object_store.extent store "Paragraph") in
  let secs () = Array.of_list (Object_store.extent store "Section") in
  match op with
  | Set_wc (i, wc) -> (
    match pick (paras ()) i with
    | Some p -> Engine.update engine p ~prop:"word_count" (Value.Int wc)
    | None -> ())
  | Rewrite (i, keep_word) -> (
    match pick (paras ()) i with
    | Some p ->
      let text =
        if keep_word then
          Printf.sprintf "rewritten %d keeps Implementation" i
        else Printf.sprintf "rewritten %d other words" i
      in
      Engine.update engine p ~prop:"content" (Value.Str text)
    | None -> ())
  | Reparent (i, s) -> (
    match pick (paras ()) i, pick (secs ()) s with
    | Some p, Some sec -> Engine.update engine p ~prop:"section" (Value.Obj sec)
    | _ -> ())
  | Insert_para (s, wc) -> (
    match pick (secs ()) s with
    | Some sec ->
      ignore
        (Engine.insert engine ~cls:"Paragraph"
           [
             ("number", Value.Int 1000);
             ("word_count", Value.Int wc);
             ("content", Value.Str "inserted paragraph Implementation");
             ("section", Value.Obj sec);
           ])
    | None -> ())
  | Delete_para i -> (
    match pick (paras ()) i with
    | Some p -> Engine.delete engine p
    | None -> ())
  | Run_query i -> ignore (Engine.run_optimized engine (List.nth queries i))

let large_sets_ok db =
  let store = db.Db.store in
  let want = Hashtbl.create 32 in
  List.iter
    (fun p ->
      match Object_store.peek_prop store p "word_count" with
      | Value.Int n when n > 500 -> (
        match Object_store.peek_prop store p "section" with
        | Value.Obj s -> (
          match Object_store.peek_prop store s "document" with
          | Value.Obj d ->
            Hashtbl.replace want d
              (Value.Obj p
              :: Option.value ~default:[] (Hashtbl.find_opt want d))
          | _ -> ())
        | _ -> ())
      | _ -> ())
    (Object_store.extent store "Paragraph");
  List.for_all
    (fun d ->
      let expected =
        Value.set (Option.value ~default:[] (Hashtbl.find_opt want d))
      in
      let actual =
        match Object_store.peek_prop store d "largeParagraphs" with
        | Value.Set _ as v -> v
        | _ -> Value.Set []
      in
      Value.equal expected actual)
    (Object_store.extent store "Document")

let prop_dml_interleaving_matches_oracle =
  QCheck2.Test.make ~count:12
    ~name:"random DML/query interleavings: optimized = scratch rebuild" ops_gen
    (fun ops ->
      let db = Db.create ~params:F.tiny_params () in
      let engine = Engine.generate db in
      List.iter (apply_op db engine) ops;
      (* rebuild-from-scratch oracle: save to a paged database directory,
         reload, re-derive everything *)
      let oracle_db =
        F.with_temp_dir "soqm_maint" (fun dir ->
            Db.save db dir;
            Db.load dir)
      in
      let oracle_engine = Engine.generate oracle_db in
      large_sets_ok db
      && List.for_all
           (fun q ->
             let live = (Engine.run_optimized engine q).Engine.result in
             let oracle =
               (Engine.run_optimized oracle_engine q).Engine.result
             in
             let reference = Engine.run_logical_reference db q in
             Soqm_algebra.Relation.equal live oracle
             && Soqm_algebra.Relation.equal live reference)
           queries)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "maintenance"
    [
      ( "events",
        [
          F.case "change events and origins" test_change_events;
        ] );
      ( "indexes",
        [
          F.case "replace has no duplicate postings"
            test_replace_no_duplicate_postings;
          F.case "DML path has no duplicate postings"
            test_dml_no_duplicate_postings;
          F.case "hash and sorted maintainers" test_index_maintenance;
        ] );
      ( "implication-sets",
        [
          F.case "threshold crossings" test_implication_set_threshold;
          F.case "membership moves on reparent"
            test_implication_set_moves_with_reparent;
          F.case "delete removes membership"
            test_implication_set_delete_member;
        ] );
      ( "statistics",
        [
          F.case "exact deltas" test_stats_deltas;
          F.case "staleness recollect bumps epoch"
            test_staleness_triggers_recollect_and_epoch;
        ] );
      ( "plan-cache",
        [
          F.case "epoch invalidation" test_plan_cache_epoch_invalidation;
          F.case "knowledge-preserving DML keeps plans"
            test_plan_cache_knowledge_preserving_dml_keeps_plans;
          F.case "LRU eviction" test_plan_cache_lru_eviction;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_dml_interleaving_matches_oracle ] );
    ]
