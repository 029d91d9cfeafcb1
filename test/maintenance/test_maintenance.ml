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
module Persist = Soqm_maintenance.Persist

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
    (Maint.staleness m < Maint.staleness_threshold)

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
(* Parametric plan cache: one entry per query shape                     *)
(* ------------------------------------------------------------------ *)

module Plan = Soqm_physical.Plan
module Restricted = Soqm_algebra.Restricted
module Search = Soqm_optimizer.Search

let title_q = Printf.sprintf "ACCESS d FROM d IN Document WHERE d.title == '%s'"

let rec plan_has f (p : Plan.t) = f p || List.exists (plan_has f) (Plan.inputs p)

let probes_title title =
  plan_has (function
    | Plan.IndexScan (_, _, _, Value.Str t) -> String.equal t title
    | Plan.MethodScan (_, _, _, [ Value.Str t ]) -> String.equal t title
    | _ -> false)

let test_parametric_hit_substitutes () =
  let engine = Engine.generate (Db.create ~params:F.tiny_params ()) in
  let r3 = Engine.optimize_query engine (title_q "Title 3") in
  let r9 = Engine.optimize_query engine (title_q "Title 9") in
  check Alcotest.(pair int int) "one miss, then one hit" (1, 1)
    (Engine.cache_stats engine);
  check Alcotest.int "one entry" 1 (Engine.cache_size engine);
  check Alcotest.bool "the hit probes 'Title 9'" true
    (probes_title "Title 9" r9.Search.best_plan);
  check Alcotest.bool "... and not 'Title 3'" false
    (probes_title "Title 3" r9.Search.best_plan);
  check Alcotest.bool "same estimated cost" true
    (Float.equal r3.Search.best_cost r9.Search.best_cost);
  check Alcotest.int "no fallback" 0 (Engine.cache_fallbacks engine)

let test_parametric_pinned_threshold () =
  let engine = Engine.generate (Db.create ~params:F.tiny_params ()) in
  let q = Printf.sprintf "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > %d" in
  let fired (r : Search.result) =
    List.exists
      (fun (s : Search.step) ->
        String.equal s.Search.rule "large-paragraphs/exact")
      r.Search.derivation
  in
  let r500 = Engine.optimize_query engine (q 500) in
  let r400 = Engine.optimize_query engine (q 400) in
  check Alcotest.(pair int int) "two misses" (0, 2) (Engine.cache_stats engine);
  check Alcotest.int "two entries" 2 (Engine.cache_size engine);
  check Alcotest.bool "exact rule fires on 500" true (fired r500);
  check Alcotest.bool "... not on 400" false (fired r400);
  (* compared with the range-indexed word_count: both stay *)
  let q = Printf.sprintf "ACCESS p FROM p IN Paragraph WHERE p.word_count == %d" in
  ignore (Engine.optimize_query engine (q 42));
  ignore (Engine.optimize_query engine (q 43));
  check Alcotest.(pair int int) "range-indexed comparisons: two more misses"
    (0, 4) (Engine.cache_stats engine)

(* A spec's constant in an equality stays in the key: the rule fires on
   that title only. *)
let test_parametric_pinned_spec_constant () =
  let spec =
    Soqm_semantics.Equivalence.Cond_equiv
      {
        name = "special-title";
        cls = "Document";
        var = "d";
        lhs =
          Expr.Binop
            (Expr.Eq, Expr.Prop (Expr.Ref "d", "title"), Expr.Const (Value.Str "Title 3"));
        rhs =
          Expr.Binop
            (Expr.Eq, Expr.Prop (Expr.Ref "d", "author"), Expr.Const (Value.Str "Author 3"));
      }
  in
  let engine =
    Engine.generate ~extra_specs:[ spec ] (Db.create ~params:F.tiny_params ())
  in
  let fired (r : Search.result) = List.mem_assoc "special-title" r.Search.rule_applications in
  let r3 = Engine.optimize_query engine (title_q "Title 3") in
  let r9 = Engine.optimize_query engine (title_q "Title 9") in
  check Alcotest.(pair int int) "two misses" (0, 2) (Engine.cache_stats engine);
  check Alcotest.bool "the spec fires on its own title" true (fired r3);
  check Alcotest.bool "... not on another" false (fired r9)

(* Terms built by hand: a constant mapped onto every document. *)
let const_map v =
  Restricted.MapOperator
    ("c", Restricted.OpIdent, [ Restricted.OConst v ], Restricted.Get ("d", "Document"))

let test_parametric_concrete_kinds () =
  let engine = Engine.generate (Db.create ~params:F.tiny_params ()) in
  let misses pair =
    let _, m0 = Engine.cache_stats engine in
    List.iter (fun v -> ignore (Engine.optimize engine (const_map v))) pair;
    snd (Engine.cache_stats engine) - m0
  in
  check Alcotest.int "Str is inert" 1 (misses [ Value.Str "a"; Value.Str "b" ]);
  check Alcotest.int "Bool stays concrete" 2
    (misses [ Value.Bool true; Value.Bool false ]);
  check Alcotest.int "Cls stays concrete" 2
    (misses [ Value.Cls "Document"; Value.Cls "Section" ]);
  check Alcotest.int "Set stays concrete" 2
    (misses [ Value.set [ Value.Int 1 ]; Value.set [ Value.Int 2 ] ])

let test_parametric_equal_values_share_a_slot () =
  let engine = Engine.generate (Db.create ~params:F.tiny_params ()) in
  let q = Printf.sprintf
      "ACCESS d FROM d IN Document WHERE d.title == '%s' AND d.author == '%s'"
  in
  ignore (Engine.optimize_query engine (q "x" "x"));
  ignore (Engine.optimize_query engine (q "x" "y"));
  check Alcotest.(pair int int) "equal and distinct values: two keys" (0, 2)
    (Engine.cache_stats engine);
  ignore (Engine.optimize_query engine (q "z" "z"));
  ignore (Engine.optimize_query engine (q "u" "v"));
  check Alcotest.(pair int int) "each shape hits again" (2, 2)
    (Engine.cache_stats engine)

let test_parametric_epoch_invalidation () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate db in
  ignore (Engine.optimize_query engine (title_q "Title 3"));
  Maint.bump_epoch (Option.get (Db.maintenance db));
  ignore (Engine.optimize_query engine (title_q "Title 9"));
  check Alcotest.(pair int int) "stale shape misses" (0, 2)
    (Engine.cache_stats engine)

(* Statistics move within an epoch (exact deltas, no recollect): the
   substituted plan re-costs differently, so the guard searches again. *)
let test_parametric_recost_guard () =
  let db = Db.create ~params:F.small_params () in
  let engine = Engine.generate db in
  let m = Option.get (Db.maintenance db) in
  ignore (Engine.optimize_query engine (title_q "Title 3"));
  let epoch = Maint.epoch m in
  ignore (Engine.insert engine ~cls:"Document" [ ("title", Value.Str "Title 99") ]);
  check Alcotest.int "the epoch did not move" epoch (Maint.epoch m);
  let r = Engine.optimize_query engine (title_q "Title 9") in
  check Alcotest.int "one fallback" 1 (Engine.cache_fallbacks engine);
  check Alcotest.(pair int int) "counted as a miss" (0, 2)
    (Engine.cache_stats engine);
  check Alcotest.bool "the new search probes 'Title 9'" true
    (probes_title "Title 9" r.Search.best_plan);
  let r' = Engine.optimize_query engine (title_q "Title 9") in
  check Alcotest.bool "and replaced the entry" true (r == r')

let test_parametric_same_constants_identical () =
  let db = Db.create ~params:F.tiny_params () in
  let engine = Engine.generate db in
  let compiled title =
    Engine.optimize_compiled engine (Engine.logical_of_query db (title_q title))
  in
  let r3, c3 = compiled "Title 3" in
  let r3', c3' = compiled "Title 3" in
  check Alcotest.bool "repeat: physically identical" true (r3 == r3' && c3 == c3');
  let r9, c9 = compiled "Title 9" in
  let r9', c9' = compiled "Title 9" in
  check Alcotest.bool "repeat after substitution: physically identical" true
    (r9 == r9' && c9 == c9');
  check Alcotest.bool "other constants: a new result" false (r3 == r9)

(* The EXP-A..I query shapes over Datagen titles, authors and words. *)
let shapes =
  [
    (fun ~title ~word ~author:_ ->
      Printf.sprintf
        "ACCESS p FROM p IN Paragraph WHERE p->contains_string('%s') AND \
         (p->document()).title == '%s'"
        word title);
    (fun ~title ~word:_ ~author:_ -> title_q title);
    (fun ~title:_ ~word:_ ~author:_ ->
      "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500");
    (fun ~title ~word:_ ~author:_ ->
      Printf.sprintf
        "ACCESS [n: s.number, t: d.title] FROM s IN Section, d IN Document \
         WHERE s.document == d AND d.title == '%s'"
        title);
    (fun ~title:_ ~word ~author:_ ->
      Printf.sprintf "ACCESS p FROM p IN Paragraph WHERE p->contains_string('%s')"
        word);
    (fun ~title ~word:_ ~author:_ ->
      Printf.sprintf "ACCESS s FROM s IN Section WHERE (s.document).title == '%s'"
        title);
    (fun ~title:_ ~word ~author:_ ->
      Printf.sprintf
        "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE \
         p->contains_string('%s')"
        word);
    (fun ~title:_ ~word:_ ~author ->
      Printf.sprintf
        "ACCESS [n: s.number] FROM s IN Section, d IN Document WHERE \
         s.document == d AND d.author == '%s'"
        author);
  ]

let shape_constants_gen =
  let open QCheck2.Gen in
  let* d = int_range 0 (F.tiny_params.Datagen.n_docs + 4) in
  let* w = int_range (-1) (F.tiny_params.Datagen.vocab_size - 1) in
  return
    ( (if d = 0 then Datagen.query_title else Printf.sprintf "Title %d" d),
      (if w < 0 then Datagen.query_word else Printf.sprintf "w%d" w),
      Printf.sprintf "Author %d" (d mod 7) )

let parametric_db = lazy (Db.create ~params:F.tiny_params ())
let parametric_engine = lazy (Engine.generate (Lazy.force parametric_db))

let prop_parametric_hit_matches_fresh_search =
  QCheck2.Test.make ~count:40
    ~name:"parametric hit = fresh search: same plan, same estimated cost"
    QCheck2.Gen.(
      triple (int_range 0 (List.length shapes - 1)) shape_constants_gen
        shape_constants_gen)
    (fun (i, (t1, w1, a1), (t2, w2, a2)) ->
      let db = Lazy.force parametric_db in
      let engine = Lazy.force parametric_engine in
      let shape = List.nth shapes i in
      ignore (Engine.optimize_query engine (shape ~title:t1 ~word:w1 ~author:a1));
      let h0, _ = Engine.cache_stats engine in
      let q = shape ~title:t2 ~word:w2 ~author:a2 in
      let hit = Engine.optimize_query engine q in
      let h1, _ = Engine.cache_stats engine in
      let fresh = Engine.optimize_query (Engine.generate db) q in
      h1 = h0 + 1
      && Plan.equal hit.Search.best_plan fresh.Search.best_plan
      && Restricted.equal hit.Search.best_logical fresh.Search.best_logical
      && Float.equal hit.Search.best_cost fresh.Search.best_cost
      && Engine.cache_fallbacks engine = 0)

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

(* Every maintained set equals [{x | A(x) ∧ T(x) = owner}], computed
   from the implication itself: the exactness the ["/exact"] rule rests
   on.  An antecedent or target that fails to evaluate excludes [x], as
   in maintenance. *)
let exact_sets_ok db =
  let store = db.Db.store in
  let module E = Soqm_semantics.Equivalence in
  let m = Option.get (E.maintained Doc_knowledge.word_count_implication) in
  let eval x e =
    let binding r = if String.equal r m.E.m_var then Some (Value.Obj x) else None in
    try Some (Runtime.eval (Runtime.env ~binding store) e)
    with Runtime.Error _ | Not_found -> None
  in
  let want = Hashtbl.create 32 in
  List.iter
    (fun x ->
      match eval x m.E.m_antecedent, eval x m.E.target with
      | Some a, Some (Value.Obj o) when Value.truthy a ->
        Hashtbl.replace want o
          (Value.Obj x :: Option.value ~default:[] (Hashtbl.find_opt want o))
      | _ -> ())
    (Object_store.extent store m.E.member_cls);
  List.for_all
    (fun cls ->
      List.for_all
        (fun o ->
          let expected =
            Value.set (Option.value ~default:[] (Hashtbl.find_opt want o))
          in
          let actual =
            match Object_store.peek_prop store o m.E.set_prop with
            | Value.Set _ as v -> v
            | _ -> Value.Set []
          in
          Value.equal expected actual)
        (Object_store.extent store cls))
    (E.owner_classes (Object_store.schema store) m)

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
      exact_sets_ok db
      && List.for_all
           (fun q ->
             let live = (Engine.run_optimized engine q).Engine.result in
             let oracle =
               (Engine.run_optimized oracle_engine q).Engine.result
             in
             let reference = (Soqm_oracle.Eval.run_query db q).Engine.result in
             Soqm_algebra.Relation.equal live oracle
             && Soqm_algebra.Relation.equal live reference)
           queries)

(* ------------------------------------------------------------------ *)
(* Write guard on maintained sets                                      *)
(* ------------------------------------------------------------------ *)

let large_query = List.nth queries 2

let agrees_with_naive db engine q =
  Soqm_algebra.Relation.equal (Engine.run_naive db q).Engine.result
    (Engine.run_optimized engine q).Engine.result

let rejected what f =
  match f () with
  | exception Invalid_argument msg ->
    let names_it =
      try
        ignore (Str.search_forward (Str.regexp_string "largeParagraphs") msg 0);
        true
      with Not_found -> false
    in
    check Alcotest.bool (what ^ ": the error names the property") true names_it
  | _ -> Alcotest.failf "%s: a user write to largeParagraphs was accepted" what

let test_guard_rejects_user_writes () =
  let db = Db.create ~params:F.small_params () in
  let engine = Engine.generate db in
  let d = F.first_document db in
  let before = Object_store.peek_prop db.Db.store d "largeParagraphs" in
  rejected "Engine.update" (fun () ->
      Engine.update engine d ~prop:"largeParagraphs" (Value.Set []));
  rejected "Engine.insert" (fun () ->
      Engine.insert engine ~cls:"Document"
        [ ("title", Value.Str "forged"); ("largeParagraphs", Value.Set []) ]);
  check Alcotest.int "the rejected insert created nothing" 20
    (Object_store.extent_size db.Db.store "Document");
  let mgr = Soqm_txn.Txn.manager db in
  let txn = Soqm_txn.Txn.begin_ mgr in
  rejected "Txn.set_prop" (fun () ->
      Soqm_txn.Txn.set_prop txn d "largeParagraphs" (Value.Set []));
  rejected "Txn.insert" (fun () ->
      Soqm_txn.Txn.insert txn ~cls:"Document" [ ("largeParagraphs", Value.Set []) ]);
  (* the transaction stays usable after a rejected write *)
  Soqm_txn.Txn.set_prop txn d "title" (Value.Str "still usable");
  (match Soqm_txn.Txn.commit txn with
  | Ok _ -> ()
  | Error (`Conflict reason) -> Alcotest.failf "commit: %s" reason);
  check F.value "the set is untouched" before
    (Object_store.peek_prop db.Db.store d "largeParagraphs");
  check Alcotest.bool "large query still equals naive" true
    (agrees_with_naive db engine large_query)

(* ------------------------------------------------------------------ *)
(* Property: generator plans under DML                                 *)
(* ------------------------------------------------------------------ *)

(* Operations that move paragraphs in and out of the maintained sets:
   word counts crossing 500 (and 800) both ways, paragraph insert and
   delete, a section moving to another document, a document deleted
   with its sections and paragraphs (parent first or children first). *)
type gen_op =
  | Wc of int * int  (* paragraph picker, word-count picker *)
  | Add_para of int * int  (* section picker, word-count picker *)
  | Drop_para of int
  | Move_section of int * int  (* section picker, document picker *)
  | Drop_document of int * bool  (* document picker, document first? *)

let word_counts = [| 120; 499; 500; 501; 650; 800; 801; 950 |]

let gen_op_gen =
  let open QCheck2.Gen in
  let pick = int_range 0 1000 in
  oneof
    [
      map2 (fun i w -> Wc (i, w)) pick pick;
      map2 (fun s w -> Add_para (s, w)) pick pick;
      map (fun i -> Drop_para i) pick;
      map2 (fun s d -> Move_section (s, d)) pick pick;
      map2 (fun d first -> Drop_document (d, first)) pick bool;
    ]

let apply_gen_op db engine op =
  let store = db.Db.store in
  let extent cls = Array.of_list (Object_store.extent store cls) in
  let wc w = Value.Int word_counts.(w mod Array.length word_counts) in
  let children oid prop =
    match Object_store.peek_prop store oid prop with
    | Value.Set xs -> List.filter_map (function Value.Obj o -> Some o | _ -> None) xs
    | _ -> []
  in
  match op with
  | Wc (i, w) ->
    Option.iter
      (fun p -> Engine.update engine p ~prop:"word_count" (wc w))
      (pick (extent "Paragraph") i)
  | Add_para (s, w) ->
    Option.iter
      (fun sec ->
        ignore
          (Engine.insert engine ~cls:"Paragraph"
             [
               ("number", Value.Int 99);
               ("word_count", wc w);
               ("content", Value.Str "added paragraph");
               ("section", Value.Obj sec);
             ]))
      (pick (extent "Section") s)
  | Drop_para i -> Option.iter (Engine.delete engine) (pick (extent "Paragraph") i)
  | Move_section (s, d) -> (
    match pick (extent "Section") s, pick (extent "Document") d with
    | Some sec, Some doc -> Engine.update engine sec ~prop:"document" (Value.Obj doc)
    | _ -> ())
  | Drop_document (d, parent_first) ->
    Option.iter
      (fun doc ->
        let secs = children doc "sections" in
        let paras = List.concat_map (fun s -> children s "paragraphs") secs in
        if parent_first then Engine.delete engine doc;
        List.iter (Engine.delete engine) paras;
        List.iter (Engine.delete engine) secs;
        if not parent_first then Engine.delete engine doc)
      (pick (extent "Document") d)

let generator_queries =
  [ large_query; "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 800" ]

let dml_parity db =
  let engines =
    [
      Engine.generate db;
      (* the 16-spec family multiplies the search space: cap it as the
         knowledge suite does *)
      Engine.generate ~extra_specs:(Soqm_knowledge.Rulegen.family ())
        ~config:
          { Soqm_optimizer.Search.default_config with max_variants = 300 }
        db;
    ]
  in
  fun ops ->
    List.for_all
      (fun op ->
        apply_gen_op db (List.hd engines) op;
        exact_sets_ok db
        && List.for_all
          (fun engine ->
            List.for_all (agrees_with_naive db engine) generator_queries)
          engines)
      ops

let gen_ops_gen = QCheck2.Gen.(list_size (int_range 5 20) gen_op_gen)

let prop_generator_dml_parity_memory =
  QCheck2.Test.make ~count:10
    ~name:"generator plans = naive after every DML step (in memory)"
    gen_ops_gen
    (fun ops -> dml_parity (Db.create ~params:F.tiny_params ()) ops)

(* Sets and generator plans of a reopened database directory. *)
let reopened_ok dir =
  let db = Db.open_disk dir in
  let engine = Engine.generate db in
  let ok =
    exact_sets_ok db
    && List.for_all (agrees_with_naive db engine) generator_queries
  in
  Db.close db;
  ok

let prop_generator_dml_parity_disk =
  QCheck2.Test.make ~count:4
    ~name:"generator plans = naive after every DML step (on disk)"
    gen_ops_gen
    (fun ops ->
      F.with_temp_dir "soqm_gen" (fun dir ->
          Db.save (Db.create ~params:F.tiny_params ()) dir;
          let db = Db.open_disk dir in
          let live = dml_parity db ops in
          (* a crash: the handle is dropped without a checkpoint, so the
             reopen replays the WAL through the maintainers; then a clean
             close (checkpoint and derived image) and a second reopen *)
          Soqm_disk.Store.close ~checkpoint:false (Option.get db.Db.disk);
          let after_replay = reopened_ok dir in
          let after_close = reopened_ok dir in
          live && after_replay && after_close))

(* ------------------------------------------------------------------ *)
(* The exact rule: which plans lose the wordCount re-check             *)
(* ------------------------------------------------------------------ *)

let large q = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() " ^ q

let calls_word_count (r : Search.result) =
  let rec go = function
    | Soqm_physical.Plan.MapMeth (_, "wordCount", _, _, _) -> true
    | p -> List.exists go (Soqm_physical.Plan.inputs p)
  in
  go r.Search.best_plan

let test_exact_rule_drops_the_recheck () =
  let db = Db.create ~params:F.small_params () in
  let engine = Engine.generate db in
  check Alcotest.bool "> 500: no wordCount step" false
    (calls_word_count (Engine.optimize_query engine (large "> 500")));
  let r = Engine.run_optimized engine (large "> 500") in
  check Alcotest.int "no wordCount calls" 0
    (Counters.method_call_count r.Engine.counters "Paragraph.wordCount");
  check F.relation "= naive" (Engine.run_naive db (large "> 500")).Engine.result
    r.Engine.result;
  List.iter
    (fun q ->
      check Alcotest.bool (q ^ " keeps its filter") true
        (calls_word_count (Engine.optimize_query engine (large q))))
    [ "> 400"; ">= 500"; "> 600" ]

let test_exact_rule_needs_maintenance () =
  let engine =
    Engine.generate (Db.create ~params:F.small_params ~maintain:false ())
  in
  check Alcotest.bool "maintain:false keeps the filter" true
    (calls_word_count (Engine.optimize_query engine (large "> 500")))

(* A set two maintained implications fill is their union: exact for
   neither, so no exact rule is derived. *)
let test_attach_rejects_two_feeders () =
  let db = Db.create ~params:F.small_params ~maintain:false () in
  let short =
    Soqm_semantics.Spec_lang.parse_spec (Object_store.schema db.Db.store)
      "[ShortParagraphs] FORALL p IN Paragraph: p->wordCount() < 50 => p \
       IS-IN p->document().largeParagraphs"
  in
  let docs = Object_store.extent db.Db.store "Document" in
  let sets () =
    List.map
      (fun d -> Object_store.peek_prop db.Db.store d "largeParagraphs")
      docs
  in
  let sets0 = sets () in
  match
    Maint.attach
      ~implications:[ Doc_knowledge.word_count_implication; short ]
      ~stats:db.Db.stats db.Db.store
  with
  | _ -> Alcotest.fail "attach accepted two implications filling one set"
  | exception Invalid_argument msg ->
    let mentions name =
      match Str.search_forward (Str.regexp_string name) msg 0 with
      | _ -> true
      | exception Not_found -> false
    in
    check Alcotest.bool "names the first spec" true
      (mentions
         (Soqm_semantics.Equivalence.name Doc_knowledge.word_count_implication));
    check Alcotest.bool "names the second spec" true
      (mentions "ShortParagraphs");
    check Alcotest.bool "no set was rewritten" true
      (List.for_all2 Value.equal sets0 (sets ()))

(* A derived image in the previous format (version 1, which also held
   the set memberships) is unusable: the open rebuilds and reconciles the
   sets against their definition.  The base data's set on one document
   is emptied behind maintenance's back and the old image agrees with
   it, so only a reconcile leaves the sets exact. *)
let test_old_image_format_rebuilds () =
  F.with_temp_dir "soqm_v1img" (fun dir ->
      let db0 = Db.create ~params:F.tiny_params () in
      Db.save db0 dir;
      let doc =
        List.find
          (fun d ->
            Object_store.peek_prop db0.Db.store d "largeParagraphs"
            <> Value.Set [])
          (Object_store.extent db0.Db.store "Document")
      in
      let st = Soqm_disk.Store.open_dir dir in
      Soqm_disk.Store.apply st
        [
          Soqm_disk.Wal.Update
            {
              oid = doc;
              prop = "largeParagraphs";
              value = Value.Set [];
              old_value = Object_store.peek_prop db0.Db.store doc "largeParagraphs";
            };
        ];
      Soqm_disk.Store.checkpoint st;
      let seq = Soqm_disk.Store.checkpoint_seq st in
      Soqm_disk.Store.close ~checkpoint:false st;
      (* the version-1 payload: the current one without statistics (whose
         flag is its last byte), version 1 in front and a sets section
         before the flag, here listing no members at all *)
      let img = Option.get (Persist.read ~dir) in
      Persist.write ~dir { img with Persist.seq; stats = None };
      let file = Persist.path ~dir in
      let s = In_channel.with_open_bin file In_channel.input_all in
      let len = String.get_int32_le s 8 |> Int32.to_int in
      let v2 = String.sub s 12 len in
      let buf = Buffer.create (len + 64) in
      Soqm_disk.Codec.write_uvarint buf 1;
      Buffer.add_string buf (String.sub v2 1 (len - 2));
      Soqm_disk.Codec.write_uvarint buf 1;
      Soqm_disk.Codec.write_string buf
        (Soqm_semantics.Equivalence.name Doc_knowledge.word_count_implication);
      Soqm_disk.Codec.write_uvarint buf 0;
      Soqm_disk.Codec.write_uvarint buf 0;
      let v1 = Buffer.contents buf in
      let u32 n =
        let b = Bytes.create 4 in
        Bytes.set_int32_le b 0 (Int32.of_int n);
        Bytes.to_string b
      in
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (String.sub s 0 8 ^ u32 (String.length v1) ^ v1
            ^ u32 (Soqm_disk.Wal.crc32 v1)));
      check Alcotest.bool "version-1 image reads as unusable" true
        (Persist.read ~dir = None);
      let db = Db.open_disk dir in
      check Alcotest.bool "sets exact after the rebuild" true (exact_sets_ok db);
      check Alcotest.bool "the emptied set was refilled" true
        (Object_store.peek_prop db.Db.store doc "largeParagraphs" <> Value.Set []);
      Db.close db;
      let reopened = Db.load dir in
      check Alcotest.bool "the rewritten image is usable" true
        (Persist.read ~dir <> None);
      check Alcotest.bool "sets exact after a fast reopen" true
        (exact_sets_ok reopened))

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
          F.case "parametric hit substitutes constants"
            test_parametric_hit_substitutes;
          F.case "rule and range-index constants stay in the key"
            test_parametric_pinned_threshold;
          F.case "spec constants stay in the key"
            test_parametric_pinned_spec_constant;
          F.case "Bool, Cls and Set constants stay concrete"
            test_parametric_concrete_kinds;
          F.case "equal constants share a slot"
            test_parametric_equal_values_share_a_slot;
          F.case "epoch bump invalidates shapes"
            test_parametric_epoch_invalidation;
          F.case "same constants: physically identical"
            test_parametric_same_constants_identical;
          F.case "re-cost guard falls back" test_parametric_recost_guard;
          QCheck_alcotest.to_alcotest prop_parametric_hit_matches_fresh_search;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest prop_dml_interleaving_matches_oracle ] );
      ( "generators",
        [
          F.case "user writes to maintained sets rejected"
            test_guard_rejects_user_writes;
          QCheck_alcotest.to_alcotest prop_generator_dml_parity_memory;
          QCheck_alcotest.to_alcotest prop_generator_dml_parity_disk;
        ] );
      ( "exact-sets",
        [
          F.case "the exact rule drops the wordCount re-check"
            test_exact_rule_drops_the_recheck;
          F.case "no exact rule without maintenance"
            test_exact_rule_needs_maintenance;
          F.case "attach rejects two specs filling one set"
            test_attach_rejects_two_feeders;
          F.case "an old-format image rebuilds" test_old_image_format_rebuilds;
        ] );
    ]
