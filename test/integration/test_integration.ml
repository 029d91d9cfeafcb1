(* End-to-end integration tests: VQL in, results out, across the whole
   pipeline (parse → typecheck → translate → optimize → execute), on the
   paper's example queries, with ablation checks. *)

open Soqm_vml
open Soqm_algebra
open Soqm_core
module F = Soqm_testlib.Fixtures

let check = Alcotest.check

let db = lazy (F.shared_db ())
let engine = lazy (Engine.generate (Lazy.force db))

let assert_consistent ?(min_speedup = 1.0) name q =
  let d = Lazy.force db in
  let reference = Engine.run_logical_reference d q in
  let naive = Engine.run_naive d q in
  let opt = Engine.run_optimized (Lazy.force engine) q in
  check F.relation (name ^ ": naive = reference") reference naive.Engine.result;
  check F.relation (name ^ ": optimized = reference") reference opt.Engine.result;
  let naive_cost = Counters.total_cost naive.Engine.counters in
  let opt_cost = Counters.total_cost opt.Engine.counters in
  if opt_cost *. min_speedup > naive_cost then
    Alcotest.failf "%s: expected ≥%.0fx speedup, got naive %.1f vs optimized %.1f"
      name min_speedup naive_cost opt_cost

let query_q =
  "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') AND \
   (p->document()).title == 'Query Optimization'"

let test_worked_example () = assert_consistent ~min_speedup:10.0 "Q" query_q

let test_example1_join () =
  (* method call as join predicate; quadratic naive evaluation *)
  assert_consistent "example 1"
    "ACCESS [a: p.number, b: q.number] FROM p IN Paragraph, q IN Paragraph \
     WHERE p->sameDocument(q) AND p.number < 1 AND q.number < 1"

let test_example2_dependent_range () =
  assert_consistent "example 2"
    "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE \
     p->contains_string('Implementation')"

let test_example3_access_methods () =
  assert_consistent "example 3"
    "ACCESS [doc: d.title, paras: d->paragraphs()] FROM d IN Document"

let test_title_only_query_uses_index () =
  let q = "ACCESS d FROM d IN Document WHERE d.title == 'Query Optimization'" in
  assert_consistent ~min_speedup:2.0 "title query" q;
  let opt = Engine.optimize_query (Lazy.force engine) q in
  let rec has_cheap_access = function
    | Soqm_physical.Plan.IndexScan _ | Soqm_physical.Plan.MapMeth (_, "select_by_index", _, _, _)
    | Soqm_physical.Plan.MethodScan (_, _, "select_by_index", _) ->
      true
    | p -> List.exists has_cheap_access (Soqm_physical.Plan.inputs p)
  in
  check Alcotest.bool "index or select_by_index used" true
    (has_cheap_access opt.Soqm_optimizer.Search.best_plan)

let test_word_count_implication () =
  (* wordCount > 500: the implication introduces the largeParagraphs
     membership, and the optimizer orders it before the expensive
     wordCount predicate *)
  let q = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500" in
  let d = Lazy.force db in
  let with_impl = Engine.run_optimized (Lazy.force engine) q in
  let without =
    Engine.run_optimized
      (Engine.generate
         ~classes:
           Doc_knowledge.
             [ Path_methods; Index_equivalences; Inverse_links; Query_method_equivs ]
         d)
      q
  in
  check F.relation "same result" without.Engine.result with_impl.Engine.result;
  check Alcotest.bool "nonempty" true
    (Relation.cardinality with_impl.Engine.result > 0);
  let c_with = Counters.total_cost with_impl.Engine.counters in
  let c_without = Counters.total_cost without.Engine.counters in
  if c_with >= c_without then
    Alcotest.failf "implication should pay off: with %.1f, without %.1f" c_with
      c_without;
  (* the expensive method must be called far less often *)
  check Alcotest.bool "fewer wordCount calls" true
    (Counters.method_call_count with_impl.Engine.counters "Paragraph.wordCount"
    < Counters.method_call_count without.Engine.counters "Paragraph.wordCount" / 2);
  (* the maintained sets generate the answer: the documents are scanned
     and their largeParagraphs unnested, the paragraphs never are *)
  let rec nodes p = p :: List.concat_map nodes (Soqm_physical.Plan.inputs p) in
  let plan =
    (Option.get with_impl.Engine.opt).Soqm_optimizer.Search.best_plan
  in
  check Alcotest.bool "no paragraph scan" false
    (List.exists
       (function Soqm_physical.Plan.FullScan (_, "Paragraph") -> true | _ -> false)
       (nodes plan));
  check Alcotest.bool "generated from the documents' sets" true
    (List.exists
       (function
         | Soqm_physical.Plan.FlatProp
             ("p", "largeParagraphs", d, Soqm_physical.Plan.FullScan (d', "Document"))
           ->
           String.equal d d'
         | _ -> false)
       (nodes plan))

let test_ablation_monotone () =
  (* removing all knowledge classes must not beat the full optimizer on
     the worked example, and the full optimizer must beat the naive
     plan *)
  let d = Lazy.force db in
  let run eng = Engine.run_optimized eng query_q in
  let full = run (Lazy.force engine) in
  let bare = run (Engine.generate ~classes:[] d) in
  let naive = Engine.run_naive d query_q in
  check F.relation "bare = full result" full.Engine.result bare.Engine.result;
  let c_full = Counters.total_cost full.Engine.counters in
  let c_bare = Counters.total_cost bare.Engine.counters in
  let c_naive = Counters.total_cost naive.Engine.counters in
  check Alcotest.bool "semantic knowledge pays off" true (c_full < c_bare);
  check Alcotest.bool "bare optimizer no worse than 2x naive" true
    (c_bare <= c_naive *. 2.0)

let test_each_class_ablation_sound () =
  (* dropping any one knowledge class must preserve correctness *)
  let d = Lazy.force db in
  let reference = Engine.run_logical_reference d query_q in
  List.iter
    (fun dropped ->
      let classes =
        List.filter (fun c -> c <> dropped) Doc_knowledge.all_classes
      in
      let eng = Engine.generate ~classes d in
      let r = Engine.run_optimized eng query_q in
      check F.relation
        ("without " ^ Doc_knowledge.class_name dropped)
        reference r.Engine.result)
    Doc_knowledge.all_classes

let test_intermediate_queries_same_plan_cost_band () =
  (* Q and its manual rewritings Q'..Q'''' from Section 2.3 must all
     optimize to plans within a small cost band: the optimizer erases
     the difference in query formulation *)
  let eng = Lazy.force engine in
  let costs =
    List.map
      (fun q -> (Engine.optimize_query eng q).Soqm_optimizer.Search.best_cost)
      [
        query_q;
        "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
         AND p->document() IS-IN Document->select_by_index('Query Optimization')";
        "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
         AND p.section.document IS-IN Document->select_by_index('Query \
         Optimization')";
      ]
  in
  let lo = List.fold_left Float.min infinity costs in
  let hi = List.fold_left Float.max 0. costs in
  if hi > lo *. 2.0 then
    Alcotest.failf "formulation-dependent plans: costs %s"
      (String.concat ", " (List.map (Printf.sprintf "%.1f") costs))

let test_set_operations_via_vql () =
  assert_consistent "PQ written literally"
    "ACCESS p FROM p IN Paragraph->retrieve_by_string('Implementation') \
     INTERSECTION (Document->select_by_index('Query \
     Optimization')).sections.paragraphs"

let test_report_fields () =
  let opt = Engine.run_optimized (Lazy.force engine) query_q in
  check Alcotest.bool "has optimization result" true (Option.is_some opt.Engine.opt);
  check Alcotest.bool "elapsed nonnegative" true (opt.Engine.elapsed_s >= 0.);
  match opt.Engine.opt with
  | Some o ->
    check Alcotest.bool "explored variants" true
      (o.Soqm_optimizer.Search.variants_explored > 1)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Custom schemas through the text front-ends                          *)
(* ------------------------------------------------------------------ *)

let library_schema_text =
  {|
CLASS Author
  INSTTYPE OBJECTTYPE
    PROPERTIES:
      name: STRING;
      books: {Book} INVERSE Book.author;
  END;
END;
CLASS Book
  OWNTYPE OBJECTTYPE
    METHODS:
      by_author_name(n: STRING): {Book} EXTERNAL COST 3.0 SELECTIVITY 0.02;
  END;
  INSTTYPE OBJECTTYPE
    PROPERTIES:
      title: STRING;
      author: Author INVERSE Author.books;
    METHODS:
      author_name(): STRING { RETURN author.name; };
  END;
END;
|}

let library_knowledge_text =
  {|
[AuthorIndex] FORALL b IN Book (n: STRING):
  b.author.name == n <=> b IS-IN Book->by_author_name(n)
[AuthorPath] FORALL b IN Book: b->author_name() == b.author.name
|}

let make_library () =
  let store = Soqm_vql.Schema_parser.load library_schema_text in
  let index = Soqm_storage.Hash_index.create ~cls:"Book" ~prop:"author" in
  Object_store.register_own_method store ~cls:"Book" ~meth:"by_author_name"
    (Object_store.Native
       (fun store _recv args ->
         match args with
         | [ (Value.Str _ as name) ] ->
           Value.set
             (List.map
                (fun o -> Value.Obj o)
                (Soqm_storage.Hash_index.probe index
                   (Object_store.counters store) name))
         | _ -> raise (Runtime.Error "by_author_name expects a string")));
  List.iter
    (fun name ->
      let a =
        Object_store.create_object store ~cls:"Author" [ ("name", Value.Str name) ]
      in
      for k = 0 to 9 do
        let b =
          Object_store.create_object store ~cls:"Book"
            [
              ("title", Value.Str (Printf.sprintf "%s-%d" name k));
              ("author", Value.Obj a);
            ]
        in
        Soqm_storage.Hash_index.insert index (Value.Str name) b
      done)
    [ "Knuth"; "Liskov"; "Hopper" ];
  store

let test_custom_engine_end_to_end () =
  let store = make_library () in
  let schema = Object_store.schema store in
  let specs = Soqm_semantics.Spec_lang.parse_specs schema library_knowledge_text in
  let engine =
    Engine.generate_custom ~specs ~store
      ~exec_ctx:(Soqm_physical.Exec.basic_ctx store)
      ~has_index:(fun ~cls:_ ~prop:_ -> false)
      ()
  in
  let q = "ACCESS b.title FROM b IN Book WHERE b->author_name() == 'Liskov'" in
  let naive = Engine.run_query engine q in
  let opt = Engine.run_optimized engine q in
  check F.relation "custom engine sound" naive.Engine.result opt.Engine.result;
  check Alcotest.int "ten books" 10 (Relation.cardinality opt.Engine.result);
  check Alcotest.bool "knowledge used" true
    (Counters.total_cost opt.Engine.counters
    < Counters.total_cost naive.Engine.counters);
  (* the index access path appears in the plan *)
  match opt.Engine.opt with
  | Some o ->
    let rec uses_method m = function
      | Soqm_physical.Plan.MethodScan (_, _, m', _)
      | Soqm_physical.Plan.MapMeth (_, m', _, _, _)
      | Soqm_physical.Plan.FlatMeth (_, m', _, _, _)
        when String.equal m m' ->
        true
      | p -> List.exists (uses_method m) (Soqm_physical.Plan.inputs p)
    in
    check Alcotest.bool "by_author_name used" true
      (uses_method "by_author_name" o.Soqm_optimizer.Search.best_plan)
  | None -> Alcotest.fail "expected an optimization result"

let test_custom_engine_inverse_links () =
  (* custom engines derive inverse-link equivalences automatically *)
  let store = make_library () in
  let engine =
    Engine.generate_custom ~store
      ~exec_ctx:(Soqm_physical.Exec.basic_ctx store)
      ~has_index:(fun ~cls:_ ~prop:_ -> false)
      ()
  in
  let q =
    "ACCESS b FROM b IN Book WHERE b.author IS-IN Author"
  in
  (* every book's author is in the extent: sanity of membership over a
     class object *)
  let r = Engine.run_optimized engine q in
  check Alcotest.int "all books" 30 (Relation.cardinality r.Engine.result)

let test_derived_data_knowledge_enables_range_scan () =
  (* §5.1: "the return values of methods constitute derived data" — told
     that wordCount() equals the stored word_count property, the
     optimizer turns the expensive method predicate into an ordered-index
     probe.  No knowledge class ships this spec; it is supplied
     explicitly. *)
  let d = F.small_db () in
  let derived =
    Soqm_semantics.Spec_lang.parse_spec (Object_store.schema d.Db.store)
      "[WordCountStored] FORALL p IN Paragraph: p->wordCount() == p.word_count"
  in
  let eng = Engine.generate ~extra_specs:[ derived ] d in
  let q = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500" in
  let default = Engine.run_optimized (Engine.generate d) q in
  (* the implication's membership filter alone: without maintenance the
     largeParagraphs sets are not upheld, so they generate nothing *)
  let without =
    Engine.run_optimized
      (Engine.generate (Db.create ~params:F.small_params ~maintain:false ()))
      q
  in
  let with_derived = Engine.run_optimized eng q in
  check F.relation "same result" without.Engine.result with_derived.Engine.result;
  check F.relation "same result as default" default.Engine.result
    with_derived.Engine.result;
  check Alcotest.int "zero method calls" 0
    (Counters.method_call_count with_derived.Engine.counters "Paragraph.wordCount");
  check Alcotest.bool "far cheaper" true
    (Counters.total_cost with_derived.Engine.counters
    < Counters.total_cost without.Engine.counters /. 10.);
  check Alcotest.bool "no dearer than the default knowledge" true
    (Counters.total_cost with_derived.Engine.counters
    <= Counters.total_cost default.Engine.counters);
  match with_derived.Engine.opt with
  | Some o ->
    let rec uses_range_scan = function
      | Soqm_physical.Plan.RangeScan _ -> true
      | p -> List.exists uses_range_scan (Soqm_physical.Plan.inputs p)
    in
    check Alcotest.bool "range scan chosen" true
      (uses_range_scan o.Soqm_optimizer.Search.best_plan)
  | None -> Alcotest.fail "expected optimization"

let test_plan_cache () =
  (* re-optimizing the same query (whose translation is an alpha-variant
     of the first) hits the engine's plan cache *)
  let eng = Engine.generate (Lazy.force db) in
  let r1 = Engine.optimize_query eng query_q in
  let t0 = Unix.gettimeofday () in
  let r2 = Engine.optimize_query eng query_q in
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "cache hit returns the same result" true (r1 == r2);
  check Alcotest.bool "and is immediate" true (dt < 0.05);
  (* a different query misses *)
  let r3 = Engine.optimize_query eng "ACCESS p FROM p IN Paragraph" in
  check Alcotest.bool "different query, different plan" true (not (r1 == r3))

let test_snapshot_roundtrip () =
  let d = F.tiny_db () in
  F.with_temp_dir "soqm" (fun path ->
      Db.save d path;
      let d' = Db.load path in
      (* same data *)
      check Alcotest.int "paragraph extent"
        (Object_store.extent_size d.Db.store "Paragraph")
        (Object_store.extent_size d'.Db.store "Paragraph");
      check Alcotest.bool "extent order preserved" true
        (Object_store.extent d.Db.store "Paragraph"
        = Object_store.extent d'.Db.store "Paragraph");
      (* same query results, methods and access paths rewired *)
      let reference = Engine.run_logical_reference d query_q in
      let eng = Engine.generate d' in
      let opt = Engine.run_optimized eng query_q in
      check F.relation "loaded db answers identically" reference opt.Engine.result;
      (* mutating the copy does not affect the original *)
      let p = List.hd (Object_store.extent d'.Db.store "Paragraph") in
      Object_store.delete_object d'.Db.store p;
      check Alcotest.bool "independent stores" true
        (Object_store.exists d.Db.store p))

let test_snapshot_rejects_garbage () =
  (* a directory that is not a database: no meta file *)
  F.with_temp_dir "soqm" (fun path ->
      let oc = open_out (Filename.concat path "noise") in
      output_string oc "not a database at all";
      close_out oc;
      Alcotest.match_raises "rejected"
        (function Soqm_disk.Store.Format_error _ -> true | _ -> false)
        (fun () -> ignore (Db.load path)));
  (* a foreign meta file *)
  F.with_temp_dir "soqm" (fun path ->
      let oc = open_out (Filename.concat path "meta") in
      output_string oc "not a meta file";
      close_out oc;
      Alcotest.match_raises "foreign meta rejected"
        (function Soqm_disk.Store.Format_error _ -> true | _ -> false)
        (fun () -> ignore (Db.load path)))

let test_dot_renders () =
  let res = Engine.optimize_query (Lazy.force engine) query_q in
  let deriv = Soqm_optimizer.Dot.of_derivation res in
  check Alcotest.bool "derivation graph" true
    (String.length deriv > 200
    && String.sub deriv 0 7 = "digraph"
    && String.length (Soqm_optimizer.Dot.of_plan res.Soqm_optimizer.Search.best_plan) > 50
    && String.length (Soqm_optimizer.Dot.of_restricted res.Soqm_optimizer.Search.best_logical) > 50)

let test_rule_statistics () =
  let res = Engine.optimize_query (Lazy.force engine) query_q in
  let stats = res.Soqm_optimizer.Search.rule_applications in
  check Alcotest.bool "statistics nonempty" true (stats <> []);
  check Alcotest.bool "commute fired" true
    (List.mem_assoc "commute-unary" stats);
  List.iter (fun (_, n) -> check Alcotest.bool "positive counts" true (n > 0)) stats

let test_impure_method_not_optimized () =
  let schema = Doc_schema.make ~pure_word_count:false () in
  let db = Db.create ~schema ~params:F.tiny_params () in
  let eng = Engine.generate db in
  let q = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500" in
  let logical = Engine.logical_of_query db q in
  check Alcotest.bool "flagged unsafe" true
    (Result.is_error (Engine.safe_to_optimize db logical));
  let r = Engine.run_optimized eng q in
  check Alcotest.bool "executed without optimization" true (r.Engine.opt = None);
  check F.relation "still correct" (Engine.run_naive db q).Engine.result
    r.Engine.result

let prop_pipeline_sound =
  QCheck2.Test.make ~count:20
    ~name:"pipeline: optimized = naive on random paragraph queries"
    Soqm_testlib.Gen.para_query_gen
    (fun g ->
      let d = Lazy.force db in
      let logical = Translate.of_general (General.Project ([ "p" ], g)) in
      let res = Engine.optimize (Lazy.force engine) logical in
      let reference = Eval.run d.Db.store (General.Project ([ "p" ], g)) in
      let got =
        Soqm_physical.Exec.run (Engine.exec_ctx d) res.Soqm_optimizer.Search.best_plan
      in
      Relation.equal reference got)

let () =
  Alcotest.run "integration"
    [
      ( "worked-example",
        [
          F.case "Q optimizes and agrees" test_worked_example;
          F.case "Q formulations equal cost" test_intermediate_queries_same_plan_cost_band;
          F.case "PQ literal" test_set_operations_via_vql;
        ] );
      ( "paper-examples",
        [
          F.case "example 1 (method join)" test_example1_join;
          F.case "example 2 (dependent range)" test_example2_dependent_range;
          F.case "example 3 (access methods)" test_example3_access_methods;
        ] );
      ( "optimizations",
        [
          F.case "title query uses access path" test_title_only_query_uses_index;
          F.case "wordCount implication" test_word_count_implication;
        ] );
      ( "ablation",
        [
          F.case "knowledge pays off" test_ablation_monotone;
          F.case "each class droppable" test_each_class_ablation_sound;
        ] );
      ( "custom-schemas",
        [
          F.case "library engine end to end" test_custom_engine_end_to_end;
          F.case "inverse links derived" test_custom_engine_inverse_links;
        ] );
      ( "tooling",
        [
          F.case "plan cache" test_plan_cache;
          F.case "snapshot roundtrip" test_snapshot_roundtrip;
          F.case "snapshot rejects garbage" test_snapshot_rejects_garbage;
          F.case "derived data enables range scan"
            test_derived_data_knowledge_enables_range_scan;
          F.case "dot renders" test_dot_renders;
          F.case "rule statistics" test_rule_statistics;
          F.case "impure methods not optimized" test_impure_method_not_optimized;
        ] );
      ( "reports",
        [
          F.case "report fields" test_report_fields;
          QCheck_alcotest.to_alcotest prop_pipeline_sound;
        ] );
    ]
