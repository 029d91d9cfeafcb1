(* Benchmark harness: regenerates every experiment of EXPERIMENTS.md.

   The paper (ICDE'95) has no numbered tables or figures; its empirical
   content is the worked example of Section 2.3 and a set of explicit
   claims.  Each EXP-* module below reproduces one claim as a
   deterministic table of logical costs (the machine-independent metric)
   plus, at the end, Bechamel wall-clock measurements for the headline
   comparison.

   Run with: dune exec bench/main.exe *)

open Soqm_vml
open Soqm_core

let query_q =
  "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
   AND (p->document()).title == 'Query Optimization'"

let section title =
  Printf.printf "\n=====================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "=====================================================================\n"

let cost (r : Engine.report) = Counters.total_cost r.Engine.counters

(* ------------------------------------------------------------------ *)
(* EXP-A: the worked example at increasing database sizes              *)
(* ------------------------------------------------------------------ *)

let exp_a () =
  section
    "EXP-A  worked example (Section 2.3): straightforward vs optimized \
     evaluation";
  Printf.printf "%8s %12s | %14s %14s | %9s | %12s %12s | %s\n" "docs"
    "paragraphs" "naive cost" "optimized cost" "speedup" "naive tuples"
    "opt tuples" "results equal";
  List.iter
    (fun n_docs ->
      let db = Db.create ~params:{ Datagen.default with n_docs } () in
      let engine = Engine.generate db in
      let naive = Engine.run_naive db query_q in
      let opt = Engine.run_optimized engine query_q in
      let reference = Engine.run_reference db query_q in
      let equal =
        Soqm_algebra.Relation.equal naive.Engine.result opt.Engine.result
        && Soqm_algebra.Relation.equal naive.Engine.result
             reference.Engine.result
      in
      let cn = cost naive and co = cost opt in
      Printf.printf "%8d %12d | %14.1f %14.1f | %8.1fx | %12d %12d | %b\n"
        n_docs
        (Object_store.extent_size db.Db.store "Paragraph")
        cn co (cn /. co)
        (Counters.tuples_produced naive.Engine.counters)
        (Counters.tuples_produced opt.Engine.counters)
        equal)
    [ 50; 200; 800 ];
  Printf.printf
    "\nclaim: the optimized plan PQ is evaluated 'much more efficiently';\n\
     its cost is dominated by two index probes and is independent of the\n\
     database size, so the speedup grows linearly with the data.  The\n\
     tuples-touched columns separate plan quality (fewer tuples) from\n\
     evaluator overhead (time per tuple) — see EXPERIMENTS.md.\n"

(* ------------------------------------------------------------------ *)
(* EXP-B: ablation of the knowledge classes                            *)
(* ------------------------------------------------------------------ *)

let exp_b () =
  section "EXP-B  rule ablation: each knowledge class contributes";
  let db = Db.create ~params:{ Datagen.default with n_docs = 200 } () in
  let naive = Engine.run_naive db query_q in
  let full = Engine.generate db in
  let full_report = Engine.run_optimized full query_q in
  let line label report =
    Printf.printf "%-36s %14.1f %10s\n" label (cost report)
      (if Soqm_algebra.Relation.equal report.Engine.result naive.Engine.result
       then "ok"
       else "MISMATCH")
  in
  Printf.printf "%-36s %14s %10s\n" "configuration" "measured cost" "result";
  line "naive (no optimizer)" naive;
  line "all knowledge classes" full_report;
  List.iter
    (fun dropped ->
      let classes =
        List.filter (fun c -> c <> dropped) Doc_knowledge.all_classes
      in
      let eng = Engine.generate ~classes db in
      line
        (Printf.sprintf "without %s" (Doc_knowledge.class_name dropped))
        (Engine.run_optimized eng query_q))
    Doc_knowledge.all_classes;
  line "no schema-specific knowledge"
    (Engine.run_optimized (Engine.generate ~classes:[] db) query_q);
  Printf.printf
    "\nclaim: 'there is no way for the optimizer to derive the final query\n\
     plan from the user's query without having schema-specific information\n\
     on the semantics of the methods.'\n"

(* ------------------------------------------------------------------ *)
(* EXP-C: optimizer scaling with the rule set                          *)
(* ------------------------------------------------------------------ *)

let exp_c () =
  section "EXP-C  optimization effort vs size of the generated rule set";
  let db = Db.create ~params:{ Datagen.default with n_docs = 50 } () in
  let queries =
    [
      ("worked example Q", query_q);
      ( "two-range join",
        "ACCESS [n: s.number, t: d.title] FROM s IN Section, d IN Document \
         WHERE s.document == d AND d.title == 'Query Optimization'" );
    ]
  in
  Printf.printf "%-20s %6s %6s %9s %9s\n" "query" "kinds" "rules" "variants"
    "time(ms)";
  List.iter
    (fun (qname, q) ->
      List.iter
        (fun k ->
          let classes =
            List.filteri (fun i _ -> i < k) Doc_knowledge.all_classes
          in
          let eng = Engine.generate ~classes db in
          let t0 = Unix.gettimeofday () in
          let res = Engine.optimize_query eng q in
          let dt = (Unix.gettimeofday () -. t0) *. 1000. in
          Printf.printf "%-20s %6d %6d %9d %9.1f\n" qname k
            (Engine.rule_count eng)
            res.Soqm_optimizer.Search.variants_explored dt)
        [ 0; 2; 4; 5 ])
    queries;
  Printf.printf
    "\nclaim: Volcano-style rule-based optimization 'has been shown to be\n\
     very efficient'; adding schema-specific rules grows the explored\n\
     space but optimization stays in the tens of milliseconds.\n"

(* ------------------------------------------------------------------ *)
(* EXP-D: expensive method predicates and access-path crossover        *)
(* ------------------------------------------------------------------ *)

let exp_d () =
  section
    "EXP-D  methods are not uniform-cost attributes: predicate cost drives \
     the plan";
  Printf.printf "query: %s\n\n" query_q;
  Printf.printf
    "the title probe yields ~%d candidate paragraphs; calling the\n\
     per-object method on them costs candidates x c, the class-level\n\
     retrieve_by_string probe a flat %.0f — the optimizer must switch at\n\
     the crossover.\n\n"
    (Datagen.default.Datagen.sections_per_doc
    * Datagen.default.Datagen.paras_per_section)
    Doc_schema.cost_retrieve_by_string;
  Printf.printf "%16s | %-14s %14s | %16s\n" "contains cost" "access path"
    "measured cost" "contains calls";
  List.iter
    (fun c ->
      let schema = Doc_schema.make ~cost_contains_string:c () in
      let db =
        Db.create ~schema ~params:{ Datagen.default with n_docs = 50 } ()
      in
      let engine = Engine.generate db in
      let opt = Engine.run_optimized engine query_q in
      let plan =
        match opt.Engine.opt with
        | Some o -> o.Soqm_optimizer.Search.best_plan
        | None -> assert false
      in
      let rec uses_retrieve = function
        | Soqm_physical.Plan.MethodScan (_, _, "retrieve_by_string", _) -> true
        | p -> List.exists uses_retrieve (Soqm_physical.Plan.inputs p)
      in
      Printf.printf "%16.2f | %-14s %14.1f | %16d\n" c
        (if uses_retrieve plan then "index (E5)" else "per-object")
        (cost opt)
        (Counters.method_call_count opt.Engine.counters
           "Paragraph.contains_string"))
    [ 0.05; 0.5; 5.0; 50.0 ];
  Printf.printf
    "\nclaim (Section 2.3, citing predicate migration): method access cost\n\
     is not uniform; the optimizer must know it.  When the per-object\n\
     method is cheap the optimizer filters first and calls it on the few\n\
     candidates; past the crossover it switches to the class-level access\n\
     path E5 provides.\n"

(* ------------------------------------------------------------------ *)
(* EXP-E: path expressions as implicit joins (Example 8)               *)
(* ------------------------------------------------------------------ *)

let exp_e () =
  section "EXP-E  transformation of path expressions into explicit joins";
  let q =
    "ACCESS s FROM s IN Section WHERE (s.document).title == 'Query \
     Optimization'"
  in
  Printf.printf "query: %s\n\n" q;
  Printf.printf "%8s | %14s %14s\n" "docs" "navigation" "with Example 8";
  List.iter
    (fun n_docs ->
      let db = Db.create ~params:{ Datagen.default with n_docs } () in
      let without =
        Engine.generate ~classes:[]
          ~builtin_filter:(fun n -> n <> "path-to-join")
          db
      in
      let with_rule = Engine.generate ~classes:[] db in
      let r1 = Engine.run_optimized without q in
      let r2 = Engine.run_optimized with_rule q in
      assert (Soqm_algebra.Relation.equal r1.Engine.result r2.Engine.result);
      Printf.printf "%8d | %14.1f %14.1f\n" n_docs (cost r1) (cost r2))
    [ 50; 200 ];
  Printf.printf
    "\nclaim (Example 8): rewriting the implicit join of a path expression\n\
     into an explicit join opens plans that replace per-tuple navigation\n\
     by a join against a (small or indexed) class extent.\n"

(* ------------------------------------------------------------------ *)
(* EXP-F: implications and precomputed information                     *)
(* ------------------------------------------------------------------ *)

let exp_f () =
  section "EXP-F  implication rules with precomputed largeParagraphs";
  let q = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500" in
  Printf.printf "query: %s\n\n" q;
  Printf.printf "%12s | %14s %14s | %18s\n" "large frac" "without impl"
    "with impl" "wordCount calls";
  List.iter
    (fun large_fraction ->
      let db =
        Db.create
          ~params:{ Datagen.default with n_docs = 100; large_fraction }
          ()
      in
      let with_impl = Engine.generate db in
      let without_impl =
        Engine.generate
          ~classes:
            Doc_knowledge.
              [
                Path_methods; Index_equivalences; Inverse_links;
                Query_method_equivs;
              ]
          db
      in
      let r_with = Engine.run_optimized with_impl q in
      let r_without = Engine.run_optimized without_impl q in
      assert (
        Soqm_algebra.Relation.equal r_with.Engine.result r_without.Engine.result);
      Printf.printf "%11.0f%% | %14.1f %14.1f | %8d -> %7d\n"
        (large_fraction *. 100.)
        (cost r_without) (cost r_with)
        (Counters.method_call_count r_without.Engine.counters
           "Paragraph.wordCount")
        (Counters.method_call_count r_with.Engine.counters "Paragraph.wordCount"))
    [ 0.01; 0.10; 0.50 ];
  Printf.printf
    "\nclaim (Section 4.2): implications 'can be very interesting for\n\
     finding efficient execution plans in the presence of precomputed\n\
     information' — the benefit tracks the precomputed set's selectivity.\n"

(* ------------------------------------------------------------------ *)
(* EXP-G: equi-expressiveness of the restricted algebra                *)
(* ------------------------------------------------------------------ *)

let exp_g () =
  section "EXP-G  general vs restricted algebra (Section 6.1)";
  let db = Db.create ~params:{ Datagen.default with n_docs = 10 } () in
  let rand = Random.State.make [| 2026 |] in
  let n = 200 in
  let sizes = ref [] in
  let preserved = ref 0 in
  for _ = 1 to n do
    let g = QCheck2.Gen.generate1 ~rand Soqm_testlib.Gen.term_gen in
    match Soqm_algebra.General.well_formed g with
    | Error _ -> incr preserved (* unreachable: the generator is sound *)
    | Ok () ->
      let r = Soqm_algebra.Translate.of_general g in
      sizes := (Soqm_algebra.General.size g, Soqm_algebra.Restricted.size r) :: !sizes;
      let expected = Soqm_algebra.Eval.run db.Db.store g in
      let got =
        Soqm_algebra.Eval.run db.Db.store (Soqm_algebra.Restricted.to_general r)
      in
      if Soqm_algebra.Relation.equal expected got then incr preserved
  done;
  let gsum = List.fold_left (fun a (g, _) -> a + g) 0 !sizes in
  let rsum = List.fold_left (fun a (_, r) -> a + r) 0 !sizes in
  let worst =
    List.fold_left
      (fun w (g, r) -> Float.max w (float_of_int r /. float_of_int g))
      0. !sizes
  in
  Printf.printf
    "random terms: %d   semantics preserved: %d/%d\n\
     average operators: general %.2f -> restricted %.2f (x%.2f)\n\
     worst per-term blow-up: x%.2f\n"
    n !preserved n
    (float_of_int gsum /. float_of_int (List.length !sizes))
    (float_of_int rsum /. float_of_int (List.length !sizes))
    (float_of_int rsum /. float_of_int gsum)
    worst;
  Printf.printf
    "\nclaim: 'Both algebras have the same expressive power' — expression\n\
     composition becomes operator composition, with a modest constant\n\
     factor in operator count.\n"

(* ------------------------------------------------------------------ *)
(* EXP-H: derived data — method results vs stored properties           *)
(* ------------------------------------------------------------------ *)

let exp_h () =
  section "EXP-H  derived data (Section 5.1): the access-path ladder";
  let q = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500" in
  Printf.printf "query: %s\n\n" q;
  let db = Db.create ~params:{ Datagen.default with n_docs = 100 } () in
  let derived_spec =
    Soqm_semantics.Spec_lang.parse_spec
      (Object_store.schema db.Db.store)
      "[WordCountStored] FORALL p IN Paragraph: p->wordCount() == p.word_count"
  in
  let configs =
    [
      ("no knowledge", Engine.generate ~classes:[] db);
      ( "implication (largeParagraphs)",
        Engine.generate ~classes:Doc_knowledge.[ Path_methods; Implications ] db );
      ( "derived data (ordered index)",
        Engine.generate ~classes:[] ~extra_specs:[ derived_spec ] db );
    ]
  in
  let naive = Engine.run_naive db q in
  Printf.printf "%-34s %14s %16s\n" "knowledge" "measured cost" "wordCount calls";
  Printf.printf "%-34s %14.1f %16d\n" "(naive)" (cost naive)
    (Counters.method_call_count naive.Engine.counters "Paragraph.wordCount");
  List.iter
    (fun (label, eng) ->
      let r = Engine.run_optimized eng q in
      assert (Soqm_algebra.Relation.equal r.Engine.result naive.Engine.result);
      Printf.printf "%-34s %14.1f %16d\n" label (cost r)
        (Counters.method_call_count r.Engine.counters "Paragraph.wordCount"))
    configs;
  Printf.printf
    "\nclaim (Section 5.1): 'the return values of methods constitute derived\n\
     data ... relationships between these return values and the database\n\
     state exist.'  Telling the optimizer that wordCount() equals the\n\
     stored property turns the method predicate into one ordered-index\n\
     probe — stronger than the implication, which only narrows the\n\
     candidates.\n"

(* ------------------------------------------------------------------ *)
(* EXP-I: cost model calibration                                       *)
(* ------------------------------------------------------------------ *)

let exp_i () =
  section "EXP-I  cost model calibration: estimated vs measured cost";
  let db = Db.create ~params:{ Datagen.default with n_docs = 100 } () in
  let engine = Engine.generate db in
  let queries =
    [
      ("worked example Q", query_q);
      ("title probe", "ACCESS d FROM d IN Document WHERE d.title == 'Query Optimization'");
      ("word count", "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500");
      ( "section path",
        "ACCESS s FROM s IN Section WHERE (s.document).title == 'Query \
         Optimization'" );
      ( "dependent range",
        "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE \
         p->contains_string('Implementation')" );
      ( "join",
        "ACCESS [n: s.number] FROM s IN Section, d IN Document WHERE \
         s.document == d AND d.author == 'Author 0'" );
    ]
  in
  Printf.printf "%-20s %14s %14s %8s\n" "query" "estimated" "measured" "ratio";
  let ratios =
    List.map
      (fun (name, q) ->
        let opt = Engine.run_optimized engine q in
        let est =
          match opt.Engine.opt with
          | Some o -> o.Soqm_optimizer.Search.best_cost
          | None -> nan
        in
        let measured = cost opt in
        let ratio = est /. measured in
        Printf.printf "%-20s %14.1f %14.1f %8.2f\n" name est measured ratio;
        ratio)
      queries
  in
  let lo = List.fold_left Float.min infinity ratios in
  let hi = List.fold_left Float.max 0. ratios in
  Printf.printf
    "\nestimate/measured spread: %.2f .. %.2f — 'a simple cost model'\n\
     (Section 7) needs only to rank alternatives, not predict absolute\n\
     costs; ratios within one order of magnitude suffice for that.\n"
    lo hi

(* ------------------------------------------------------------------ *)
(* Wall-clock measurements (Bechamel)                                  *)
(* ------------------------------------------------------------------ *)

let wall_clock () =
  section "wall-clock micro-benchmarks (Bechamel, OLS time/run)";
  let open Bechamel in
  let open Toolkit in
  let db = Db.create ~params:{ Datagen.default with n_docs = 50 } () in
  let engine = Engine.generate db in
  let logical = Engine.logical_of_query db query_q in
  let opt = Engine.optimize engine logical in
  let naive_plan = Soqm_physical.Plan.default_implementation logical in
  let ctx = Engine.exec_ctx db in
  (* the engine caches plans by canonical logical term; measure the cold
     search separately by calling the search engine directly *)
  let schema = Object_store.schema db.Db.store in
  let derived_t, derived_i =
    Soqm_semantics.Derive.rules_of_specs schema (Doc_knowledge.specs ())
  in
  let cold_optimize () =
    Soqm_optimizer.Search.optimize (Engine.opt_ctx_of db)
      (Soqm_optimizer.Builtin_rules.transformations @ derived_t)
      (Soqm_optimizer.Builtin_rules.implementations @ derived_i)
      logical
  in
  let tests =
    [
      Test.make ~name:"execute-naive-plan"
        (Staged.stage (fun () -> ignore (Soqm_physical.Exec.run ctx naive_plan)));
      Test.make ~name:"execute-optimized-plan"
        (Staged.stage (fun () ->
             ignore
               (Soqm_physical.Exec.run ctx opt.Soqm_optimizer.Search.best_plan)));
      Test.make ~name:"optimize-q-cold"
        (Staged.stage (fun () -> ignore (cold_optimize ())));
      Test.make ~name:"optimize-q-plan-cache-hit"
        (Staged.stage (fun () -> ignore (Engine.optimize engine logical)));
      Test.make ~name:"parse-and-translate"
        (Staged.stage (fun () -> ignore (Engine.logical_of_query db query_q)));
    ]
  in
  let grouped = Test.make_grouped ~name:"soqm" ~fmt:"%s/%s" tests in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None ~stabilize:false
      ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let label = Measure.label Instance.monotonic_clock in
  let entries =
    Hashtbl.fold (fun name b acc -> (name, b) :: acc) raw []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "%-34s %16s %10s\n" "benchmark" "time/run" "r²";
  List.iter
    (fun (name, (b : Benchmark.t)) ->
      let ols =
        Analyze.OLS.ols ~bootstrap:0 ~r_square:true ~responder:label
          ~predictors:[| Measure.run |] b.Benchmark.lr
      in
      let time_ns =
        match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> nan
      in
      let pretty t =
        if t > 1e9 then Printf.sprintf "%.2f s" (t /. 1e9)
        else if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
        else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
        else Printf.sprintf "%.0f ns" t
      in
      Printf.printf "%-34s %16s %10s\n" name (pretty time_ns)
        (match Analyze.OLS.r_square ols with
        | Some r2 -> Printf.sprintf "%.3f" r2
        | None -> "-"))
    entries

let () =
  Printf.printf
    "Semantic Query Optimization for Methods — experiment harness\n\
     (logical costs are deterministic; wall-clock at the end)\n";
  exp_a ();
  exp_b ();
  exp_c ();
  exp_d ();
  exp_e ();
  exp_f ();
  exp_g ();
  exp_h ();
  exp_i ();
  wall_clock ();
  Printf.printf "\nall experiments completed.\n"
