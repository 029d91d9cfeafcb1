(* The knowledge compiler: saturation-derived rewrites and bounded
   counterexample checking.  The two acceptance gates of the subsystem
   live here: a generated 100+-rule knowledge base must optimize
   correctly (optimized ≡ Naive), and the checker must refute every
   seeded-unsound mutation while accepting all shipped rules. *)

open Soqm_vml
open Soqm_semantics
open Soqm_knowledge

let schema = Soqm_core.Doc_schema.schema

let install store =
  Soqm_core.Doc_schema.install_internal_methods store;
  Soqm_core.Doc_schema.install_scan_methods store

let declared = Soqm_core.Doc_knowledge.specs ()

let saturated = lazy (Saturate.run schema declared)

(* ------------------------------------------------------------------ *)
(* saturation                                                          *)
(* ------------------------------------------------------------------ *)

let test_saturation_closes () =
  let facts, stats = Lazy.force saturated in
  Alcotest.(check int)
    "declared count" (List.length declared) stats.Saturate.declared;
  Alcotest.(check bool) "not truncated" false stats.Saturate.truncated;
  Alcotest.(check bool) "derived something" true (stats.Saturate.derived > 0);
  Alcotest.(check int)
    "facts = declared + derived"
    (stats.Saturate.declared + stats.Saturate.derived)
    (List.length facts)

let test_saturation_fixpoint () =
  (* closing the closure derives nothing new: every candidate is
     subsumed by an already-present fact *)
  let facts, _ = Lazy.force saturated in
  let _, stats = Saturate.run schema (Saturate.specs facts) in
  Alcotest.(check int) "no new derivations" 0 stats.Saturate.derived

(* fixpoint on arbitrary sub-bases, not just the shipped one: whatever
   subset of the declared knowledge we start from, closing the closure
   derives nothing new *)
let prop_fixpoint_random_subbase =
  let base = declared @ Rulegen.family () in
  QCheck2.Test.make ~count:15 ~name:"saturation is a fixpoint on random sub-bases"
    QCheck2.Gen.(list_repeat (List.length base) bool)
    (fun mask ->
      let specs =
        List.filteri
          (fun i _ -> List.nth mask i)
          base
      in
      let facts, _ = Saturate.run schema specs in
      let _, again = Saturate.run schema (Saturate.specs facts) in
      again.Saturate.derived = 0)

let test_saturation_provenance () =
  let facts, _ = Lazy.force saturated in
  let traces = Saturate.provenance_alist facts in
  Alcotest.(check bool) "derived facts carry traces" true (traces <> []);
  List.iter
    (fun (name, trace) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has a real trace" name)
        true
        (String.length trace > 0 && name.[0] = 'K'))
    traces

let test_saturation_validates () =
  (* every derived specification passes schema validation *)
  let facts, _ = Lazy.force saturated in
  List.iter
    (fun spec ->
      match Equivalence.validate schema spec with
      | Ok () -> ()
      | Error msg ->
        Alcotest.failf "derived spec %s invalid: %s" (Equivalence.name spec) msg)
    (Saturate.specs facts)

let test_saturation_derives_path_composition () =
  (* E1 substituted into the large-paragraphs implication: the
     maintained set becomes reachable through the stored path *)
  let facts, _ = Lazy.force saturated in
  let stored_path =
    Expr.Prop
      (Expr.Prop (Expr.Prop (Expr.Ref "p", "section"), "document"),
       "largeParagraphs")
  in
  let found =
    List.exists
      (fun (f : Saturate.fact) ->
        match f.Saturate.spec with
        | Equivalence.Implication { consequent = Expr.Binop (Expr.IsIn, _, set); _ }
          ->
          Expr.equal set stored_path
        | _ -> false)
      facts
  in
  Alcotest.(check bool) "stored-path implication derived" true found

let test_rulegen_gate () =
  (* the 100+-rule gate: a 32-spec declared family saturates to well
     over 100 derived rules, without truncation *)
  let family = Rulegen.family () in
  let _, stats = Saturate.run schema family in
  Alcotest.(check bool) "family not truncated" false stats.Saturate.truncated;
  Alcotest.(check bool)
    (Printf.sprintf "derived %d >= 100" stats.Saturate.derived)
    true
    (stats.Saturate.derived >= 100)

let test_saturation_counters () =
  let c = Counters.create () in
  let _, stats = Saturate.run ~counters:c schema declared in
  Alcotest.(check int) "rules_derived counter" stats.Saturate.derived
    (Counters.get c Rules_derived);
  Alcotest.(check int) "rules_subsumed counter" stats.Saturate.subsumed
    (Counters.get c Rules_subsumed)

(* ------------------------------------------------------------------ *)
(* bounded checking                                                    *)
(* ------------------------------------------------------------------ *)

let check_config = { Check.default_config with models_per_size = 20 }

let test_checker_accepts_declared () =
  List.iter
    (fun spec ->
      match
        Check.check_spec ~config:check_config ~install ~trusted:declared schema
          spec
      with
      | Check.Sound _ -> ()
      | Check.Refuted w ->
        Alcotest.failf "declared rule %s refuted:\n%s\nat %s"
          (Equivalence.name spec) w.Check.store_text w.Check.detail
      | Check.Unsupported msg ->
        Alcotest.failf "declared rule %s unsupported: %s" (Equivalence.name spec)
          msg)
    declared

let test_checker_accepts_derived () =
  let facts, _ = Lazy.force saturated in
  List.iter
    (fun spec ->
      match
        Check.check_spec ~config:check_config ~install ~trusted:declared schema
          spec
      with
      | Check.Sound _ -> ()
      | Check.Refuted w ->
        Alcotest.failf "derived rule %s refuted:\n%s\nat %s"
          (Equivalence.name spec) w.Check.store_text w.Check.detail
      | Check.Unsupported msg ->
        Alcotest.failf "derived rule %s unsupported: %s" (Equivalence.name spec)
          msg)
    (Saturate.specs facts)

let test_checker_refutes_mutations () =
  (* every seeded-unsound rule must produce a counterexample *)
  List.iter
    (fun (label, spec) ->
      match
        Check.check_spec ~config:check_config ~install ~trusted:declared schema
          spec
      with
      | Check.Refuted _ -> ()
      | Check.Sound _ ->
        Alcotest.failf "mutation %s (%s) accepted as sound" label
          (Equivalence.name spec)
      | Check.Unsupported msg ->
        Alcotest.failf "mutation %s (%s) unsupported: %s" label
          (Equivalence.name spec) msg)
    (Rulegen.mutations ())

let sound what spec =
  match
    Check.check_spec ~config:check_config ~install ~trusted:declared schema spec
  with
  | Check.Sound _ -> ()
  | Check.Refuted w ->
    Alcotest.failf "%s refuted:\n%s\nat %s" what w.Check.store_text w.Check.detail
  | Check.Unsupported msg -> Alcotest.failf "%s unsupported: %s" what msg

let test_checker_typed_parameters () =
  (* D is declared a Document: a set of documents bound to it would
     make the (sound) owner invariant look refuted *)
  sound "parsed owner invariant"
    (Spec_lang.parse_spec schema
       "FORALL p IN Paragraph (D: Document): p IS-IN D.largeParagraphs => \
        p->document() == D");
  let expect what want spec =
    Alcotest.(check (list (pair string (option string))))
      what want
      (List.map
         (fun (p, t) -> (p, Option.map Vtype.to_string t))
         (Check.param_types schema spec))
  in
  expect "comparison with a document" [ ("D", Some "Document") ]
    (Equivalence.owner_invariant
       (Option.get (Equivalence.maintained Soqm_core.Doc_knowledge.word_count_implication)));
  (* membership in D makes it a set: the inverse-link form keeps its
     set-valued parameter *)
  List.iter
    (fun spec ->
      match Check.param_types schema spec with
      | [ ("D", Some (Vtype.TSet (Vtype.TObj _))) ] -> ()
      | _ ->
        Alcotest.failf "%s: D is not a set of objects" (Equivalence.name spec))
    (Equivalence.from_inverse_links schema);
  expect "compared with a title" [ ("s", Some "STRING") ]
    (List.find (fun spec -> Equivalence.name spec = "E2-title-index") declared)

let test_checker_owner_obligations () =
  (* the generator rules rest on the owner invariant of every maintained
     implication: check-rules checks it, saturation and search never
     see it *)
  let engine = Soqm_core.Engine.generate (Soqm_testlib.Fixtures.tiny_db ()) in
  let owner =
    List.filter
      (fun (spec, _) ->
        String.ends_with ~suffix:"/owner" (Equivalence.name spec))
      (Soqm_core.Engine.check_rules ~config:check_config engine)
  in
  Alcotest.(check (list string))
    "one obligation per maintained implication" [ "large-paragraphs/owner" ]
    (List.map (fun (spec, _) -> Equivalence.name spec) owner);
  List.iter
    (fun (spec, verdict) ->
      match verdict with
      | Check.Sound _ -> ()
      | v ->
        Alcotest.failf "%s: %s" (Equivalence.name spec)
          (Format.asprintf "%a" Check.pp_verdict v))
    owner;
  Alcotest.(check bool) "not knowledge" false
    (List.exists
       (fun spec -> String.ends_with ~suffix:"/owner" (Equivalence.name spec))
       (Saturate.specs (Soqm_core.Engine.knowledge engine)));
  Alcotest.(check int) "seven seeded mutations" 7 (List.length (Rulegen.mutations ()))

let test_checker_deterministic_across_jobs () =
  (* same seed, different fan-out: the witness model is identical *)
  let _, spec = List.hd (Rulegen.mutations ()) in
  let run jobs =
    Check.check_spec
      ~config:{ check_config with jobs }
      ~install ~trusted:declared schema spec
  in
  match (run 1, run 4) with
  | Check.Refuted w1, Check.Refuted w4 ->
    Alcotest.(check int)
      "same witness model" w1.Check.model_index w4.Check.model_index;
    Alcotest.(check string)
      "same witness store" w1.Check.store_text w4.Check.store_text
  | _ -> Alcotest.fail "mutation not refuted"

let test_checker_counters () =
  let c = Counters.create () in
  let _, spec = List.hd (Rulegen.mutations ()) in
  (match
     Check.check_spec ~config:check_config ~install ~counters:c
       ~trusted:declared schema spec
   with
  | Check.Refuted _ -> ()
  | _ -> Alcotest.fail "mutation not refuted");
  Alcotest.(check bool) "models charged" true
    (Counters.get c Models_checked > 0);
  Alcotest.(check int) "counterexample charged" 1
    (Counters.get c Counterexamples_found)

(* ------------------------------------------------------------------ *)
(* end-to-end: saturated engines against the naive evaluator           *)
(* ------------------------------------------------------------------ *)

module Engine = Soqm_core.Engine
module Db = Soqm_core.Db
module F = Soqm_testlib.Fixtures
open Soqm_algebra

let e2e_db = lazy (F.tiny_db ())
let declared_engine = lazy (Engine.generate (Lazy.force e2e_db))

(* declared doc knowledge + the generated family, closed under
   saturation: the 100+-derived-rule optimizer of the acceptance gate.
   The variant budget is tightened — with ~300 rules the exhaustive
   closure is enormous, and these tests assert result equality, not
   plan quality. *)
let e2e_config =
  { Soqm_optimizer.Search.default_config with max_variants = 300 }

let family_engine =
  lazy
    (Engine.generate ~extra_specs:(Rulegen.family ()) ~saturate:true
       ~config:e2e_config (Lazy.force e2e_db))

(* the EXP-A mix, plus queries that hit the family's thresholds in both
   the method and the property form, on and next to the boundaries *)
let e2e_queries =
  [
    "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
     AND (p->document()).title == 'Query Optimization'";
    "ACCESS d FROM d IN Document WHERE d.title == 'Query Optimization'";
    "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500";
    "ACCESS [n: s.number, t: d.title] FROM s IN Section, d IN Document WHERE \
     s.document == d AND d.title == 'Query Optimization'";
    "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation')";
  ]
  @ List.concat_map
      (fun t ->
        [
          Printf.sprintf
            "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > %d" t;
          Printf.sprintf
            "ACCESS p FROM p IN Paragraph WHERE p.word_count >= %d" (t + 1);
        ])
      [ 100; 500; 800 ]

let test_family_engine_consistent () =
  let db = Lazy.force e2e_db in
  let engine = Lazy.force family_engine in
  (match Engine.saturation_stats engine with
  | Some s ->
    Alcotest.(check bool)
      (Printf.sprintf "saturation derived %d >= 100" s.Saturate.derived)
      true
      (s.Saturate.derived >= 100)
  | None -> Alcotest.fail "saturation is off");
  List.iter
    (fun q ->
      let naive = (Engine.run_naive db q).Engine.result in
      let opt = (Engine.run_optimized engine q).Engine.result in
      Alcotest.check F.relation q naive opt)
    e2e_queries

(* Subsumption-deduped saturation must be invisible to query results:
   the saturated engine and the declared-only engine agree with the
   reference evaluator on random paragraph queries. *)
let prop_saturation_preserves_results =
  QCheck2.Test.make ~count:15
    ~name:"optimized(saturated) = optimized(declared) = reference"
    Soqm_testlib.Gen.para_query_gen
    (fun g ->
      let db = Lazy.force e2e_db in
      let term = General.Project ([ "p" ], g) in
      let logical = Translate.of_general term in
      let reference = Eval.run db.Db.store term in
      let run engine =
        let res = Engine.optimize engine logical in
        Soqm_physical.Exec.run (Engine.exec_ctx db)
          res.Soqm_optimizer.Search.best_plan
      in
      Relation.equal reference (run (Lazy.force declared_engine))
      && Relation.equal reference (run (Lazy.force family_engine)))

let test_epoch_across_knowledge_dml () =
  (* knowledge DML must epoch-invalidate cached plans: stale plans from
     the old rule set never serve, fresh results always match naive *)
  let db = F.tiny_db () in
  let engine = Engine.generate ~saturate:true db in
  let q = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500" in
  let naive () = (Engine.run_naive db q).Engine.result in
  let opt () = (Engine.run_optimized engine q).Engine.result in
  Alcotest.check F.relation "baseline agrees" (naive ()) (opt ());
  let h0, _ = Engine.cache_stats engine in
  Alcotest.check F.relation "re-run agrees" (naive ()) (opt ());
  let h1, m1 = Engine.cache_stats engine in
  Alcotest.(check bool) "unchanged knowledge: plan cache hit" true (h1 > h0);
  Engine.add_specs engine (Rulegen.family ~thresholds:2 ());
  Alcotest.check F.relation "after add_specs agrees" (naive ()) (opt ());
  let _, m2 = Engine.cache_stats engine in
  Alcotest.(check bool) "add_specs invalidated cached plans" true (m2 > m1);
  Alcotest.(check bool)
    "retract removes a declared spec" true
    (Engine.retract_spec engine "G-wc-gt-200-100");
  Alcotest.(check bool)
    "retract of unknown name is false" false
    (Engine.retract_spec engine "no-such-spec");
  Alcotest.check F.relation "after retract agrees" (naive ()) (opt ());
  let _, m3 = Engine.cache_stats engine in
  Alcotest.(check bool) "retract invalidated cached plans" true (m3 > m2)

let () =
  Alcotest.run "knowledge"
    [
      ( "saturate",
        [
          Soqm_testlib.Fixtures.case "closes" test_saturation_closes;
          Soqm_testlib.Fixtures.case "fixpoint" test_saturation_fixpoint;
          QCheck_alcotest.to_alcotest prop_fixpoint_random_subbase;
          Soqm_testlib.Fixtures.case "provenance" test_saturation_provenance;
          Soqm_testlib.Fixtures.case "validates" test_saturation_validates;
          Soqm_testlib.Fixtures.case "path composition"
            test_saturation_derives_path_composition;
          Soqm_testlib.Fixtures.case "100+-rule gate" test_rulegen_gate;
          Soqm_testlib.Fixtures.case "counters" test_saturation_counters;
        ] );
      ( "check",
        [
          Soqm_testlib.Fixtures.case "accepts declared" test_checker_accepts_declared;
          Soqm_testlib.Fixtures.case "accepts derived" test_checker_accepts_derived;
          Soqm_testlib.Fixtures.case "refutes mutations"
            test_checker_refutes_mutations;
          Soqm_testlib.Fixtures.case "typed parameters" test_checker_typed_parameters;
          Soqm_testlib.Fixtures.case "owner obligations" test_checker_owner_obligations;
          Soqm_testlib.Fixtures.case "deterministic across jobs"
            test_checker_deterministic_across_jobs;
          Soqm_testlib.Fixtures.case "counters" test_checker_counters;
        ] );
      ( "end-to-end",
        [
          Soqm_testlib.Fixtures.case "100+-rule engine optimizes correctly"
            test_family_engine_consistent;
          QCheck_alcotest.to_alcotest prop_saturation_preserves_results;
          Soqm_testlib.Fixtures.case "knowledge DML epoch-invalidates plans"
            test_epoch_across_knowledge_dml;
        ] );
    ]
