(* Knowledge-compiler benchmark and CI gate for the saturation +
   bounded-checking subsystem.

   Three claims, all single-core safe (the only "speedup" gate is
   counter-based, so it is deterministic and core-independent):

   1. Saturation scale: the generated word-count family (O(n) declared
      specifications) closes to >= 100 derived rules within
      [Saturate.default_config]'s caps, without truncation, in bounded
      wall-clock (reported, not gated).

   2. Checker matrix: the bounded counterexample checker accepts every
      shipped declared specification of the document knowledge base and
      refutes every seeded-unsound mutation of [Rulegen.mutations] at
      the default bound, printing a minimal witness.

   3. Saturation pays: on a query whose condition matches no declared
      antecedent ([word_count > a higher threshold]), the saturated
      family engine reaches the maintained large-paragraphs set through
      derived implications and must beat the naive evaluator's charged
      cost by >= 2x — while agreeing with it exactly, on the whole
      EXP-A mix plus the threshold queries.

   Run with:     dune exec bench/knowledge.exe
   Assert mode:  dune exec bench/knowledge.exe -- --assert [--docs N] [--seed N]
   (exit code 1 when a bound is violated)

   Emits BENCH_knowledge.json; [--seed N] is shared across all benches. *)

open Soqm_vml
open Soqm_core
open Bench_util
module Saturate = Soqm_knowledge.Saturate
module Check = Soqm_knowledge.Check
module Rulegen = Soqm_knowledge.Rulegen

(* the EXP-A mix of bench/dml.ml *)
let exp_a =
  [
    ( "worked example Q (E1+E2+E5)",
      "ACCESS p FROM p IN Paragraph WHERE \
       p->contains_string('Implementation') AND (p->document()).title == \
       'Query Optimization'" );
    ( "title lookup (E2)",
      "ACCESS d FROM d IN Document WHERE d.title == 'Query Optimization'" );
    ( "large paragraphs (Implications)",
      "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500" );
    ( "section/document join (E3/E4)",
      "ACCESS [n: s.number, t: d.title] FROM s IN Section, d IN Document \
       WHERE s.document == d AND d.title == 'Query Optimization'" );
    ( "text containment (E5)",
      "ACCESS p FROM p IN Paragraph WHERE \
       p->contains_string('Implementation')" );
  ]

(* reachable only through derived rules: no declared antecedent matches *)
let derived_query = "ACCESS p FROM p IN Paragraph WHERE p.word_count > 800"

(* gates *)
let min_derived = 100
let min_cost_ratio = 2.0

let failures = ref 0

let check name ok =
  if not ok then (
    incr failures;
    Printf.printf "FAIL %s\n" name)
  else Printf.printf "ok   %s\n" name

(* ------------------------------------------------------------------ *)
(* JSON emission (BENCH_knowledge.json)                                 *)
(* ------------------------------------------------------------------ *)

let write_json path ~n_docs ~seed ~cores ~declared ~derived ~subsumed ~rounds
    ~truncated ~saturate_ms ~rules_sound ~rules_total ~mutations_refuted
    ~mutations_total ~models_checked ~check_ms ~divergences ~naive_cost
    ~opt_cost ~ratio =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"knowledge\",\n\
    \  \"n_docs\": %d,\n\
    \  \"seed\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"saturation\": {\"declared\": %d, \"derived\": %d, \"subsumed\": %d, \
     \"rounds\": %d, \"truncated\": %b, \"ms\": %.1f, \"min_derived\": %d},\n\
    \  \"checker\": {\"rules_sound\": %d, \"rules_total\": %d, \
     \"mutations_refuted\": %d, \"mutations_total\": %d, \"models_checked\": \
     %d, \"ms\": %.1f},\n\
    \  \"optimizer\": {\"parity_divergences\": %d, \"naive_cost\": %.1f, \
     \"saturated_cost\": %.1f, \"cost_ratio\": %.2f, \"bound\": %.2f, \
     \"speedup_gate_enforced\": true}\n\
     }\n"
    n_docs seed cores declared derived subsumed rounds truncated saturate_ms
    min_derived rules_sound rules_total mutations_refuted mutations_total
    models_checked check_ms divergences naive_cost opt_cost ratio
    min_cost_ratio;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let assert_mode = Array.exists (String.equal "--assert") Sys.argv in
  let n_docs = arg_value "--docs" 200 int_of_string in
  let seed = arg_value "--seed" Datagen.default.Datagen.seed int_of_string in
  let json_path = arg_value "--json" "BENCH_knowledge.json" Fun.id in
  let cores = Domain.recommended_domain_count () in
  let schema = Doc_schema.schema in
  Printf.printf "knowledge bench (n_docs=%d, seed=%d, %d core(s))\n\n" n_docs
    seed cores;

  (* -- claim 1: saturation scale ---------------------------------- *)
  let family = Doc_knowledge.specs () @ Rulegen.family () in
  let (_, stats), saturate_s = time (fun () -> Saturate.run schema family) in
  Printf.printf
    "saturation: %d declared -> %d derived (%d subsumed) in %d round(s), \
     %.0f ms%s\n"
    stats.Saturate.declared stats.Saturate.derived stats.Saturate.subsumed
    stats.Saturate.rounds (saturate_s *. 1000.)
    (if stats.Saturate.truncated then " [TRUNCATED]" else "");
  check
    (Printf.sprintf "family saturates to >= %d derived rules" min_derived)
    (stats.Saturate.derived >= min_derived);
  check "saturation closes without truncation" (not stats.Saturate.truncated);

  (* -- claim 2: the checker matrix -------------------------------- *)
  let install store =
    Doc_schema.install_internal_methods store;
    Doc_schema.install_scan_methods store
  in
  let declared = Doc_knowledge.specs () in
  let counters = Counters.create () in
  let checked, check_s =
    time (fun () ->
        Check.check_specs ~install ~counters ~trusted:declared schema declared)
  in
  let sound =
    List.length
      (List.filter
         (fun (_, v) -> match v with Check.Sound _ -> true | _ -> false)
         checked)
  in
  Printf.printf
    "\nchecker: %d/%d declared rules sound (%d models), %.0f ms\n" sound
    (List.length checked)
    (Counters.get counters Models_checked)
    (check_s *. 1000.);
  List.iter
    (fun (spec, v) ->
      match v with
      | Check.Sound _ -> ()
      | v ->
        Printf.printf "  %s: %s\n"
          (Soqm_semantics.Equivalence.name spec)
          (Format.asprintf "%a" Check.pp_verdict v))
    checked;
  check "checker accepts every shipped declared rule"
    (sound = List.length checked);
  let mutations = Rulegen.mutations () in
  let refuted_list, refute_s =
    time (fun () ->
        List.filter
          (fun (label, spec) ->
            match
              Check.check_spec ~install ~counters ~trusted:declared schema spec
            with
            | Check.Refuted w ->
              Printf.printf "  refuted %-20s by model %d (%d obj/class)\n"
                label w.Check.model_index w.Check.model_size;
              true
            | _ ->
              Printf.printf "  MISSED %s\n" label;
              false)
          mutations)
  in
  let refuted = List.length refuted_list in
  Printf.printf "checker: refuted %d/%d seeded-unsound mutations, %.0f ms\n"
    refuted (List.length mutations) (refute_s *. 1000.);
  check "checker refutes every seeded-unsound mutation"
    (refuted = List.length mutations);

  (* -- claim 3: saturation pays, and stays correct ----------------- *)
  let db = Db.create ~params:{ Datagen.default with n_docs; seed } () in
  let config =
    { Soqm_optimizer.Search.default_config with max_variants = 400 }
  in
  let engine =
    Engine.generate ~extra_specs:(Rulegen.family ()) ~saturate:true ~config db
  in
  let divergences = ref 0 in
  List.iter
    (fun (name, q) ->
      let naive = (Engine.run_naive db q).Engine.result in
      let opt = (Engine.run_optimized engine q).Engine.result in
      if not (Soqm_algebra.Relation.equal naive opt) then begin
        incr divergences;
        Printf.printf "  DIVERGENCE on %s\n" name
      end)
    (exp_a @ [ ("derived threshold", derived_query) ]);
  Printf.printf "\nparity: %d divergence(s) on the EXP-A mix + threshold\n"
    !divergences;
  check "saturated engine agrees with naive everywhere" (!divergences = 0);
  let naive_r = Engine.run_naive db derived_query in
  let opt_r = Engine.run_optimized engine derived_query in
  let naive_cost = Counters.total_cost naive_r.Engine.counters in
  let opt_cost = Counters.total_cost opt_r.Engine.counters in
  let ratio = naive_cost /. Float.max 1. opt_cost in
  Printf.printf
    "derived-rule query [%s]:\n  naive cost %.1f, saturated cost %.1f \
     (%.2fx, bound %.1fx)\n"
    derived_query naive_cost opt_cost ratio min_cost_ratio;
  check
    (Printf.sprintf "derived rewrites cut charged cost >= %.1fx"
       min_cost_ratio)
    (ratio >= min_cost_ratio);

  write_json json_path ~n_docs ~seed ~cores ~declared:stats.Saturate.declared
    ~derived:stats.Saturate.derived ~subsumed:stats.Saturate.subsumed
    ~rounds:stats.Saturate.rounds ~truncated:stats.Saturate.truncated
    ~saturate_ms:(saturate_s *. 1000.) ~rules_sound:sound
    ~rules_total:(List.length checked) ~mutations_refuted:refuted
    ~mutations_total:(List.length mutations)
    ~models_checked:(Counters.get counters Models_checked)
    ~check_ms:((check_s +. refute_s) *. 1000.)
    ~divergences:!divergences ~naive_cost ~opt_cost ~ratio;
  Printf.printf "\nwrote %s\n" json_path;

  if assert_mode && !failures > 0 then begin
    Printf.printf "\n%d gate(s) FAILED\n" !failures;
    exit 1
  end
