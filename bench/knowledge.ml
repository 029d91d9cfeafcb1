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

   Run with:  dune exec bench/knowledge.exe -- [--assert] [--docs N]
                [--seed N] [--json PATH]
   Every check runs with or without [--assert]; the exit code is 1 iff
   one failed.  Emits BENCH_knowledge.json. *)

open Soqm_vml
open Soqm_core
open Bench_util
module Saturate = Soqm_knowledge.Saturate
module Check = Soqm_knowledge.Check
module Rulegen = Soqm_knowledge.Rulegen


(* reachable only through derived rules: no declared antecedent matches *)
let derived_query = "ACCESS p FROM p IN Paragraph WHERE p.word_count > 800"

(* gates *)
let min_derived = 100
let min_cost_ratio = 2.0

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let n_docs = docs 200 in
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
  let db = database n_docs in
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
    (exp_a_queries @ [ ("derived threshold", derived_query) ]);
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

  write_json (json_path "knowledge")
    (header "knowledge" ~n_docs ()
    @ [
        ( "saturation",
          Obj
            [
              ("declared", Int stats.Saturate.declared);
              ("derived", Int stats.Saturate.derived);
              ("subsumed", Int stats.Saturate.subsumed);
              ("rounds", Int stats.Saturate.rounds);
              ("truncated", Bool stats.Saturate.truncated);
              ("ms", Fixed (1, saturate_s *. 1000.));
              ("min_derived", Int min_derived);
            ] );
        ( "checker",
          Obj
            [
              ("rules_sound", Int sound);
              ("rules_total", Int (List.length checked));
              ("mutations_refuted", Int refuted);
              ("mutations_total", Int (List.length mutations));
              ("models_checked", Int (Counters.get counters Models_checked));
              ("ms", Fixed (1, (check_s +. refute_s) *. 1000.));
            ] );
        ( "optimizer",
          Obj
            [
              ("parity_divergences", Int !divergences);
              ("naive_cost", Fixed (1, naive_cost));
              ("saturated_cost", Fixed (1, opt_cost));
              ("cost_ratio", Fixed (2, ratio));
              ("bound", Fixed (2, min_cost_ratio));
              ("speedup_gate_enforced", Bool true);
            ] );
      ]);
  finish ()
