(* DML / incremental-maintenance benchmark and CI gate.

   Exercises the maintenance subsystem end to end:

   1. Correctness under updates: run every query class (E1-E5 plus the
      largeParagraphs implication) on a maintained database, apply an
      update workload that flips >= 10% of all paragraphs across the
      [wordCount > 500] boundary and rewrites their content words, then
      re-run each query on the SAME engine (no optimizer regeneration).
      Results must equal a rebuild-from-scratch oracle (the database
      saved, reloaded and re-derived from base data) and the logical
      reference evaluator.

   2. The maintained [largeParagraphs] sets must equal the sets
      recomputed from base data, member for member (query equality alone
      cannot catch spurious extra members).

   3. Plan cache: repeated queries must hit the epoch-guarded cache at a
      >= 90% rate, and a hit must return the identical (physically equal)
      optimization result, i.e. skip the search loop.

   4. Throughput tables for EXPERIMENTS.md: incremental maintenance vs
      full [Db.refresh] per update batch, and a mixed read/write
      workload.

   Run with:  dune exec bench/dml.exe -- [--assert] [--docs N] [--seed N]
   Every check runs in any mode; [--assert] skips the two throughput
   tables.  The exit code is 1 iff a check failed. *)

open Soqm_vml
open Soqm_core
open Bench_util
module A = Soqm_algebra


(* ------------------------------------------------------------------ *)
(* Update workload: flip word counts across the 500 boundary, rewrite   *)
(* content words (through the DML API, so maintenance observes it)      *)
(* ------------------------------------------------------------------ *)

let flip_paragraphs engine store ~every =
  let paras = Array.of_list (Object_store.extent store "Paragraph") in
  let flipped = ref 0 in
  Array.iteri
    (fun i oid ->
      if i mod every = 0 then (
        incr flipped;
        let wc =
          match Object_store.peek_prop store oid "word_count" with
          | Value.Int n when n > 500 -> 120 + (i mod 50)
          | _ -> 620 + (i mod 50)
        in
        Engine.update engine oid ~prop:"word_count" (Value.Int wc);
        (* every other rewrite keeps the query word, the rest drop it *)
        let content =
          if i mod (2 * every) = 0 then
            Printf.sprintf "revised paragraph %d about Implementation details" i
          else Printf.sprintf "revised paragraph %d with fresh wording" i
        in
        Engine.update engine oid ~prop:"content" (Value.Str content)))
    paras;
  (!flipped, Array.length paras)

(* recompute every document's largeParagraphs set from base data *)
let recomputed_large_sets store =
  let want = Hashtbl.create 64 in
  List.iter
    (fun p ->
      match Object_store.peek_prop store p "word_count" with
      | Value.Int n when n > 500 -> (
        match Object_store.peek_prop store p "section" with
        | Value.Obj s -> (
          match Object_store.peek_prop store s "document" with
          | Value.Obj d ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt want d) in
            Hashtbl.replace want d (Value.Obj p :: cur)
          | _ -> ())
        | _ -> ())
      | _ -> ())
    (Object_store.extent store "Paragraph");
  want

let large_sets_consistent store =
  let want = recomputed_large_sets store in
  List.for_all
    (fun d ->
      let expected =
        Value.set (Option.value ~default:[] (Hashtbl.find_opt want d))
      in
      let actual =
        match Object_store.peek_prop store d "largeParagraphs" with
        | Value.Set _ as s -> s
        | _ -> Value.Set []
      in
      Value.equal expected actual)
    (Object_store.extent store "Document")

(* ------------------------------------------------------------------ *)

let run_gate ~n_docs =
  Printf.printf
    "== DML gate: maintained database vs rebuild-from-scratch oracle ==\n";
  let db = database n_docs in
  let store = db.Db.store in
  let engine = Engine.generate db in
  Counters.reset (Db.counters db) Maintenance;

  (* warm the plan cache *)
  List.iter (fun (_, q) -> ignore (Engine.run_optimized engine q)) exp_a_queries;

  let (flipped, total), dt_updates =
    time (fun () -> flip_paragraphs engine store ~every:8)
  in
  Printf.printf "flipped %d of %d paragraphs (%.1f%%) in %.1f ms\n" flipped
    total
    (100. *. float_of_int flipped /. float_of_int total)
    (dt_updates *. 1000.);
  check "update workload flips >= 10% of paragraphs"
    (float_of_int flipped >= 0.10 *. float_of_int total);

  (* rebuild-from-scratch oracle: save to a paged database directory,
     reload (indexes, statistics and implied sets re-derived from base
     data), fresh optimizer *)
  let oracle_db =
    with_temp_dir "soqm_dml" (fun dir ->
        Db.save db dir;
        Db.load dir)
  in
  let oracle_engine = Engine.generate oracle_db in

  List.iter
    (fun (name, q) ->
      let live = Engine.run_optimized engine q in
      let oracle = Engine.run_optimized oracle_engine q in
      let reference = Engine.run_logical_reference db q in
      check
        (Printf.sprintf "%s: maintained == rebuilt oracle" name)
        (A.Relation.equal live.Engine.result oracle.Engine.result);
      check
        (Printf.sprintf "%s: maintained == reference evaluator" name)
        (A.Relation.equal live.Engine.result reference))
    exp_a_queries;

  check "largeParagraphs sets match recomputation from base data"
    (large_sets_consistent store);

  (* plan cache: repeated queries must mostly hit, and hits must return
     the physically identical result (search loop skipped) *)
  let h0, m0 = Engine.cache_stats engine in
  for _ = 1 to 30 do
    List.iter (fun (_, q) -> ignore (Engine.run_optimized engine q)) exp_a_queries
  done;
  let hits, misses = Engine.cache_stats engine in
  let rate =
    float_of_int hits /. float_of_int (max 1 (hits + misses))
  in
  Printf.printf
    "plan cache: %d hit(s) / %d miss(es) overall (%.1f%% hit rate; %d/%d in \
     the repeat phase)\n"
    hits misses (100. *. rate) (hits - h0) (misses - m0);
  check "plan-cache hit rate >= 90%" (rate >= 0.90);
  let r1 = Engine.optimize_query engine (snd (List.hd exp_a_queries)) in
  let r2 = Engine.optimize_query engine (snd (List.hd exp_a_queries)) in
  check "cache hit returns the identical result (no re-search)" (r1 == r2);
  let c = Counters.snapshot (Db.counters db) in
  let hits', misses' = Engine.cache_stats engine in
  check "counters agree with engine cache stats"
    (Counters.get c Plan_cache_hits = hits'
    && Counters.get c Plan_cache_misses = misses');
  Format.printf "%a@." (Counters.pp Maintenance) c;
  (match Db.maintenance db with
  | Some m ->
    Printf.printf "epoch %d, %d recollect(s), staleness %.3f\n"
      (Soqm_maintenance.Maintenance.epoch m)
      (Soqm_maintenance.Maintenance.recollects m)
      (Soqm_maintenance.Maintenance.staleness m)
  | None -> ());
  dt_updates

(* ------------------------------------------------------------------ *)
(* EXPERIMENTS tables                                                  *)
(* ------------------------------------------------------------------ *)

let throughput_table ~n_docs dt_incremental =
  Printf.printf "\n== update throughput: incremental vs full rebuild ==\n";
  let db = database n_docs in
  let n_updates =
    2 * ((Object_store.extent_size db.Db.store "Paragraph" + 7) / 8)
  in
  let _, dt_refresh = time (fun () -> Db.refresh db) in
  Printf.printf "%-34s %10s %14s\n" "strategy" "time(ms)" "updates/s";
  Printf.printf "%-34s %10.1f %14.0f\n"
    (Printf.sprintf "incremental (%d updates)" n_updates)
    (dt_incremental *. 1000.)
    (float_of_int n_updates /. dt_incremental);
  Printf.printf "%-34s %10.1f %14s\n" "one full refresh (rebuild all)"
    (dt_refresh *. 1000.) "-";
  Printf.printf
    "(a full rebuild after every update would cost %.0fx the incremental \
     path)\n"
    (dt_refresh *. float_of_int n_updates /. dt_incremental)

let mixed_workload_table ~n_docs =
  Printf.printf "\n== mixed read/write workload (300 ops) ==\n";
  Printf.printf "%-12s %10s %12s %12s %10s\n" "write frac" "time(ms)"
    "cache hits" "cache miss" "hit rate";
  List.iter
    (fun write_frac ->
      let db = database n_docs in
      let engine = Engine.generate db in
      let paras =
        Array.of_list (Object_store.extent db.Db.store "Paragraph")
      in
      let n_ops = 300 in
      let _, dt =
        time (fun () ->
            for i = 0 to n_ops - 1 do
              if i * write_frac mod 100 < write_frac then (
                let oid = paras.(i * 37 mod Array.length paras) in
                let wc =
                  match
                    Object_store.peek_prop db.Db.store oid "word_count"
                  with
                  | Value.Int n when n > 500 -> 150
                  | _ -> 650
                in
                Engine.update engine oid ~prop:"word_count" (Value.Int wc))
              else
                ignore
                  (Engine.run_optimized engine
                     (snd (List.nth exp_a_queries (i mod List.length exp_a_queries))))
            done)
      in
      let hits, misses = Engine.cache_stats engine in
      Printf.printf "%11d%% %10.1f %12d %12d %9.1f%%\n" write_frac (dt *. 1000.)
        hits misses
        (100. *. float_of_int hits /. float_of_int (max 1 (hits + misses))))
    [ 0; 10; 30 ]

let () =
  let n_docs = docs 100 in
  let dt_updates = run_gate ~n_docs in
  if not assert_mode then (
    throughput_table ~n_docs dt_updates;
    mixed_workload_table ~n_docs);
  finish ()
