(* Batch-executor micro-benchmark: the EXP-A operator mix, interpreted
   vs slot-compiled.

   For each entry the same physical plan is drained through both
   executors in their native formats — canonical tuples from the
   oracle's [Interpreted.open_plan], row blocks from
   [Exec.open_compiled] — so the numbers measure executor overhead, not
   the shared [Relation.make] canonicalization at the query boundary.
   The compiled side is the one production form, in which every filter, 1:1 map and
   projection runs inside a fused kernel.  Each side is
   timed over [reps] runs after a warm-up; the table reports median
   ns/row and the per-entry speedup.  Result sets are additionally
   compared ([Relation.equal]) through full untimed runs: any divergence
   fails the gate.

   A plan-cache check rides along: the worked EXP-A query executed
   repeatedly through a generated engine must keep the >= 90% hit rate
   established in PR 2 (hits now also skip plan compilation).

   Run with:  dune exec bench/exec.exe -- [--assert] [--docs N] [--seed N]
                [--json PATH]
   Every check runs with or without [--assert]; the exit code is 1 iff
   the median speedup is < 3x, any result diverges, or the plan-cache
   hit rate drops below 90%. *)

open Soqm_vml
open Soqm_core
open Bench_util
module A = Soqm_algebra
module P = Soqm_physical
module O = Soqm_oracle

let reps = 5
let min_median_speedup = 3.0
let min_hit_rate = 0.9

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let drain_interpreted ctx plan () =
  let it = O.Interpreted.open_plan ctx plan in
  let n = ref 0 in
  let rec go () =
    match it.O.Interpreted.next () with
    | Some _ ->
      incr n;
      go ()
    | None -> it.O.Interpreted.close ()
  in
  go ();
  !n

type entry_result = {
  name : string;
  rows : int;
  interp_ns : float;
  compiled_ns : float;
  speedup : float;
  diverged : bool;
}

let measure_entry ctx (name, plan) =
  let compiled = P.Exec.compile ctx plan in
  let r_interp = O.Interpreted.run ctx plan in
  let r_compiled = P.Exec.run_compiled ctx compiled in
  let diverged = not (A.Relation.equal r_interp r_compiled) in
  let rows_i, t_interp = measure_median ~reps (drain_interpreted ctx plan) in
  let rows_c, t_compiled = measure_median ~reps (drain_compiled ctx compiled) in
  assert (rows_i = rows_c);
  let per_row t = t /. float_of_int (max 1 rows_c) *. 1e9 in
  {
    name;
    rows = rows_c;
    interp_ns = per_row t_interp;
    compiled_ns = per_row t_compiled;
    speedup = t_interp /. t_compiled;
    diverged;
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let n_docs = docs 800 in
  let db = database n_docs in
  let ctx = Engine.exec_ctx db in
  let schema = Object_store.schema db.Db.store in
  let paras = Object_store.extent_size db.Db.store "Paragraph" in
  Printf.printf
    "batch executor vs interpreted (n_docs=%d, %d paragraphs, block=%d)\n"
    n_docs paras P.Exec.block_size;
  Printf.printf "%-16s %10s %14s %14s %9s\n" "operator" "rows" "interp ns/row"
    "compiled ns/row" "speedup";
  let results = List.map (measure_entry ctx) (entries schema) in
  List.iter
    (fun r ->
      Printf.printf "%-16s %10d %14.1f %14.1f %8.2fx%s\n" r.name r.rows
        r.interp_ns r.compiled_ns r.speedup
        (if r.diverged then "  DIVERGED" else ""))
    results;
  let median_speedup = median (List.map (fun r -> r.speedup) results) in
  (* absolute regression anchor: the median compiled ns/row over
     the mix, recorded in the JSON so check_exec.sh can bound drift
     against the committed value *)
  let median_compiled_ns = median (List.map (fun r -> r.compiled_ns) results) in
  let divergences = List.length (List.filter (fun r -> r.diverged) results) in
  (* plan-cache hit rate with compiled plans cached (PR 2 invariant) *)
  let engine = Engine.generate db in
  for _ = 1 to 20 do
    ignore (Engine.run_optimized engine query_q)
  done;
  let hits, misses = Engine.cache_stats engine in
  let hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses)) in
  Printf.printf "\nmedian speedup: %.2fx (bound %.0fx)\n" median_speedup
    min_median_speedup;
  Printf.printf "plan-cache hit rate over %d runs: %.1f%% (bound %.0f%%)\n"
    (hits + misses) (100. *. hit_rate) (100. *. min_hit_rate);
  let entry r =
    Obj
      [
        ("name", Str r.name);
        ("rows", Int r.rows);
        ("interpreted_ns_per_row", Fixed (1, r.interp_ns));
        ("compiled_ns_per_row", Fixed (1, r.compiled_ns));
        ("speedup", Fixed (2, r.speedup));
        ("diverged", Bool r.diverged);
      ]
  in
  write_json (json_path "exec")
    (header "exec" ~n_docs ~paragraphs:paras ()
    @ [
        ("block_size", Int P.Exec.block_size);
        ("reps", Int reps);
        ("entries", List (List.map entry results));
        ("median_speedup", Fixed (2, median_speedup));
        ("median_compiled_ns_per_row", Fixed (1, median_compiled_ns));
        ("divergences", Int divergences);
        ("plan_cache_hit_rate", Fixed (3, hit_rate));
      ]);
  check
    (Printf.sprintf "%d/%d entries identical between executors"
       (List.length results - divergences)
       (List.length results))
    (divergences = 0);
  check
    (Printf.sprintf "median speedup >= %.0fx" min_median_speedup)
    (median_speedup >= min_median_speedup);
  check
    (Printf.sprintf "plan-cache hit rate >= %.0f%%" (100. *. min_hit_rate))
    (hit_rate >= min_hit_rate);
  finish ()
