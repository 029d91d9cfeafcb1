(* Batch-executor micro-benchmark: the EXP-A operator mix, interpreted
   vs slot-compiled.

   For each entry the same physical plan is drained through both
   executors in their native formats — canonical tuples from
   [Exec.Interpreted.open_plan], row blocks from [Exec.open_compiled] —
   so the numbers measure executor overhead, not the shared
   [Relation.make] canonicalization at the query boundary.  Each side is
   timed over [reps] runs after a warm-up; the table reports median
   ns/row and the per-entry speedup.  Result sets are additionally
   compared ([Relation.equal]) through full untimed runs: any divergence
   fails the gate.

   A plan-cache check rides along: the worked EXP-A query executed
   repeatedly through a generated engine must keep the >= 90% hit rate
   established in PR 2 (hits now also skip plan compilation).

   Run with:     dune exec bench/exec.exe
   Assert mode:  dune exec bench/exec.exe -- --assert [--docs N] [--seed N]
                                             [--json PATH]
   (exit code 1 when median speedup < 3x, any result diverges, or the
   plan-cache hit rate drops below 90%)

   [--seed N] regenerates the database from a different Datagen seed
   (default 42); all benches share the flag so a run over several seeds
   exercises the gates on independent data sets. *)

open Soqm_vml
open Soqm_core
open Bench_util
module A = Soqm_algebra
module P = Soqm_physical

let query_q =
  "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
   AND (p->document()).title == 'Query Optimization'"

let reps = 5
let min_median_speedup = 3.0
let min_hit_rate = 0.9

(* ------------------------------------------------------------------ *)
(* The operator mix                                                    *)
(* ------------------------------------------------------------------ *)

(* [ident a src base] extends each tuple with [a := src] — pure executor
   work (inserts, operand resolution), no object-store access, so the
   entries below time the operators themselves. *)
let ident a src base =
  P.Plan.MapOp (a, A.Restricted.OpIdent, [ A.Restricted.ORef src ], base)

let scan_p = P.Plan.FullScan ("p", "Paragraph")

(* [chain names src base]: one ident map per name, widening the tuple by
   one reference each — the widths (3-7 references) match what the
   optimizer's EXP-A plans carry once join keys and derived columns are
   in flight. *)
let chain names src base =
  snd
    (List.fold_left
       (fun (src, plan) name -> (name, ident name src plan))
       (src, base) names)

let map_chain = chain [ "k1"; "k2"; "k3" ] "p" scan_p
let map_wide = chain [ "m1"; "m2"; "m3"; "m4"; "m5"; "m6" ] "p" scan_p

let filter_plan =
  P.Plan.Filter
    (A.Restricted.CEq, A.Restricted.ORef "k1", A.Restricted.ORef "p", map_chain)

let hash_join_plan =
  P.Plan.HashJoin
    ( "a1", "b1",
      chain [ "a1"; "a2" ] "p" scan_p,
      chain [ "b1"; "b2" ] "q" (P.Plan.FullScan ("q", "Paragraph")) )

(* shared reference: [p] only — one-column key, four-column merge *)
let natural_join_plan =
  P.Plan.NaturalJoin (chain [ "c1"; "c2" ] "p" scan_p, chain [ "d1" ] "p" scan_p)

let nested_loop_plan =
  P.Plan.NestedLoop
    ( None,
      chain [ "x1" ] "d" (P.Plan.FullScan ("d", "Document")),
      chain [ "y1" ] "e" (P.Plan.FullScan ("e", "Document")) )

let union_plan = P.Plan.Union (map_chain, map_chain)

(* right side is the same pipeline gated by a constant-false predicate:
   an empty exclusion set, so every left row survives the probe *)
let diff_plan =
  P.Plan.Diff
    ( map_chain,
      P.Plan.Filter
        ( A.Restricted.CEq,
          A.Restricted.OConst (Value.Int 1),
          A.Restricted.OConst (Value.Int 2),
          map_chain ) )

let project_plan = P.Plan.Project ([ "p" ], map_wide)

let entries schema =
  let worked_q =
    P.Plan.default_implementation
      (A.Translate.of_general
         (Soqm_vql.To_algebra.query_to_algebra schema query_q))
  in
  [
    ("full_scan", scan_p);
    ("map_chain", map_chain);
    ("map_wide", map_wide);
    ("filter", filter_plan);
    ("hash_join", hash_join_plan);
    ("natural_join", natural_join_plan);
    ("nested_loop", nested_loop_plan);
    ("union", union_plan);
    ("diff", diff_plan);
    ("project", project_plan);
    ("worked_q_naive", worked_q);
  ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let drain_interpreted ctx plan () =
  let it = P.Exec.Interpreted.open_plan ctx plan in
  let n = ref 0 in
  let rec go () =
    match it.P.Exec.next () with
    | Some _ ->
      incr n;
      go ()
    | None -> it.P.Exec.close ()
  in
  go ();
  !n

(* Stream-count without retaining blocks, mirroring the interpreted
   drain: neither side keeps its output alive. *)
let drain_compiled ctx compiled () =
  let b = P.Exec.open_compiled ctx compiled in
  let n = ref 0 in
  let rec go () =
    match b.P.Exec.next_block () with
    | Some rows ->
      n := !n + Array.length rows;
      go ()
    | None -> b.P.Exec.close_blocks ()
  in
  go ();
  !n

let measure_side f =
  (* start each side from a settled heap: the hash-heavy entries are
     otherwise at the mercy of whatever major-GC debt the previous
     entry left behind, which moves their medians by 2x run to run *)
  Gc.compact ();
  ignore (f ()) (* warm-up *);
  let rows = ref 0 in
  let times =
    List.init reps (fun _ ->
        let n, s = time f in
        rows := n;
        s)
  in
  (!rows, median times)

type entry_result = {
  name : string;
  rows : int;
  interp_ns : float;
  compiled_ns : float;
  speedup : float;
  diverged : bool;
}

let measure_entry ctx (name, plan) =
  (* [~fuse:false]: this bench gates the *unfused* block executor against
     the interpreted one, and its absolute ns/row is the regression bound
     [check_exec.sh] holds the unfused path to.  The fused kernels have
     their own bench and gates (bench/columnar.ml), measured against the
     numbers recorded here. *)
  let compiled = P.Exec.compile ~fuse:false ctx plan in
  let r_interp = P.Exec.Interpreted.run ctx plan in
  let r_compiled = P.Exec.run_compiled ctx compiled in
  let diverged = not (A.Relation.equal r_interp r_compiled) in
  let rows_i, t_interp = measure_side (drain_interpreted ctx plan) in
  let rows_c, t_compiled = measure_side (drain_compiled ctx compiled) in
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
(* JSON emission (BENCH_exec.json)                                     *)
(* ------------------------------------------------------------------ *)

let write_json path ~n_docs ~paras ~seed ~cores results ~median_speedup
    ~median_compiled_ns ~hit_rate =
  let oc = open_out path in
  let entry r =
    Printf.sprintf
      "    {\"name\": %S, \"rows\": %d, \"interpreted_ns_per_row\": %.1f, \
       \"compiled_ns_per_row\": %.1f, \"speedup\": %.2f, \"diverged\": %b}"
      r.name r.rows r.interp_ns r.compiled_ns r.speedup r.diverged
  in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"exec\",\n\
    \  \"n_docs\": %d,\n\
    \  \"paragraphs\": %d,\n\
    \  \"seed\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"block_size\": %d,\n\
    \  \"reps\": %d,\n\
    \  \"entries\": [\n%s\n  ],\n\
    \  \"median_speedup\": %.2f,\n\
    \  \"median_compiled_ns_per_row\": %.1f,\n\
    \  \"divergences\": %d,\n\
    \  \"plan_cache_hit_rate\": %.3f\n\
     }\n"
    n_docs paras seed cores P.Exec.block_size reps
    (String.concat ",\n" (List.map entry results))
    median_speedup median_compiled_ns
    (List.length (List.filter (fun r -> r.diverged) results))
    hit_rate;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let assert_mode = Array.exists (String.equal "--assert") Sys.argv in
  let n_docs = arg_value "--docs" 800 int_of_string in
  let seed = arg_value "--seed" Datagen.default.Datagen.seed int_of_string in
  let json_path = arg_value "--json" "BENCH_exec.json" Fun.id in
  let db = Db.create ~params:{ Datagen.default with n_docs; seed } () in
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
  (* absolute regression anchor: the median unfused-compiled ns/row over
     the mix, recorded in the JSON so check_exec.sh can bound drift
     against the committed value *)
  let median_compiled_ns = median (List.map (fun r -> r.compiled_ns) results) in
  let divergences = List.filter (fun r -> r.diverged) results in
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
  write_json json_path ~n_docs ~paras ~seed
    ~cores:(Domain.recommended_domain_count ())
    results ~median_speedup ~median_compiled_ns ~hit_rate;
  Printf.printf "wrote %s\n" json_path;
  let failed = ref false in
  if divergences <> [] then begin
    Printf.printf "FAIL: %d entries diverged between executors: %s\n"
      (List.length divergences)
      (String.concat ", " (List.map (fun r -> r.name) divergences));
    failed := true
  end;
  if median_speedup < min_median_speedup then begin
    Printf.printf "FAIL: median speedup %.2fx below the %.0fx bound\n"
      median_speedup min_median_speedup;
    failed := true
  end;
  if hit_rate < min_hit_rate then begin
    Printf.printf "FAIL: plan-cache hit rate %.1f%% below %.0f%%\n"
      (100. *. hit_rate) (100. *. min_hit_rate);
    failed := true
  end;
  if not !failed then
    Printf.printf "OK: compiled executor %.2fx faster (median), %d/%d results \
                   identical, cache hot\n"
      median_speedup
      (List.length results - List.length divergences)
      (List.length results);
  if !failed && assert_mode then exit 1
