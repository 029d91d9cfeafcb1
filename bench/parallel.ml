(* Morsel-driven parallel executor benchmark and CI gate.

   Runs the EXP-A operator mix ([Bench_util.entries], shared with
   bench/exec.ml) and checks three things:

   1. Zero divergence.  For every entry the parallel results at jobs=2
      and jobs=4 must [Relation.equal] the serial compiled result and
      the tuple-at-a-time interpreter's; the structural joins are
      additionally checked against the list-based [Naive] oracle and
      the worked EXP-A query against the logical reference evaluator.
      The oracles bound the parity sizes: [Naive]'s joins are O(n*m)
      nested list scans and the four-way materialized comparison on the
      quadratic-output entries allocates the full result four times, so
      parity runs at n_docs=800 (Naive joins at 200) regardless of
      [--docs] — the timing phase below still covers the full size with
      an exact row-count cross-check between all three drains.

   2. Serial dispatch.  [Exec.run_compiled ~jobs:1] must run every
      entry on the block driver: its stats record zero morsels and no
      helper domain is spawned ([Pool.total_spawned]).  The check is
      counter-based, so it holds on any host.  The wall-clock ratio of
      the jobs=1 dispatch to the plain block-stream drain is still
      measured, printed and written to the JSON, but does not gate: the
      two sides are the same code path, so the ratio only measures host
      noise.

   3. Speedup.  Median ns/row speedup of jobs=4 over jobs=1 across the
      mix at n_docs=3200 must reach 1.8x.  This bound needs hardware:
      it is enforced only when [Domain.recommended_domain_count ()]
      reports at least 4 cores; on smaller hosts the measurement still
      runs and is reported, the JSON records
      ["speedup_gate_enforced": false], and the bound is skipped with a
      visible reason (divergence and serial-dispatch checks always
      apply).

   Run with:  dune exec bench/parallel.exe -- [--assert] [--docs N]
                [--seed N] [--json PATH]
   Every check runs with or without [--assert]; the exit code is 1 iff
   an enforced bound is violated.  Writes BENCH_parallel.json (same
   schema family as BENCH_exec.json). *)

open Soqm_vml
open Soqm_core
open Bench_util
module A = Soqm_algebra
module P = Soqm_physical
module O = Soqm_oracle

let reps = 5
let min_median_speedup = 1.8
let jobs_hi = 4
let parity_docs = 800 (* materialized four-way comparison cap *)
let naive_docs = 200 (* the O(n*m) list-oracle cap *)

(* ------------------------------------------------------------------ *)
(* Parity: parallel = serial compiled = interpreted (= oracles)        *)
(* ------------------------------------------------------------------ *)

(* CEq key semantics for the Naive theta-join leg: Null never matches. *)
let hash_join_pred tup =
  match (List.assoc_opt "a1" tup, List.assoc_opt "b1" tup) with
  | Some Value.Null, _ | _, Some Value.Null -> false
  | Some a, Some b -> Value.equal a b
  | _ -> false

(* Entries with an exact list-based oracle: recompute the result from
   the materialized children with the seed [Naive] operators. *)
let naive_oracle ctx name =
  let run p = P.Exec.run ctx p in
  match name with
  | "hash_join" ->
    Some (O.Naive.join hash_join_pred (run hash_left) (run hash_right))
  | "natural_join" ->
    Some (O.Naive.natural_join (run nat_left) (run nat_right))
  | "union" -> Some (O.Naive.union (run map_chain) (run map_chain))
  | "diff" ->
    Some (O.Naive.diff (run map_chain) (run (never_filter map_chain)))
  | _ -> None

(* All four executors on one database; [naive] additionally holds the
   structural joins to the seed list oracle. *)
let divergent_on ctx db ~naive (name, plan) =
  let compiled = P.Exec.compile ctx plan in
  let serial = P.Exec.run_compiled ctx compiled in
  (not (A.Relation.equal serial (O.Interpreted.run ctx plan)))
  || List.exists
       (fun jobs ->
         not
           (A.Relation.equal serial
              (P.Exec.run_compiled ~jobs ~clamp:false ctx compiled)))
       [ 2; jobs_hi ]
  || (naive
     &&
     match naive_oracle ctx name with
     | Some oracle -> not (A.Relation.equal serial oracle)
     | None -> false)
  ||
  match name with
  | "worked_q_naive" ->
    not (A.Relation.equal serial (O.Eval.run_query db query_q).Engine.result)
  | _ -> false

let divergences ~n_docs schema =
  let parity_db = database (min n_docs parity_docs) in
  let parity_ctx = Engine.exec_ctx parity_db in
  let naive_db = database (min n_docs naive_docs) in
  let naive_ctx = Engine.exec_ctx naive_db in
  List.filter_map
    (fun entry ->
      if
        divergent_on parity_ctx parity_db ~naive:false entry
        || divergent_on naive_ctx naive_db ~naive:true entry
      then Some (fst entry)
      else None)
    (entries schema)

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* The jobs-dispatched path: jobs=1 degrades to the same streaming
   drain, jobs>1 materializes through the morsel-parallel evaluator. *)
let drain_jobs ctx compiled ~jobs () =
  if jobs <= 1 then drain_compiled ctx compiled ()
  else Array.length (P.Exec.eval_parallel ctx ~jobs compiled)

(* The informational jobs=1 ratio times the *same* code path twice
   (jobs=1 dispatches to the plain drain), so measure the two sides
   interleaved rep by rep with alternating order — back-to-back blocks
   (or a fixed order) let GC debt from one side's run land on the
   other's clock.  Each side reports its median (for the table) and its
   minimum (for the ratio: the min of two identical code paths is far
   less sensitive to interference on a busy host). *)
let measure_interleaved fa fb =
  Gc.compact ();
  ignore (fa ());
  ignore (fb ()) (* warm-ups *);
  let ra = ref 0 and rb = ref 0 in
  let ta = ref [] and tb = ref [] in
  for i = 1 to reps do
    let first, second = if i mod 2 = 0 then (fb, fa) else (fa, fb) in
    let sw = i mod 2 = 0 in
    let n1, s1 = time first in
    let n2, s2 = time second in
    let (na, sa), (nb, sb) =
      if sw then ((n2, s2), (n1, s1)) else ((n1, s1), (n2, s2))
    in
    ra := na;
    ta := sa :: !ta;
    rb := nb;
    tb := sb :: !tb
  done;
  let mn xs = List.fold_left Float.min Float.infinity xs in
  ((!ra, median !ta, mn !ta), (!rb, median !tb, mn !tb))

type entry_result = {
  name : string;
  rows : int;
  serial_min : float; (* plain block drain, fastest rep *)
  jobs1_s : float; (* via the jobs dispatch, median seconds *)
  jobs1_min : float;
  par_s : float; (* jobs = jobs_hi, median seconds *)
  speedup : float; (* jobs1_s / par_s *)
}

let measure_entry ctx (name, plan) =
  let compiled = P.Exec.compile ctx plan in
  let (rows_s, _, serial_min), (rows_1, jobs1_s, jobs1_min) =
    measure_interleaved (drain_compiled ctx compiled)
      (drain_jobs ctx compiled ~jobs:1)
  in
  let rows_p, par_s =
    measure_median ~reps (drain_jobs ctx compiled ~jobs:jobs_hi)
  in
  (* the three drains must agree exactly on cardinality at full size *)
  assert (rows_s = rows_1 && rows_1 = rows_p);
  { name; rows = rows_p; serial_min; jobs1_s; jobs1_min; par_s;
    speedup = jobs1_s /. par_s }

(* jobs=1 through the real dispatch ([run_compiled], clamped as the CLI
   runs it): the morsels recorded in its per-node stats over the whole
   mix, and the helper domains it spawned. *)
let serial_dispatch ctx entries =
  let spawned_before = P.Pool.total_spawned () in
  let morsels =
    List.fold_left
      (fun acc (_, plan) ->
        let compiled = P.Exec.compile ctx plan in
        let stats = P.Exec.make_stats compiled in
        ignore (P.Exec.run_compiled ~stats ~jobs:1 ctx compiled);
        Array.fold_left ( + ) acc stats.P.Exec.node_morsels)
      0 entries
  in
  (morsels, P.Pool.total_spawned () - spawned_before)

let per_row r t = t /. float_of_int (max 1 r.rows) *. 1e9

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let n_docs = docs 3200 in
  let db = database n_docs in
  let ctx = Engine.exec_ctx db in
  let schema = Object_store.schema db.Db.store in
  let paras = Object_store.extent_size db.Db.store "Paragraph" in
  Printf.printf
    "morsel-parallel vs serial compiled (n_docs=%d, %d paragraphs, \
     morsel=%d, jobs=%d, %d core(s) available)\n"
    n_docs paras P.Exec.morsel_size jobs_hi cores;
  Printf.printf
    "parity: 4 executors at n_docs=%d, Naive join oracle at n_docs=%d\n"
    (min n_docs parity_docs) (min n_docs naive_docs);
  let diverged = divergences ~n_docs schema in
  Printf.printf "%-16s %10s %13s %13s %9s\n" "operator" "rows" "jobs1 ns/row"
    (Printf.sprintf "jobs%d ns/row" jobs_hi)
    "speedup";
  let results = List.map (measure_entry ctx) (entries schema) in
  List.iter
    (fun r ->
      Printf.printf "%-16s %10d %13.1f %13.1f %8.2fx%s\n" r.name r.rows
        (per_row r r.jobs1_s) (per_row r r.par_s) r.speedup
        (if List.mem r.name diverged then "  DIVERGED" else ""))
    results;
  let median_speedup = median (List.map (fun r -> r.speedup) results) in
  let total f = List.fold_left (fun acc r -> acc +. f r) 0. results in
  let serial_ratio =
    total (fun r -> r.jobs1_min) /. total (fun r -> r.serial_min)
  in
  let jobs1_morsels, jobs1_spawned = serial_dispatch ctx (entries schema) in
  let enforced = cores >= jobs_hi in
  Printf.printf "\nmedian speedup at jobs=%d: %.2fx (bound %.1fx%s)\n" jobs_hi
    median_speedup min_median_speedup
    (if enforced then "" else ", NOT enforced on this host");
  Printf.printf
    "jobs=1 total vs plain serial drain: %.3fx (informational, same code \
     path)\n"
    serial_ratio;
  Printf.printf "jobs=1 dispatch: %d morsel(s) recorded, %d domain(s) spawned\n"
    jobs1_morsels jobs1_spawned;
  let entry r =
    Obj
      [
        ("name", Str r.name);
        ("rows", Int r.rows);
        ("jobs1_ns_per_row", Fixed (1, per_row r r.jobs1_s));
        (Printf.sprintf "jobs%d_ns_per_row" jobs_hi, Fixed (1, per_row r r.par_s));
        ("speedup", Fixed (2, r.speedup));
      ]
  in
  write_json (json_path "parallel")
    (header "parallel" ~n_docs ~paragraphs:paras ()
    @ [
        ("block_size", Int P.Exec.block_size);
        ("morsel_size", Int P.Exec.morsel_size);
        ("jobs", Int jobs_hi);
        ("reps", Int reps);
        ("entries", List (List.map entry results));
        ("median_speedup", Fixed (2, median_speedup));
        ("serial_regression", Fixed (3, serial_ratio));
        ("jobs1_morsels", Int jobs1_morsels);
        ("jobs1_domains_spawned", Int jobs1_spawned);
        ("divergences", Int (List.length diverged));
        ("speedup_gate_enforced", Bool enforced);
      ]);
  check
    (Printf.sprintf "%d/%d entries identical under jobs in {1,2,%d}"
       (List.length results - List.length diverged)
       (List.length results) jobs_hi)
    (diverged = []);
  check "jobs=1 stays on the block driver (no morsels, no domains)"
    (jobs1_morsels = 0 && jobs1_spawned = 0);
  if enforced then
    check
      (Printf.sprintf "median speedup at jobs=%d >= %.1fx" jobs_hi
         min_median_speedup)
      (median_speedup >= min_median_speedup)
  else
    Printf.printf
      "SKIP speedup bound needs >= %d cores, host reports %d\n" jobs_hi cores;
  finish ()
