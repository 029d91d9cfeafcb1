(* Columnar storage + fused kernels: the storage-to-kernel hot path on
   the scan/filter/map subset of the EXP-A mix.

   Each entry times the row-page pipeline against the columnar one, at
   the same n_docs and over the same compiled plan (its filters, maps
   and projection run as one fused kernel):

     baseline  = row-slotted [Store.scan] (decode every record slot by
                 slot) + the compiled plan
     columnar  = [Store.scan_columns] over a vacuumed columnar segment
                 (decode only the columns the query touches) + the
                 compiled plan

   The two sides differ only in the decode, which is where the gate's
   win comes from.  The kernel is timed once and charged to both.
   ns/row is normalized by the scanned extent (paragraphs), so the two
   sides divide by the same denominator.  Result sets are compared
   untimed across the interpreted, compiled-serial and compiled-parallel
   executors: any divergence fails the gate.

   The byte gate reads the storage counters: a selective scan of one
   dictionary-encoded string column (Document.author, 7 distinct
   values) must decode >= 3x fewer bytes than the row-format full-record
   scan of the same class.  Both sides are also reported for the
   EXPERIMENTS.md EXP-L vacuum before/after comparison.

   Run with:  dune exec bench/columnar.exe -- [--assert] [--docs N]
                [--seed N] [--json PATH]
   Every check runs with or without [--assert]; the exit code is 1 iff
   the median storage-to-kernel speedup < 2x, the dictionary-column byte
   ratio < 3x, or any result diverges.

   All gates are single-core-safe: timing compares two serial pipelines
   on the same core, and the parallel fused speedup is recorded in the
   JSON but only informational (conditional on cores, like PR 4/5). *)

open Soqm_vml
open Soqm_core
open Bench_util
module A = Soqm_algebra
module P = Soqm_physical
module D = Soqm_disk
module O = Soqm_oracle

let reps = 5
let min_median_speedup = 2.0
let min_bytes_ratio = 3.0

(* ------------------------------------------------------------------ *)
(* The scan/filter/map subset                                          *)
(* ------------------------------------------------------------------ *)

let ident a src base =
  P.Plan.MapOp (a, A.Restricted.OpIdent, [ A.Restricted.ORef src ], base)

let chain names src base =
  snd
    (List.fold_left
       (fun (src, plan) name -> (name, ident name src plan))
       (src, base) names)

let scan_p = P.Plan.FullScan ("p", "Paragraph")

(* Each entry names the Paragraph columns its chain touches: the
   columnar side decodes exactly those, the row side always decodes
   whole records — that asymmetry is the storage half of the win. *)
let entries =
  [
    (* whole-record materialization: the columnar side still decodes
       every column, so this entry isolates the chunk-vs-slot codec
       difference *)
    ( "full_scan",
      scan_p,
      [ "number"; "section"; "content"; "word_count" ] );
    (* pure executor chains over a narrow carrier column *)
    ("map_chain", chain [ "k1"; "k2"; "k3" ] "p" scan_p, [ "number" ]);
    ( "map_wide",
      chain [ "m1"; "m2"; "m3"; "m4"; "m5"; "m6" ] "p" scan_p,
      [ "number" ] );
    (* select on a derived column: map + filter fuse into one kernel *)
    ( "filter_wc",
      P.Plan.Filter
        ( A.Restricted.CGt,
          A.Restricted.ORef "wc",
          A.Restricted.OConst (Value.Int 500),
          P.Plan.MapProp ("wc", "word_count", "p", scan_p) ),
      [ "word_count" ] );
    (* select -> map -> project: the full fused-chain shape *)
    ( "sel_map_proj",
      P.Plan.Project
        ( [ "c" ],
          P.Plan.Filter
            ( A.Restricted.CGt,
              A.Restricted.ORef "wc",
              A.Restricted.OConst (Value.Int 250),
              P.Plan.MapProp
                ( "c",
                  "content",
                  "p",
                  P.Plan.MapProp ("wc", "word_count", "p", scan_p) ) ) ),
      [ "content"; "word_count" ] );
  ]

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

(* Minimum over reps, not median: external load (dune runs the other
   test suites concurrently with this gate on the CI box) only ever
   *adds* time, so the min is the robust estimator of a pipeline's own
   cost.  Both sides use the same estimator, so the ratio stays fair. *)
let measure_side f =
  Gc.compact ();
  ignore (f ()) (* warm-up *);
  List.fold_left min infinity (List.init reps (fun _ -> snd (time f)))

type entry_result = {
  name : string;
  out_rows : int;
  baseline_ns : float;  (* row decode + kernel, per extent row *)
  columnar_ns : float;  (* column decode + kernel, per extent row *)
  speedup : float;
  diverged : bool;
}

(* The row-format decode is the same [Store.scan] whatever the query,
   and several entries share a column set — measure each distinct
   decode once (lower variance than re-timing a 40ms scan per entry)
   and combine with the per-entry kernel times. *)
let decode_times ~row_store ~col_store entries =
  let t_row = measure_side (fun () -> D.Store.scan row_store "Paragraph") in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (_, _, cols) ->
      if not (Hashtbl.mem tbl cols) then
        Hashtbl.add tbl cols
          (measure_side (fun () ->
               D.Store.scan_columns col_store "Paragraph" cols)))
    entries;
  (t_row, Hashtbl.find tbl)

let measure_entry ctx ~t_row_decode ~t_col_decode ~extent_rows ~jobs
    (name, plan, cols) =
  let compiled = P.Exec.compile ctx plan in
  (* correctness first, untimed: interpreted = compiled serial =
     compiled parallel *)
  let r_interp = O.Interpreted.run ctx plan in
  let r_serial = P.Exec.run_compiled ctx compiled in
  let r_parallel =
    P.Exec.run_compiled ~jobs:(max 2 jobs) ~clamp:false ctx compiled
  in
  let diverged =
    not
      (A.Relation.equal r_interp r_serial
      && A.Relation.equal r_interp r_parallel)
  in
  let t_kernel = measure_side (drain_compiled ctx compiled) in
  let per_row t = t /. float_of_int (max 1 extent_rows) *. 1e9 in
  let baseline = t_row_decode +. t_kernel in
  let columnar = t_col_decode cols +. t_kernel in
  {
    name;
    out_rows = A.Relation.cardinality r_serial;
    baseline_ns = per_row baseline;
    columnar_ns = per_row columnar;
    speedup = baseline /. columnar;
    diverged;
  }

(* ------------------------------------------------------------------ *)
(* Byte gate: dictionary-encoded string column                         *)
(* ------------------------------------------------------------------ *)

type bytes_result = {
  row_full_bytes : int;  (* row format, whole-record scan *)
  row_sel_bytes : int;  (* row format, selective scan (still row-priced) *)
  col_sel_bytes : int;  (* columnar, one dictionary string column *)
  row_values : int;
  col_values : int;
  ratio : float;
}

(* [Bytes_read] / [Values_decoded] live in the storage counter family
   (cumulative across a workload), so each leg resets that family
   explicitly rather than relying on the per-run [Query] reset. *)
let measure_bytes ~row_store ~col_store =
  let row_cnt = D.Store.counters row_store in
  let col_cnt = D.Store.counters col_store in
  Counters.reset row_cnt Storage;
  ignore (D.Store.scan row_store "Document");
  let row_full_bytes = Counters.get row_cnt Bytes_read in
  let row_values = Counters.get row_cnt Values_decoded in
  Counters.reset row_cnt Storage;
  ignore (D.Store.scan_columns row_store "Document" [ "author" ]);
  let row_sel_bytes = Counters.get row_cnt Bytes_read in
  Counters.reset col_cnt Storage;
  ignore (D.Store.scan_columns col_store "Document" [ "author" ]);
  let col_sel_bytes = Counters.get col_cnt Bytes_read in
  let col_values = Counters.get col_cnt Values_decoded in
  {
    row_full_bytes;
    row_sel_bytes;
    col_sel_bytes;
    row_values;
    col_values;
    ratio = float_of_int row_full_bytes /. float_of_int (max 1 col_sel_bytes);
  }

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let n_docs = docs 800 in
  let db = database n_docs in
  let ctx = Engine.exec_ctx db in
  let paras = Object_store.extent_size db.Db.store "Paragraph" in
  (* worker count for the parallel-fused side: capped at the cores the
     host can actually run; a single-core host measures jobs=1, i.e. the
     identical serial path, and reports ~1.0x instead of handoff noise *)
  let jobs = max 1 (min 4 cores) in
  (* two on-disk images of the same database: one left row-slotted, one
     vacuumed to columnar segments *)
  with_temp_dir "soqm_columnar_row" @@ fun dir_row ->
  with_temp_dir "soqm_columnar_col" @@ fun dir_col ->
  Db.save db dir_row;
  Db.save db dir_col;
  let row_store = D.Store.open_dir ~counters:(Counters.create ()) dir_row in
  let col_store = D.Store.open_dir ~counters:(Counters.create ()) dir_col in
  List.iter
    (fun cls -> ignore (D.Store.vacuum col_store cls))
    [ "Document"; "Section"; "Paragraph" ];
  Printf.printf
    "columnar storage vs row pages, same fused kernels (n_docs=%d, %d \
     paragraphs)\n"
    n_docs paras;
  Printf.printf "%-14s %9s %17s %17s %9s\n" "entry" "out rows"
    "baseline ns/row" "columnar ns/row" "speedup";
  let t_row_decode, t_col_decode = decode_times ~row_store ~col_store entries in
  let results =
    List.map
      (measure_entry ctx ~t_row_decode ~t_col_decode ~extent_rows:paras ~jobs)
      entries
  in
  List.iter
    (fun r ->
      Printf.printf "%-14s %9d %17.1f %17.1f %8.2fx%s\n" r.name r.out_rows
        r.baseline_ns r.columnar_ns r.speedup
        (if r.diverged then "  DIVERGED" else ""))
    results;
  let median_speedup = median (List.map (fun r -> r.speedup) results) in
  let divergences = List.length (List.filter (fun r -> r.diverged) results) in
  (* parallel fused throughput on the heaviest chain — informational on
     a single core, a real speedup only when cores allow *)
  let parallel_speedup =
    if jobs <= 1 then
      (* single core: jobs=1 is the identical serial path, so the ratio
         would be pure timer noise — the executor's clamp makes the
         measured configuration and production behavior both serial *)
      1.0
    else
      let _, plan, _ = List.nth entries (List.length entries - 1) in
      let fused = P.Exec.compile ctx plan in
      let serial = measure_side (fun () -> P.Exec.run_compiled ctx fused) in
      let parallel =
        measure_side (fun () -> P.Exec.run_compiled ~jobs ctx fused)
      in
      serial /. parallel
  in
  let bytes = measure_bytes ~row_store ~col_store in
  Printf.printf
    "\ndict column Document.author: row full scan %d B, row selective %d B, \
     columnar selective %d B (%.1fx fewer; %d -> %d values)\n"
    bytes.row_full_bytes bytes.row_sel_bytes bytes.col_sel_bytes bytes.ratio
    bytes.row_values bytes.col_values;
  Printf.printf "median storage-to-kernel speedup: %.2fx (bound %.0fx)\n"
    median_speedup min_median_speedup;
  Printf.printf "parallel fused speedup (jobs=%d, %d cores): %.2fx\n" jobs
    cores parallel_speedup;
  D.Store.close row_store;
  D.Store.close col_store;
  let entry r =
    Obj
      [
        ("name", Str r.name);
        ("out_rows", Int r.out_rows);
        ("baseline_ns_per_row", Fixed (1, r.baseline_ns));
        ("columnar_ns_per_row", Fixed (1, r.columnar_ns));
        ("speedup", Fixed (2, r.speedup));
        ("diverged", Bool r.diverged);
      ]
  in
  write_json (json_path "columnar")
    (header "columnar" ~n_docs ~paragraphs:paras ()
    @ [
        ("jobs", Int jobs);
        ("reps", Int reps);
        ("entries", List (List.map entry results));
        ("median_speedup", Fixed (2, median_speedup));
        ("parallel_fused_speedup", Fixed (2, parallel_speedup));
        ( "dict_column",
          Obj
            [
              ("class", Str "Document");
              ("column", Str "author");
              ("row_full_bytes", Int bytes.row_full_bytes);
              ("row_selective_bytes", Int bytes.row_sel_bytes);
              ("columnar_selective_bytes", Int bytes.col_sel_bytes);
              ("row_values_decoded", Int bytes.row_values);
              ("columnar_values_decoded", Int bytes.col_values);
              ("bytes_ratio", Fixed (2, bytes.ratio));
            ] );
        ("divergences", Int divergences);
      ]);
  check
    (Printf.sprintf "%d/%d entries identical across executors"
       (List.length results - divergences)
       (List.length results))
    (divergences = 0);
  check
    (Printf.sprintf "median storage-to-kernel speedup >= %.0fx"
       min_median_speedup)
    (median_speedup >= min_median_speedup);
  check
    (Printf.sprintf "dictionary-column byte ratio >= %.0fx" min_bytes_ratio)
    (bytes.ratio >= min_bytes_ratio);
  finish ()
