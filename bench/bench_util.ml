(* Helpers shared by the bench executables: wall-clock timing, the
   median of a sample, draining and timing a compiled plan, the flags
   every bench reads, scratch database directories, the JSON each bench
   writes, the ledger of its checks, the EXP-A query mix and the
   operator-mix plans the executor benches time.

   The exit rule is the same for every bench: it exits 1 iff a check it
   ran failed ([finish]).  [--assert] never turns a failure into a pass;
   where a bench has bounds that only mean something in a gated run
   (storage's prefetch and replay bounds) or work only an ungated run
   wants (dml's throughput tables), [assert_mode] chooses them. *)

open Soqm_core

(* [f ()]'s result and the wall-clock seconds it took. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* The middle element of the sorted sample (the upper one for an even
   count). *)
let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Stream-count the rows of a compiled plan's block drain without
   retaining the blocks, so the timed side keeps no output alive. *)
let drain_compiled ctx compiled () =
  let b = Soqm_physical.Exec.open_compiled ctx compiled in
  let n = ref 0 in
  let rec go () =
    match b.Soqm_physical.Exec.next_block () with
    | Some rows ->
      n := !n + Array.length rows;
      go ()
    | None -> b.Soqm_physical.Exec.close_blocks ()
  in
  go ();
  !n

(* [f]'s row count and the median seconds of [reps] timed runs after a
   warm-up.  Each side starts from a settled heap: the hash-heavy
   entries are otherwise at the mercy of whatever major-GC debt the
   previous entry left behind, which moves their medians by 2x run to
   run. *)
let measure_median ~reps f =
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

(* The value following [flag] on the command line, parsed; [default]
   when the flag is absent. *)
let arg_value flag default parse =
  let rec go = function
    | f :: v :: _ when String.equal f flag -> parse v
    | _ :: rest -> go rest
    | [] -> default
  in
  go (Array.to_list Sys.argv)

(* The flags every bench shares.  [--seed] picks the Datagen seed, so a
   run over several seeds exercises the gates on independent data sets;
   [--docs], [--reps] and [--json] take the bench's own default. *)
let assert_mode = Array.mem "--assert" Sys.argv
let seed = arg_value "--seed" Datagen.default.Datagen.seed int_of_string
let docs default = arg_value "--docs" default int_of_string
let reps default = arg_value "--reps" default int_of_string
let json_path bench = arg_value "--json" ("BENCH_" ^ bench ^ ".json") Fun.id
let cores = Domain.recommended_domain_count ()

(* A generated database of [n_docs] documents from the run's seed. *)
let database n_docs = Db.create ~params:{ Datagen.default with n_docs; seed } ()

(* A scratch directory for a paged database, removed (one level deep —
   database directories hold no subdirectories) when [f] returns or
   raises, or when the bench exits inside [f]. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix ".db" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let remove () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun entry -> Sys.remove (Filename.concat dir entry))
        (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  at_exit remove;
  Fun.protect ~finally:remove (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Results: one JSON layout for every BENCH_*.json                      *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float  (* printed with this many decimals *)
  | Str of string
  | List of json list
  | Obj of (string * json) list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* The top-level object holds one field per line, an array in it one
   element per line; everything deeper stays on one line. *)
let json_to_string v =
  let rec go depth = function
    | Null -> "null"
    | Bool b -> string_of_bool b
    | Int n -> string_of_int n
    | Fixed (_, x) when not (Float.is_finite x) -> "null"
    | Fixed (d, x) -> Printf.sprintf "%.*f" d x
    | Str s -> json_string s
    | List [] -> "[]"
    | List xs when depth = 1 ->
      "[\n" ^ lines "    " (List.map (go 2) xs) ^ "\n  ]"
    | List xs -> "[" ^ String.concat ", " (List.map (go (depth + 1)) xs) ^ "]"
    | Obj fields ->
      let field (k, x) = json_string k ^ ": " ^ go (depth + 1) x in
      if depth = 0 then "{\n" ^ lines "  " (List.map field fields) ^ "\n}"
      else "{" ^ String.concat ", " (List.map field fields) ^ "}"
  and lines indent xs = String.concat ",\n" (List.map (( ^ ) indent) xs) in
  go 0 v

(* The fields that open every bench's JSON, in this order. *)
let header bench ~n_docs ?paragraphs () =
  [ ("bench", Str bench); ("n_docs", Int n_docs) ]
  @ Option.to_list (Option.map (fun p -> ("paragraphs", Int p)) paragraphs)
  @ [ ("seed", Int seed); ("cores", Int cores) ]

let write_json path fields =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (json_to_string (Obj fields) ^ "\n"));
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

let failures = ref 0

(* Record one gate and print it as [ok] or [FAIL]. *)
let check name ok =
  if not ok then incr failures;
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name

(* Exit 1 iff any check failed. *)
let finish () =
  if !failures > 0 then begin
    Printf.printf "\n%d check(s) FAILED\n" !failures;
    exit 1
  end
  else print_string "\nall checks passed\n"

(* The EXP-A mix: one query per knowledge class, named after Section
   2.3, that the parity and plan-cache benches run. *)
let exp_a_queries =
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

(* ------------------------------------------------------------------ *)
(* The operator mix of bench/exec.ml and bench/parallel.ml             *)
(* ------------------------------------------------------------------ *)

module A = Soqm_algebra
module P = Soqm_physical

(* The worked EXP-A query, run as its naive plan in the mix. *)
let query_q = snd (List.hd exp_a_queries)

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

let hash_left = chain [ "a1"; "a2" ] "p" scan_p
let hash_right = chain [ "b1"; "b2" ] "q" (P.Plan.FullScan ("q", "Paragraph"))
let hash_join_plan = P.Plan.HashJoin ("a1", "b1", hash_left, hash_right)

(* shared reference: [p] only — one-column key, four-column merge *)
let nat_left = chain [ "c1"; "c2" ] "p" scan_p
let nat_right = chain [ "d1" ] "p" scan_p
let natural_join_plan = P.Plan.NaturalJoin (nat_left, nat_right)

let nested_loop_plan =
  P.Plan.NestedLoop
    ( None,
      chain [ "x1" ] "d" (P.Plan.FullScan ("d", "Document")),
      chain [ "y1" ] "e" (P.Plan.FullScan ("e", "Document")) )

let union_plan = P.Plan.Union (map_chain, map_chain)

(* [base] gated by a constant-false predicate: as the right side of
   [diff_plan] an empty exclusion set, so every left row survives the
   probe *)
let never_filter base =
  P.Plan.Filter
    ( A.Restricted.CEq,
      A.Restricted.OConst (Soqm_vml.Value.Int 1),
      A.Restricted.OConst (Soqm_vml.Value.Int 2),
      base )

let diff_plan = P.Plan.Diff (map_chain, never_filter map_chain)
let project_plan = P.Plan.Project ([ "p" ], map_wide)

(* The named entries, in table order. *)
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
