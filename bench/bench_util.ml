(* Helpers shared by the bench executables: wall-clock timing, the
   median of a sample, draining and timing a compiled plan, the flags
   every bench reads, scratch database directories, the JSON each bench
   writes, the ledger of its checks and the EXP-A query mix.

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
