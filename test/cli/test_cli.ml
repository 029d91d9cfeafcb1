(* The command-line surface: the key list of [soqm stats --json], which
   scripts read, stays the same (same keys, same order) in memory and on a
   paged database directory; [explain --analyze] carries its q-error
   column; a bad query ends in one diagnostic line. *)

module F = Soqm_testlib.Fixtures

let cli = ref "soqm"

(* Run [soqm args] and return its stdout; fail on a non-zero exit. *)
let soqm args =
  let ic = Unix.open_process_args_in !cli (Array.of_list (!cli :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "soqm %s failed" (String.concat " " args)

(* Run [soqm args] expecting a failure; return its stderr. *)
let soqm_fails args =
  let out, inp, err =
    Unix.open_process_args_full !cli (Array.of_list (!cli :: args)) [||]
  in
  close_out inp;
  ignore (In_channel.input_all out);
  let msg = In_channel.input_all err in
  match Unix.close_process_full (out, inp, err) with
  | Unix.WEXITED 0 -> Alcotest.failf "soqm %s succeeded" (String.concat " " args)
  | _ -> msg

(* The keys of a flat JSON object, in order. *)
let json_keys out =
  let re = Str.regexp {|"\([a-z_]+\)": |} in
  let rec go pos acc =
    match Str.search_forward re out pos with
    | exception Not_found -> List.rev acc
    | _ -> go (Str.match_end ()) (Str.matched_group 1 out :: acc)
  in
  go 0 []

let maintenance_keys =
  [
    "postings_touched"; "implication_updates"; "stats_deltas";
    "plan_cache_hits"; "plan_cache_misses"; "plans_cached";
    "maintenance_epoch"; "staleness"; "recollects";
  ]

let storage_keys =
  [
    "pages_read"; "pages_written"; "pool_hits"; "pool_evictions";
    "wal_records"; "wal_commits"; "wal_fsyncs"; "bytes_read";
    "values_decoded"; "columnar_classes"; "columnar_rows";
    "columnar_tombstones";
  ]

let tail_keys =
  [
    "txn_begins"; "txn_commits"; "txn_conflicts"; "txn_aborts";
    "rules_derived"; "rules_subsumed"; "models_checked";
    "counterexamples_found";
  ]

let keys = Alcotest.(list string)
let stats = [ "stats"; "--json"; "--docs"; "20"; "--rounds"; "2" ]

let test_stats_json_memory () =
  Alcotest.check keys "in-memory keys"
    (maintenance_keys @ tail_keys)
    (json_keys (soqm stats))

let test_stats_json_disk () =
  F.with_temp_dir "soqm_cli" (fun dir ->
      ignore (soqm [ "save"; "--docs"; "20"; dir ]);
      Alcotest.check keys "--db keys"
        (maintenance_keys @ storage_keys @ tail_keys)
        (json_keys (soqm (stats @ [ "--db"; dir ]))))

let test_update_refuses_maintained_set () =
  F.with_temp_dir "soqm_cli" (fun dir ->
      ignore (soqm [ "save"; "--docs"; "20"; dir ]);
      let msg =
        soqm_fails [ "update"; "--db"; dir; "Document#0"; "largeParagraphs=null" ]
      in
      let names_it =
        try
          ignore (Str.search_forward (Str.regexp_string "largeParagraphs") msg 0);
          true
        with Not_found -> false
      in
      Alcotest.(check bool) "the error names the property" true names_it;
      (* the database stays usable: an ordinary update still goes through *)
      ignore (soqm [ "update"; "--db"; dir; "Document#0"; "title=still" ]))

(* [explain --analyze] prints a q-error column on every operator line;
   the large-paragraphs plan reads the maintained sets with no wordCount
   re-check. *)
let test_explain_q_error () =
  let out =
    soqm
      [ "explain"; "--analyze"; "--docs"; "20";
        "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500" ]
  in
  let ops =
    List.filter
      (fun l -> String.starts_with ~prefix:"#" (String.trim l))
      (String.split_on_char '\n' out)
  in
  Alcotest.(check bool) "operator lines" true (ops <> []);
  let q = Str.regexp {| actual_rows=[0-9]+ q=[0-9]+\.[0-9] |} in
  List.iter
    (fun l ->
      Alcotest.(check bool) ("q= column: " ^ l) true
        (try ignore (Str.search_forward q l 0); true with Not_found -> false))
    ops;
  Alcotest.(check bool) "no wordCount step" false
    (try ignore (Str.search_forward (Str.regexp_string "wordCount") out 0); true
     with Not_found -> false)

(* A query that fails to parse or to typecheck exits non-zero with exactly
   one [soqm: parse error: …] or [soqm: type error: …] line on stderr —
   no internal error, no backtrace. *)
let test_query_errors () =
  List.iter
    (fun (query, prefix) ->
      List.iter
        (fun cmd ->
          let msg = soqm_fails [ cmd; "--docs"; "5"; query ] in
          let what = Printf.sprintf "%s %S" cmd query in
          match String.split_on_char '\n' (String.trim msg) with
          | [ line ] ->
            Alcotest.(check bool)
              (what ^ ": " ^ line) true
              (String.starts_with ~prefix:("soqm: " ^ prefix) line)
          | lines ->
            Alcotest.failf "%s: %d lines on stderr:\n%s" what
              (List.length lines) msg)
        [ "run"; "explain" ])
    [
      ("ACCESS d FROM d IN", "parse error: ");
      ("ACCESS x FROM x IN Nope", "type error: ");
    ]

(* A database directory whose [meta] carries format version 1 (the
   untagged record layout, which nothing writes any more) does not open:
   [soqm open] exits non-zero with one line naming the version. *)
let test_old_meta_version_rejected () =
  F.with_temp_dir "soqm_cli" (fun dir ->
      ignore (soqm [ "save"; "--docs"; "5"; dir ]);
      let meta = Filename.concat dir "meta" in
      let s = Bytes.of_string (In_channel.with_open_bin meta In_channel.input_all) in
      (* the version varint follows the 9-byte magic *)
      Bytes.set s 9 '\001';
      Out_channel.with_open_bin meta (fun oc -> Out_channel.output_bytes oc s);
      let msg = soqm_fails [ "open"; dir ] in
      match String.split_on_char '\n' (String.trim msg) with
      | [ line ] ->
        Alcotest.(check bool) ("names the version: " ^ line) true
          (try
             ignore
               (Str.search_forward
                  (Str.regexp_string "unsupported database version 1") line 0);
             true
           with Not_found -> false)
      | lines ->
        Alcotest.failf "%d lines on stderr:\n%s" (List.length lines) msg)

let () =
  cli := Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      ( "stats",
        [
          F.case "json keys in memory" test_stats_json_memory;
          F.case "json keys on a database" test_stats_json_disk;
        ] );
      ( "dml",
        [
          F.case "update refuses a maintained set"
            test_update_refuses_maintained_set;
        ] );
      ("explain", [ F.case "analyze prints q-error" test_explain_q_error ]);
      ( "errors",
        [
          F.case "bad queries end in one line" test_query_errors;
          F.case "old meta version rejected" test_old_meta_version_rejected;
        ] );
    ]
