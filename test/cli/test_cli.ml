(* The command-line surface: the key list of [soqm stats --json], which
   scripts read, stays the same (same keys, same order) in memory and on a
   paged database directory. *)

module F = Soqm_testlib.Fixtures

let cli = ref "soqm"

(* Run [soqm args] and return its stdout; fail on a non-zero exit. *)
let soqm args =
  let ic = Unix.open_process_args_in !cli (Array.of_list (!cli :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "soqm %s failed" (String.concat " " args)

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

let () =
  cli := Sys.argv.(1);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "cli"
    [
      ( "stats",
        [
          F.case "json keys in memory" test_stats_json_memory;
          F.case "json keys on a database" test_stats_json_disk;
        ] );
    ]
