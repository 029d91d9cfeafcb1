(* Concurrent serving benchmark and CI gate.

   Exercises the PR-7 serving subsystem ([Soqm_server] over [Soqm_txn])
   end to end, with real OS processes as clients:

   1. The parent builds a database, saves it, reopens it disk-backed,
      binds the listen socket, and launches N >= 8 client processes by
      re-executing itself in [--client] mode via [Unix.create_process]
      (posix_spawn underneath — plain [Unix.fork] is forbidden once the
      engine's pool domains exist).  The kernel queues the children's
      connects until the accept loops start.

   2. Each client drives the EXP-A query mix plus DML over the wire:
      a rotation of optimized queries (row counts checked against the
      expected counts computed before the fork), auto-committed updates
      to the client's own paragraph, and Begin/Get/Update/Commit
      increment transactions against one shared paragraph counter,
      retrying on Conflict.  Every request is timed.

   3. Gates: zero isolation anomalies (every query sees exactly the
      expected rows; the shared counter equals its initial value plus
      the serial sum of committed increments; each private cell equals
      that client's last write), fsyncs per committed WAL batch
      strictly < 1 (group commit must coalesce), and — only on hosts
      with >= 4 cores, mirroring bench/parallel.ml — bounds on p99
      latency and aggregate throughput.

   Run with:     dune exec bench/serve.exe
   Assert mode:  dune exec bench/serve.exe -- --assert [--docs N]
                 [--clients N] [--ops N] [--seed N]
   (exit code 1 when a bound is violated)

   Emits BENCH_serve.json; [--seed N] is shared across all benches. *)

open Soqm_vml
open Soqm_core
open Bench_util
module Server = Soqm_server.Server
module Protocol = Soqm_server.Protocol

(* the EXP-A mix of bench/dml.ml *)
let queries =
  [
    ( "worked",
      "ACCESS p FROM p IN Paragraph WHERE \
       p->contains_string('Implementation') AND (p->document()).title == \
       'Query Optimization'" );
    ("title", "ACCESS d FROM d IN Document WHERE d.title == 'Query Optimization'");
    ("large", "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500");
    ( "join",
      "ACCESS [n: s.number, t: d.title] FROM s IN Section, d IN Document \
       WHERE s.document == d AND d.title == 'Query Optimization'" );
    ("contains", "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation')")
  ]

(* gates *)
let max_fsync_per_commit = 1.0
let max_p99_ms = 200.
let min_throughput_rps = 300.
let min_cores_for_latency_gate = 4

let failures = ref 0

let check name ok =
  if not ok then (
    incr failures;
    Printf.printf "FAIL %s\n" name)
  else Printf.printf "ok   %s\n" name

let rt = Protocol.roundtrip

(* ------------------------------------------------------------------ *)
(* The client process body                                             *)
(* ------------------------------------------------------------------ *)

type client_result = {
  mutable committed : int;  (* shared-counter increments that committed *)
  mutable conflicts : int;
  mutable anomalies : int;
  mutable own_final : int;  (* last value written to the private cell *)
  lats : float list ref;    (* per-request latency, seconds *)
}

let timed_rt res c req =
  let t0 = Unix.gettimeofday () in
  let r = rt c req in
  res.lats := (Unix.gettimeofday () -. t0) :: !(res.lats);
  r

let client_body ~port ~ops ~expected ~shared ~own ~out_path =
  let res =
    { committed = 0; conflicts = 0; anomalies = 0; own_final = 0; lats = ref [] }
  in
  let c = Protocol.connect ~port () in
  let n_q = List.length queries in
  for j = 1 to ops do
    match j mod 3 with
    | 0 ->
      (* optimized query: the row count is the isolation oracle *)
      let k = j / 3 mod n_q in
      let _, src = List.nth queries k in
      (match timed_rt res c (Protocol.Query src) with
      | Protocol.Rows (_, rows) ->
        if List.length rows <> List.nth expected k then
          res.anomalies <- res.anomalies + 1
      | _ -> res.anomalies <- res.anomalies + 1)
    | 1 ->
      (* auto-committed DML on the private cell: no contention *)
      let v = res.own_final + 1 in
      (match timed_rt res c (Protocol.Update (own, "number", Value.Int v)) with
      | Protocol.Committed _ -> res.own_final <- v
      | _ -> res.anomalies <- res.anomalies + 1)
    | _ ->
      (* shared-counter increment transaction, first-committer-wins *)
      let rec attempt tries =
        if tries > 1_000 then res.anomalies <- res.anomalies + 1
        else begin
          ignore (timed_rt res c Protocol.Begin);
          match timed_rt res c (Protocol.Get (shared, "number")) with
          | Protocol.Value (Value.Int v) -> (
            ignore
              (timed_rt res c (Protocol.Update (shared, "number", Value.Int (v + 1))));
            match timed_rt res c Protocol.Commit with
            | Protocol.Committed _ -> res.committed <- res.committed + 1
            | Protocol.Conflict _ ->
              res.conflicts <- res.conflicts + 1;
              attempt (tries + 1)
            | _ -> res.anomalies <- res.anomalies + 1)
          | _ ->
            ignore (timed_rt res c Protocol.Abort);
            res.anomalies <- res.anomalies + 1
        end
      in
      attempt 0
  done;
  Unix.close c;
  let oc = open_out out_path in
  Printf.fprintf oc "committed %d\nconflicts %d\nanomalies %d\nown_final %d\n"
    res.committed res.conflicts res.anomalies res.own_final;
  List.iter (fun l -> Printf.fprintf oc "lat %.9f\n" l) !(res.lats);
  close_out oc

let client_main () =
  let port = arg_value "--client-port" 0 int_of_string in
  let ops = arg_value "--client-ops" 0 int_of_string in
  let shared =
    Oid.make ~cls:"Paragraph" ~id:(arg_value "--client-shared-id" 0 int_of_string)
  in
  let own =
    Oid.make ~cls:"Paragraph" ~id:(arg_value "--client-own-id" 0 int_of_string)
  in
  let out_path = arg_value "--client-out" "" Fun.id in
  let expected =
    arg_value "--client-expected" [] (fun s ->
        List.map int_of_string (String.split_on_char ',' s))
  in
  client_body ~port ~ops ~expected ~shared ~own ~out_path

(* ------------------------------------------------------------------ *)
(* Parent-side aggregation                                             *)
(* ------------------------------------------------------------------ *)

let read_client_file path =
  let ic = open_in path in
  let committed = ref 0
  and conflicts = ref 0
  and anomalies = ref 0
  and own_final = ref 0
  and lats = ref [] in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "committed"; v ] -> committed := int_of_string v
       | [ "conflicts"; v ] -> conflicts := int_of_string v
       | [ "anomalies"; v ] -> anomalies := int_of_string v
       | [ "own_final"; v ] -> own_final := int_of_string v
       | [ "lat"; v ] -> lats := float_of_string v :: !lats
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  (!committed, !conflicts, !anomalies, !own_final, !lats)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1 |> max 0))

(* ------------------------------------------------------------------ *)
(* JSON emission (BENCH_serve.json)                                    *)
(* ------------------------------------------------------------------ *)

let write_json path ~n_docs ~seed ~cores ~clients ~ops ~requests ~wall_s
    ~throughput ~p50_ms ~p99_ms ~enforced ~anomalies ~lost ~initial ~final
    ~committed ~conflicts ~wal_commits ~wal_fsyncs ~fsync_ratio =
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"bench\": \"serve\",\n\
    \  \"n_docs\": %d,\n\
    \  \"seed\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"clients\": %d,\n\
    \  \"ops_per_client\": %d,\n\
    \  \"requests\": %d,\n\
    \  \"wall_s\": %.3f,\n\
    \  \"throughput_rps\": %.1f,\n\
    \  \"latency_ms\": {\"p50\": %.3f, \"p99\": %.3f, \"p99_bound\": %.1f, \
     \"min_rps\": %.1f, \"gates_enforced\": %b},\n\
    \  \"isolation\": {\"anomalies\": %d, \"lost_updates\": %d, \
     \"shared_initial\": %d, \"shared_final\": %d, \"committed\": %d, \
     \"conflicts\": %d},\n\
    \  \"group_commit\": {\"wal_commits\": %d, \"wal_fsyncs\": %d, \
     \"fsyncs_per_commit\": %.3f, \"bound\": %.1f}\n\
     }\n"
    n_docs seed cores clients ops requests wall_s throughput p50_ms p99_ms
    max_p99_ms min_throughput_rps enforced anomalies lost initial final
    committed conflicts wal_commits wal_fsyncs fsync_ratio max_fsync_per_commit;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  if Array.exists (String.equal "--client") Sys.argv then begin
    client_main ();
    exit 0
  end;
  let assert_mode = Array.exists (String.equal "--assert") Sys.argv in
  let n_docs = arg_value "--docs" 200 int_of_string in
  let seed = arg_value "--seed" Datagen.default.Datagen.seed int_of_string in
  let clients = max 8 (arg_value "--clients" 8 int_of_string) in
  let ops = arg_value "--ops" 150 int_of_string in
  let json_path = arg_value "--json" "BENCH_serve.json" Fun.id in
  let cores = Domain.recommended_domain_count () in
  let mem = Db.create ~params:{ Datagen.default with n_docs; seed } () in
  (* expected row counts, computed once on the in-memory twin *)
  let expected =
    let engine = Engine.generate mem in
    List.map
      (fun (_, src) ->
        Soqm_algebra.Relation.cardinality
          (Engine.run_optimized engine src).Engine.result)
      queries
  in
  with_temp_dir "soqm_serve_db" @@ fun db_dir ->
  Db.save mem db_dir;
  let db = Db.open_disk db_dir in
  let paras = Object_store.extent db.Db.store "Paragraph" in
  if List.length paras < clients + 1 then
    failwith "not enough paragraphs for the client count";
  let shared = List.hd paras in
  let owns = Array.of_list (List.filteri (fun i _ -> i >= 1 && i <= clients) paras) in
  (* seed every counter cell to 0 before the fork *)
  Object_store.set_prop db.Db.store shared "number" (Value.Int 0);
  Array.iter (fun o -> Object_store.set_prop db.Db.store o "number" (Value.Int 0)) owns;
  let base_commits = Counters.get (Db.counters db) Wal_commits in
  let base_fsyncs = Counters.get (Db.counters db) Wal_fsyncs in
  (* bind before forking: children's connects queue in the backlog *)
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen sock 64;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  with_temp_dir "soqm_serve_out" @@ fun out_dir ->
  Printf.printf
    "serve bench (n_docs=%d, %d clients x %d ops, %d core(s), port %d)\n"
    n_docs clients ops cores port;
  flush stdout;
  let expected_csv = String.concat "," (List.map string_of_int expected) in
  let exe = Sys.executable_name in
  let pids =
    List.init clients (fun i ->
        let out_path = Filename.concat out_dir (Printf.sprintf "client%d.txt" i) in
        Unix.create_process exe
          [|
            exe; "--client";
            "--client-port"; string_of_int port;
            "--client-ops"; string_of_int ops;
            "--client-shared-id"; string_of_int (Oid.id shared);
            "--client-own-id"; string_of_int (Oid.id owns.(i));
            "--client-out"; out_path;
            "--client-expected"; expected_csv;
          |]
          Unix.stdin Unix.stdout Unix.stderr)
  in
  let server = Server.create ~listen:sock ~sessions:clients db in
  let t0 = Unix.gettimeofday () in
  let server_domain = Domain.spawn (fun () -> Server.serve server) in
  let statuses =
    List.map
      (fun pid ->
        let _, status = Unix.waitpid [] pid in
        status)
      pids
  in
  let wall_s = Unix.gettimeofday () -. t0 in
  Server.stop server;
  Domain.join server_domain;
  (* aggregate the client reports *)
  let committed = ref 0
  and conflicts = ref 0
  and anomalies = ref 0
  and all_lats = ref [] in
  let own_ok = ref true in
  List.iteri
    (fun i _ ->
      let c, cf, a, own_final, lats =
        read_client_file (Filename.concat out_dir (Printf.sprintf "client%d.txt" i))
      in
      committed := !committed + c;
      conflicts := !conflicts + cf;
      anomalies := !anomalies + a;
      all_lats := List.rev_append lats !all_lats;
      let stored =
        match Object_store.peek_prop db.Db.store owns.(i) "number" with
        | Value.Int v -> v
        | _ -> -1
      in
      if stored <> own_final then own_ok := false)
    pids;
  let final =
    match Object_store.peek_prop db.Db.store shared "number" with
    | Value.Int v -> v
    | _ -> -1
  in
  let lost = !committed - final in
  let wal_commits = Counters.get (Db.counters db) Wal_commits - base_commits in
  let wal_fsyncs = Counters.get (Db.counters db) Wal_fsyncs - base_fsyncs in
  let fsync_ratio =
    if wal_commits = 0 then infinity
    else float_of_int wal_fsyncs /. float_of_int wal_commits
  in
  let sorted = Array.of_list !all_lats in
  Array.sort compare sorted;
  let p50_ms = percentile sorted 0.50 *. 1000. in
  let p99_ms = percentile sorted 0.99 *. 1000. in
  let requests = Array.length sorted in
  let throughput = float_of_int requests /. wall_s in
  let enforced = cores >= min_cores_for_latency_gate in
  Db.close db;
  Printf.printf
    "  %d requests in %.2fs: %.0f req/s, p50 %.2fms, p99 %.2fms\n\
    \  shared counter %d -> %d (%d committed, %d conflicts)\n\
    \  %d WAL commits, %d fsyncs (%.3f fsyncs/commit)\n"
    requests wall_s throughput p50_ms p99_ms 0 final !committed !conflicts
    wal_commits wal_fsyncs fsync_ratio;
  check "every client exited cleanly"
    (List.for_all (fun s -> s = Unix.WEXITED 0) statuses);
  check "zero isolation anomalies" (!anomalies = 0);
  check "no lost updates on the shared counter" (lost = 0 && final >= 0);
  check "private cells match each client's last write" !own_ok;
  check "group commit coalesces (fsyncs/commit < 1)"
    (wal_commits > 0 && fsync_ratio < max_fsync_per_commit);
  if enforced then begin
    check "p99 latency within bound" (p99_ms <= max_p99_ms);
    check "throughput floor" (throughput >= min_throughput_rps)
  end
  else
    Printf.printf "note: %d core(s) < %d, latency/throughput gates recorded only\n"
      cores min_cores_for_latency_gate;
  write_json json_path ~n_docs ~seed ~cores ~clients ~ops ~requests ~wall_s
    ~throughput ~p50_ms ~p99_ms ~enforced ~anomalies:!anomalies ~lost ~initial:0
    ~final ~committed:!committed ~conflicts:!conflicts ~wal_commits ~wal_fsyncs
    ~fsync_ratio;
  Printf.printf "wrote %s\n" json_path;
  if assert_mode && !failures > 0 then exit 1
