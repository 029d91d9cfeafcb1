(* The transaction subsystem: snapshot-isolation MVCC, multi-statement
   transactions with first-committer-wins validation, the
   readers/writer latch, and version-chain pruning.

   The centerpiece is the serial-oracle property: randomized interleaved
   schedules of read-modify-write transactions (with user aborts and
   conflict-refused commits mixed in) must leave the store in exactly
   the state a serial replay of the committed transactions, in commit
   order, produces — for any interleaving. *)

open Soqm_vml
module Db = Soqm_core.Db
module Txn = Soqm_txn.Txn
module Versions = Soqm_txn.Versions
module Rwlock = Soqm_txn.Rwlock
module F = Soqm_testlib.Fixtures

let check = Alcotest.check

(* K integer cells, no maintenance machinery: bare Paragraph objects
   carrying only their word_count (the document schema's one plain int
   property — Db.create_empty is wired to that schema) *)
let counter_db ~cells =
  let db = Db.create_empty ~maintain:false () in
  let oids =
    Array.init cells (fun i ->
        Object_store.create_object db.Db.store ~cls:"Paragraph"
          [ ("word_count", Value.Int (10 * i)) ])
  in
  (db, oids)

let commit_exn t =
  match Txn.commit t with
  | Ok ts -> ts
  | Error (`Conflict msg) -> Alcotest.failf "unexpected conflict: %s" msg

(* ------------------------------------------------------------------ *)
(* rwlock                                                              *)
(* ------------------------------------------------------------------ *)

let test_rwlock_exclusion () =
  let l = Rwlock.create () in
  let cell = ref 0 in
  let sum = Atomic.make 0 in
  let writers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 500 do
              Rwlock.write l (fun () ->
                  (* non-atomic increment: only safe if truly exclusive *)
                  let v = !cell in
                  cell := v + 1)
            done))
  in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 500 do
              Rwlock.read l (fun () -> Atomic.fetch_and_add sum !cell |> ignore)
            done))
  in
  List.iter Domain.join writers;
  List.iter Domain.join readers;
  check Alcotest.int "no lost writer increments" 1000 !cell

let test_rwlock_reraises () =
  let l = Rwlock.create () in
  (try Rwlock.write l (fun () -> failwith "boom") with Failure _ -> ());
  (* the latch must have been released *)
  check Alcotest.int "write lock released on exception" 7
    (Rwlock.write l (fun () -> 7));
  check Alcotest.int "read lock still works" 8 (Rwlock.read l (fun () -> 8))

(* ------------------------------------------------------------------ *)
(* snapshots and read-your-writes                                      *)
(* ------------------------------------------------------------------ *)

let test_snapshot_reads () =
  let db, oids = counter_db ~cells:2 in
  let m = Txn.manager db in
  let t1 = Txn.begin_ m in
  check F.value "t1 sees initial" (Value.Int 0) (Txn.get_prop t1 oids.(0) "word_count");
  (* t2 commits an update while t1 is open *)
  let t2 = Txn.begin_ m in
  Txn.set_prop t2 oids.(0) "word_count" (Value.Int 42);
  let ts2 = commit_exn t2 in
  check Alcotest.bool "commit advanced the clock" true (ts2 > Txn.begin_ts t1);
  check F.value "t1 still sees its snapshot" (Value.Int 0)
    (Txn.get_prop t1 oids.(0) "word_count");
  check F.value "store itself is at latest" (Value.Int 42)
    (Object_store.peek_prop db.Db.store oids.(0) "word_count");
  (* a transaction begun after t2's commit sees the new value *)
  let t3 = Txn.begin_ m in
  check F.value "t3 sees t2's write" (Value.Int 42)
    (Txn.get_prop t3 oids.(0) "word_count");
  Txn.abort t3;
  (* read-only t1 commits trivially *)
  ignore (commit_exn t1)

let test_read_your_writes () =
  let db, oids = counter_db ~cells:1 in
  let m = Txn.manager db in
  let t = Txn.begin_ m in
  Txn.set_prop t oids.(0) "word_count" (Value.Int 5);
  check F.value "own write visible" (Value.Int 5) (Txn.get_prop t oids.(0) "word_count");
  let fresh = Txn.insert t ~cls:"Paragraph" [ ("word_count", Value.Int 99) ] in
  check F.value "own insert readable" (Value.Int 99)
    (Txn.get_prop t fresh "word_count");
  check Alcotest.int "own insert in extent" 2
    (List.length (Txn.extent t "Paragraph"));
  (* nothing leaked to the store pre-commit *)
  check F.value "store untouched before commit" (Value.Int 0)
    (Object_store.peek_prop db.Db.store oids.(0) "word_count");
  check Alcotest.int "store extent untouched" 1
    (Object_store.extent_size db.Db.store "Paragraph");
  ignore (commit_exn t);
  check F.value "write applied at commit" (Value.Int 5)
    (Object_store.peek_prop db.Db.store oids.(0) "word_count");
  check Alcotest.int "insert applied at commit" 2
    (Object_store.extent_size db.Db.store "Paragraph")

let test_delete_semantics () =
  let db, oids = counter_db ~cells:2 in
  let m = Txn.manager db in
  (* delete of an own insert unbuffers it entirely *)
  let t = Txn.begin_ m in
  let fresh = Txn.insert t ~cls:"Paragraph" [ ("word_count", Value.Int 1) ] in
  Txn.delete t fresh;
  check Alcotest.bool "unbuffered insert gone" false (Txn.exists t fresh);
  ignore (commit_exn t);
  check Alcotest.int "nothing reached the store" 2
    (Object_store.extent_size db.Db.store "Paragraph");
  (* a committed delete stays visible to older snapshots *)
  let old = Txn.begin_ m in
  let t2 = Txn.begin_ m in
  Txn.delete t2 oids.(1);
  ignore (commit_exn t2);
  check Alcotest.bool "old snapshot still sees the object" true
    (Txn.exists old oids.(1));
  check F.value "and can read its final value" (Value.Int 10)
    (Txn.get_prop old oids.(1) "word_count");
  check Alcotest.int "old snapshot extent" 2
    (List.length (Txn.extent old "Paragraph"));
  Txn.abort old;
  let now = Txn.begin_ m in
  check Alcotest.bool "new snapshot does not" false (Txn.exists now oids.(1));
  Txn.abort now

let test_abort_discards () =
  let db, oids = counter_db ~cells:1 in
  let m = Txn.manager db in
  let t = Txn.begin_ m in
  Txn.set_prop t oids.(0) "word_count" (Value.Int 777);
  ignore (Txn.insert t ~cls:"Paragraph" [ ("word_count", Value.Int 1) ]);
  Txn.abort t;
  check F.value "write discarded" (Value.Int 0)
    (Object_store.peek_prop db.Db.store oids.(0) "word_count");
  check Alcotest.int "insert discarded" 1
    (Object_store.extent_size db.Db.store "Paragraph");
  check Alcotest.bool "aborted txn is closed" false (Txn.is_active t);
  Alcotest.match_raises "aborted txn refuses work"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> Txn.set_prop t oids.(0) "word_count" (Value.Int 1))

(* ------------------------------------------------------------------ *)
(* first-committer-wins                                                *)
(* ------------------------------------------------------------------ *)

let test_write_write_conflict () =
  let db, oids = counter_db ~cells:2 in
  let m = Txn.manager db in
  let t1 = Txn.begin_ m in
  let t2 = Txn.begin_ m in
  Txn.set_prop t1 oids.(0) "word_count" (Value.Int 1);
  Txn.set_prop t2 oids.(0) "word_count" (Value.Int 2);
  ignore (commit_exn t1);
  (match Txn.commit t2 with
  | Ok _ -> Alcotest.fail "second committer must lose"
  | Error (`Conflict _) -> ());
  check F.value "first committer's value stands" (Value.Int 1)
    (Object_store.peek_prop db.Db.store oids.(0) "word_count");
  check Alcotest.int "conflict charged" 1
    (Counters.get (Db.counters db) Txn_conflicts);
  (* disjoint write sets never conflict *)
  let a = Txn.begin_ m in
  let b = Txn.begin_ m in
  Txn.set_prop a oids.(0) "word_count" (Value.Int 10);
  Txn.set_prop b oids.(1) "word_count" (Value.Int 20);
  ignore (commit_exn a);
  ignore (commit_exn b)

let test_write_delete_conflict () =
  let db, oids = counter_db ~cells:1 in
  let m = Txn.manager db in
  (* concurrent delete beats a later-committing update *)
  let upd = Txn.begin_ m in
  let del = Txn.begin_ m in
  Txn.set_prop upd oids.(0) "word_count" (Value.Int 5);
  Txn.delete del oids.(0);
  ignore (commit_exn del);
  (match Txn.commit upd with
  | Ok _ -> Alcotest.fail "update of a concurrently deleted object"
  | Error (`Conflict _) -> ());
  check Alcotest.bool "object stays deleted" false
    (Object_store.exists db.Db.store oids.(0))

let test_run_retries () =
  let db, oids = counter_db ~cells:1 in
  let m = Txn.manager db in
  let incr () =
    match
      Txn.run m (fun t ->
          match Txn.get_prop t oids.(0) "word_count" with
          | Value.Int v -> Txn.set_prop t oids.(0) "word_count" (Value.Int (v + 1))
          | _ -> assert false)
    with
    | Ok _ -> ()
    | Error (`Conflict msg) -> Alcotest.failf "retries exhausted: %s" msg
  in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> for _ = 1 to 25 do incr () done))
  in
  List.iter Domain.join domains;
  check F.value "no lost updates under contention" (Value.Int 100)
    (Object_store.peek_prop db.Db.store oids.(0) "word_count")

(* ------------------------------------------------------------------ *)
(* pruning                                                             *)
(* ------------------------------------------------------------------ *)

let test_prune_discards_dead_versions () =
  let db, oids = counter_db ~cells:1 in
  let m = Txn.manager db in
  for i = 1 to 200 do
    match Txn.run m (fun t -> Txn.set_prop t oids.(0) "word_count" (Value.Int i)) with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "uncontended commit conflicted"
  done;
  (* no active snapshots: the horizon is the clock, chains collapse *)
  Txn.prune m;
  check Alcotest.bool "version chains pruned" true
    (Versions.live_entries (Txn.versions m) <= 1);
  let t = Txn.begin_ m in
  check F.value "latest still readable" (Value.Int 200)
    (Txn.get_prop t oids.(0) "word_count");
  Txn.abort t

(* A stalled reader pins the pruning horizon, so without a cap a hot
   key's chain grows one entry per commit for as long as the reader
   lives.  With [set_max_chain] the chain stays bounded and the stalled
   reader is refused with [Snapshot_too_old] rather than fed a wrong
   value; untouched keys and fresh snapshots are unaffected. *)
let test_version_cap_refuses_stalled_reader () =
  let cap = 8 in
  let db, oids = counter_db ~cells:2 in
  let m = Txn.manager db in
  Txn.set_max_chain m (Some cap);
  let stalled = Txn.begin_ m in
  check F.value "stalled reads fine before churn" (Value.Int 0)
    (Txn.get_prop stalled oids.(0) "word_count");
  for i = 1 to 100 do
    match
      Txn.run m (fun t -> Txn.set_prop t oids.(0) "word_count" (Value.Int i))
    with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "uncontended commit conflicted"
  done;
  (* the stalled reader pinned the horizon through every auto-prune, yet
     the hot chain never grew past the cap *)
  check Alcotest.bool "chain bounded despite the stalled reader" true
    (Versions.live_entries (Txn.versions m) <= cap);
  Alcotest.match_raises "stalled reader refused, not lied to"
    (function Versions.Snapshot_too_old _ -> true | _ -> false)
    (fun () -> ignore (Txn.get_prop stalled oids.(0) "word_count"));
  (* the refusal is per-key: the cold cell is still readable at the old
     snapshot, and a fresh transaction reads the hot cell normally *)
  check F.value "cold key still readable at the old snapshot" (Value.Int 10)
    (Txn.get_prop stalled oids.(1) "word_count");
  Txn.abort stalled;
  let fresh = Txn.begin_ m in
  check F.value "fresh snapshot reads the latest value" (Value.Int 100)
    (Txn.get_prop fresh oids.(0) "word_count");
  Txn.abort fresh

(* ------------------------------------------------------------------ *)
(* the serial oracle: randomized interleaved schedules                 *)
(* ------------------------------------------------------------------ *)

(* Each transaction is a list of cell operations; every write is a
   read-modify-write or a blind store, so first-committer-wins makes
   the committed subset serializable in commit order.  The generator
   draws an interleaving as a shuffled step sequence, some transactions
   end in a user abort, and conflicted commits drop out — the final
   store state must equal a serial replay of exactly the committed
   transactions, in commit timestamp order. *)

type cell_op = Incr of int * int | Put of int * int | ReadOnly of int

type script = { ops : cell_op list; user_abort : bool }

let script_gen ~cells =
  let open QCheck2.Gen in
  let cell = int_range 0 (cells - 1) in
  let op =
    oneof
      [
        map2 (fun k d -> Incr (k, d)) cell (int_range 1 9);
        map2 (fun k v -> Put (k, v)) cell (int_range 100 999);
        map (fun k -> ReadOnly k) cell;
      ]
  in
  map2
    (fun ops user_abort -> { ops; user_abort })
    (list_size (int_range 1 4) op)
    (map (fun n -> n = 0) (int_range 0 5))

(* interleaving: for each transaction, as many step tokens as it has
   actions (ops + the final commit/abort), then a global shuffle *)
let schedule_gen =
  let open QCheck2.Gen in
  let cells = 4 in
  list_size (int_range 2 6) (script_gen ~cells) >>= fun scripts ->
  let tokens =
    List.concat
      (List.mapi
         (fun i s -> List.init (List.length s.ops + 1) (fun _ -> i))
         scripts)
  in
  map (fun order -> (scripts, order)) (shuffle_l tokens)

let apply_cell_op read write = function
  | Incr (k, d) -> write k (read k + d)
  | Put (k, v) -> write k v
  | ReadOnly k -> ignore (read k)

let prop_serial_oracle (scripts, order) =
  let cells = 4 in
  let db, oids = counter_db ~cells in
  let m = Txn.manager db in
  let n = List.length scripts in
  let scripts = Array.of_list scripts in
  let txns = Array.make n None in
  let remaining = Array.map (fun s -> s.ops) scripts in
  (* (commit_ts, script index) of every successful commit *)
  let committed = ref [] in
  let step i =
    let t =
      match txns.(i) with
      | Some t -> t
      | None ->
        let t = Txn.begin_ m in
        txns.(i) <- Some t;
        t
    in
    if Txn.is_active t then
      match remaining.(i) with
      | op :: rest ->
        remaining.(i) <- rest;
        let read k =
          match Txn.get_prop t oids.(k) "word_count" with
          | Value.Int v -> v
          | _ -> assert false
        in
        let write k v = Txn.set_prop t oids.(k) "word_count" (Value.Int v) in
        apply_cell_op read write op
      | [] ->
        if scripts.(i).user_abort then Txn.abort t
        else begin
          match Txn.commit t with
          | Ok ts -> committed := (ts, i) :: !committed
          | Error (`Conflict _) -> ()
        end
  in
  List.iter step order;
  (* any transaction whose tokens were exhausted before its commit
     token surfaced cannot exist — each txn gets ops+1 tokens *)
  Array.iteri
    (fun i t ->
      match t with
      | Some t when Txn.is_active t ->
        Alcotest.failf "transaction %d never finished" i
      | _ -> ())
    txns;
  (* serial replay of the committed transactions in commit order *)
  let model = Array.init cells (fun i -> 10 * i) in
  List.iter
    (fun (_, i) ->
      List.iter
        (apply_cell_op (fun k -> model.(k)) (fun k v -> model.(k) <- v))
        scripts.(i).ops)
    (List.sort compare (List.rev !committed));
  let ok = ref true in
  Array.iteri
    (fun k oid ->
      match Object_store.peek_prop db.Db.store oid "word_count" with
      | Value.Int v -> if v <> model.(k) then ok := false
      | _ -> ok := false)
    oids;
  if not !ok then
    QCheck2.Test.fail_reportf "store diverged from serial oracle: %s vs %s"
      (String.concat ","
         (List.map
            (fun oid ->
              match Object_store.peek_prop db.Db.store oid "word_count" with
              | Value.Int v -> string_of_int v
              | _ -> "?")
            (Array.to_list oids)))
      (String.concat "," (List.map string_of_int (Array.to_list model)));
  true

let prop_snapshot_isolation_oracle =
  QCheck2.Test.make ~count:120
    ~name:
      "any interleaving of RMW transactions replays serially in commit order"
    schedule_gen prop_serial_oracle

(* ------------------------------------------------------------------ *)
(* durability: transactions over a paged directory                     *)
(* ------------------------------------------------------------------ *)

(* The snapshot clock must lag the allocation clock while a commit is
   mid-replay: a transaction must never obtain a begin timestamp whose
   write set is not fully applied yet (it would read that commit torn,
   and strict first-committer-wins would let lost updates through). *)
let test_snapshot_clock_lags_commit () =
  let db = Db.create_empty ~maintain:false () in
  let v = Versions.create () in
  Versions.observe v db.Db.store;
  check Alcotest.int "fresh recorder at 0" 0 (Versions.now v);
  (* direct (non-recorded) writes self-publish immediately *)
  let oid =
    Object_store.create_object db.Db.store ~cls:"Paragraph"
      [ ("word_count", Value.Int 1) ]
  in
  let live = Versions.now v in
  check Alcotest.bool "direct writes are live immediately" true (live > 0);
  let ts = Versions.begin_recording v in
  check Alcotest.bool "allocated ts is ahead of the snapshot clock" true
    (ts > Versions.now v);
  Object_store.set_prop db.Db.store oid "word_count" (Value.Int 2);
  check Alcotest.int "mid-replay events do not advance the snapshot clock"
    live (Versions.now v);
  Versions.publish v ts;
  Versions.end_recording v;
  check Alcotest.int "publish makes the commit a legal snapshot" ts
    (Versions.now v)

(* Hammer: every commit writes the same value to two cells, a concurrent
   reader transaction must never see them disagree — a begin timestamp
   equal to an in-flight commit would do exactly that. *)
let test_no_torn_snapshots_across_commit () =
  let db, oids = counter_db ~cells:2 in
  let m = Txn.manager db in
  let a = oids.(0) and b = oids.(1) in
  (match
     Txn.run m (fun t ->
         Txn.set_prop t a "word_count" (Value.Int 0);
         Txn.set_prop t b "word_count" (Value.Int 0))
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "setup commit conflicted");
  let stop = Atomic.make false in
  let torn = Atomic.make 0 in
  let reader =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          let t = Txn.begin_ m in
          let va = Txn.get_prop t a "word_count" in
          let vb = Txn.get_prop t b "word_count" in
          ignore (Txn.commit t);
          if not (Value.equal va vb) then Atomic.incr torn
        done)
  in
  for i = 1 to 500 do
    match
      Txn.run m (fun t ->
          Txn.set_prop t a "word_count" (Value.Int i);
          Txn.set_prop t b "word_count" (Value.Int i))
    with
    | Ok _ | Error _ -> ()
  done;
  Atomic.set stop true;
  Domain.join reader;
  check Alcotest.int "no torn snapshots observed" 0 (Atomic.get torn)

let test_txn_durability () =
  F.with_temp_dir "soqm_txn" (fun dir ->
      let db0 = F.tiny_db () in
      Db.save db0 dir;
      let db = Db.open_disk dir in
      let m = Txn.manager db in
      let doc = List.hd (Object_store.extent db.Db.store "Document") in
      (match
         Txn.run m (fun t ->
             Txn.set_prop t doc "title" (Value.Str "Committed Durably"))
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "uncontended commit conflicted");
      (* an aborted transaction leaves no trace in the WAL *)
      let t = Txn.begin_ m in
      Txn.set_prop t doc "title" (Value.Str "Never Written");
      Txn.abort t;
      Db.close db;
      let db' = Db.load dir in
      check F.value "committed write survives reopen"
        (Value.Str "Committed Durably")
        (Object_store.peek_prop db'.Db.store doc "title"))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "txn"
    [
      ( "rwlock",
        [
          F.case "writers exclusive" test_rwlock_exclusion;
          F.case "released on exception" test_rwlock_reraises;
        ] );
      ( "snapshots",
        [
          F.case "readers keep their snapshot" test_snapshot_reads;
          F.case "read your writes" test_read_your_writes;
          F.case "delete visibility" test_delete_semantics;
          F.case "abort discards buffers" test_abort_discards;
          F.case "snapshot clock lags mid-replay commits"
            test_snapshot_clock_lags_commit;
          F.case "no torn snapshots across commits"
            test_no_torn_snapshots_across_commit;
        ] );
      ( "conflicts",
        [
          F.case "write-write refused" test_write_write_conflict;
          F.case "write-delete refused" test_write_delete_conflict;
          F.case "run retries lost updates away" test_run_retries;
        ] );
      ( "pruning",
        [
          F.case "dead versions collapse" test_prune_discards_dead_versions;
          F.case "version cap refuses stalled reader"
            test_version_cap_refuses_stalled_reader;
        ] );
      ( "oracle",
        [ QCheck_alcotest.to_alcotest prop_snapshot_isolation_oracle ] );
      ( "durability",
        [ F.case "commits survive reopen" test_txn_durability ] );
    ]
