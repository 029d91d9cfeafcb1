(* The serving subsystem end to end: a real TCP server on an ephemeral
   loopback port, driven by real client sockets from the test domain.
   One server instance carries all the cases; it is stopped (and its
   domain joined) at the end. *)

open Soqm_vml
module Db = Soqm_core.Db
module Server = Soqm_server.Server
module Protocol = Soqm_server.Protocol
module F = Soqm_testlib.Fixtures

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* protocol codec roundtrips (no sockets involved)                     *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let reqs =
    [
      Protocol.Query "ACCESS d FROM d IN Document";
      Protocol.Begin;
      Protocol.Commit;
      Protocol.Abort;
      Protocol.Insert
        ("Document", [ ("title", Value.Str "x"); ("length", Value.Int 3) ]);
      Protocol.Update
        (Oid.make ~cls:"Paragraph" ~id:7, "content", Value.Str "new");
      Protocol.Delete (Oid.make ~cls:"Section" ~id:0);
      Protocol.Get (Oid.make ~cls:"Document" ~id:12, "title");
      Protocol.Extent "Paragraph";
      Protocol.Ping;
    ]
  in
  List.iter
    (fun r ->
      check Alcotest.bool "request survives the codec" true
        (Protocol.decode_request (Protocol.encode_request r) = r))
    reqs;
  let resps =
    [
      Protocol.Rows
        ([ "d"; "n" ], [ [ Value.Str "a"; Value.Int 1 ]; [ Value.Null; Value.Bool true ] ]);
      Protocol.Started 4;
      Protocol.Committed 9;
      Protocol.Done;
      Protocol.Value (Value.Real 2.5);
      Protocol.Oid (Oid.make ~cls:"Paragraph" ~id:3);
      Protocol.Oids [ Oid.make ~cls:"Document" ~id:1; Oid.make ~cls:"Document" ~id:2 ];
      Protocol.Conflict "c";
      Protocol.Error "e";
    ]
  in
  List.iter
    (fun r ->
      check Alcotest.bool "response survives the codec" true
        (Protocol.decode_response (Protocol.encode_response r) = r))
    resps

(* ------------------------------------------------------------------ *)
(* the live server                                                     *)
(* ------------------------------------------------------------------ *)

let query_hits = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500"

let with_server f =
  let db = F.tiny_db () in
  (* the expected row count, computed before the server owns the db *)
  let expected =
    let engine = Soqm_core.Engine.generate db in
    Soqm_algebra.Relation.cardinality
      (Soqm_core.Engine.run_optimized engine query_hits).Soqm_core.Engine.result
  in
  let server = Server.create ~sessions:2 db in
  let d = Domain.spawn (fun () -> Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join d)
    (fun () -> f server expected)

let rt = Protocol.roundtrip

let test_server_end_to_end () =
  with_server (fun server expected ->
      let port = Server.port server in
      let c1 = Protocol.connect ~port () in
      let c2 = Protocol.connect ~port () in
      Fun.protect
        ~finally:(fun () ->
          Unix.close c1;
          Unix.close c2)
        (fun () ->
          (* ping *)
          check Alcotest.bool "ping" true (rt c1 Protocol.Ping = Protocol.Done);
          (* queries run through the optimizer at latest-committed state *)
          (match rt c1 (Protocol.Query query_hits) with
          | Protocol.Rows (_, rows) ->
            check Alcotest.int "query row count" expected (List.length rows)
          | r -> Alcotest.failf "query: unexpected %s" (Protocol.encode_response r));
          (* malformed queries answer a plain message — no module path,
             no exception constructor — and leave the session usable *)
          let internal =
            Str.regexp "[A-Z][A-Za-z0-9_]*\\.[A-Z]\\|[A-Z][a-z_]*[ ]*(\""
          in
          List.iter
            (fun (what, src) ->
              match rt c1 (Protocol.Query src) with
              | Protocol.Error msg ->
                check Alcotest.bool
                  (Printf.sprintf "%s reads plainly: %S" what msg)
                  false
                  (try
                     ignore (Str.search_forward internal msg 0);
                     true
                   with Not_found -> false);
                check Alcotest.bool (what ^ ": session still answers") true
                  (rt c1 Protocol.Ping = Protocol.Done)
              | _ -> Alcotest.failf "%s must answer Error" what)
            [
              ("parse error", "ACCESS d FROM d IN");
              ("unknown class", "ACCESS d FROM d IN Nope");
              ("unknown property", "ACCESS d.nope FROM d IN Document");
            ];
          (* extent + transactional read-your-writes over the wire *)
          let doc =
            match rt c1 (Protocol.Extent "Document") with
            | Protocol.Oids (o :: _) -> o
            | _ -> Alcotest.fail "extent"
          in
          (match rt c1 Protocol.Begin with
          | Protocol.Started _ -> ()
          | _ -> Alcotest.fail "begin");
          (match rt c1 (Protocol.Update (doc, "title", Value.Str "wire")) with
          | Protocol.Done -> ()
          | r -> Alcotest.failf "update: %s" (Protocol.encode_response r));
          check Alcotest.bool "own write over the wire" true
            (rt c1 (Protocol.Get (doc, "title")) = Protocol.Value (Value.Str "wire"));
          (* the other connection still sees the committed state *)
          check Alcotest.bool "uncommitted write invisible to c2" false
            (rt c2 (Protocol.Get (doc, "title")) = Protocol.Value (Value.Str "wire"));
          (match rt c1 Protocol.Commit with
          | Protocol.Committed _ -> ()
          | r -> Alcotest.failf "commit: %s" (Protocol.encode_response r));
          check Alcotest.bool "committed write visible to c2" true
            (rt c2 (Protocol.Get (doc, "title")) = Protocol.Value (Value.Str "wire"));
          (* first committer wins across connections *)
          ignore (rt c1 Protocol.Begin);
          ignore (rt c2 Protocol.Begin);
          ignore (rt c1 (Protocol.Update (doc, "title", Value.Str "one")));
          ignore (rt c2 (Protocol.Update (doc, "title", Value.Str "two")));
          (match rt c1 Protocol.Commit with
          | Protocol.Committed _ -> ()
          | _ -> Alcotest.fail "first commit");
          (match rt c2 Protocol.Commit with
          | Protocol.Conflict _ -> ()
          | r -> Alcotest.failf "second commit must conflict: %s"
                   (Protocol.encode_response r));
          (* auto-commit outside a transaction *)
          (match rt c2 (Protocol.Insert ("Document", [ ("title", Value.Str "auto") ])) with
          | Protocol.Oid oid ->
            check Alcotest.bool "auto-committed insert readable" true
              (rt c1 (Protocol.Get (oid, "title")) = Protocol.Value (Value.Str "auto"));
            (match rt c2 (Protocol.Delete oid) with
            | Protocol.Committed _ -> ()
            | r -> Alcotest.failf "delete: %s" (Protocol.encode_response r));
            (match rt c1 (Protocol.Get (oid, "title")) with
            | Protocol.Error _ -> ()
            | _ -> Alcotest.fail "deleted object must read as an error")
          | r -> Alcotest.failf "insert: %s" (Protocol.encode_response r));
          (* a nonsense request body answers Error, not a dropped line *)
          Protocol.write_frame c1 "\xffgarbage";
          (match Protocol.decode_response (Protocol.read_frame c1) with
          | Protocol.Error _ -> ()
          | _ -> Alcotest.fail "garbage frame must answer Error");
          check Alcotest.bool "connection survives garbage" true
            (rt c1 Protocol.Ping = Protocol.Done)))

let test_disconnect_aborts_txn () =
  with_server (fun server _ ->
      let port = Server.port server in
      let mgr = Server.manager server in
      let doc =
        List.hd (Object_store.extent (Server.db server).Db.store "Document")
      in
      let c = Protocol.connect ~port () in
      ignore (rt c Protocol.Begin);
      ignore (rt c (Protocol.Update (doc, "title", Value.Str "dropped")));
      check Alcotest.int "one active transaction" 1
        (Soqm_txn.Txn.active_count mgr);
      Unix.close c;
      (* the session notices on its next read and aborts *)
      let rec wait n =
        if Soqm_txn.Txn.active_count mgr > 0 && n > 0 then begin
          Unix.sleepf 0.01;
          wait (n - 1)
        end
      in
      wait 200;
      check Alcotest.int "disconnect aborted it" 0
        (Soqm_txn.Txn.active_count mgr);
      (* and the buffered write never applied *)
      let c2 = Protocol.connect ~port () in
      check Alcotest.bool "buffered write discarded" false
        (rt c2 (Protocol.Get (doc, "title")) = Protocol.Value (Value.Str "dropped"));
      Unix.close c2)

let test_concurrent_wire_increments () =
  (* several client connections hammer one counter through wire-level
     Begin/Get/Update/Commit with retries: no lost updates *)
  with_server (fun server _ ->
      let port = Server.port server in
      let cell =
        List.hd (Object_store.extent (Server.db server).Db.store "Paragraph")
      in
      (* seed the counter — and verify the seed actually applied *)
      let c0 = Protocol.connect ~port () in
      (match rt c0 (Protocol.Update (cell, "word_count", Value.Int 0)) with
      | Protocol.Committed _ -> ()
      | r -> Alcotest.failf "seed: %s" (Protocol.encode_response r));
      Unix.close c0;
      let per = 20 in
      let workers =
        List.init 2 (fun _ ->
            Domain.spawn (fun () ->
                let c = Protocol.connect ~port () in
                Fun.protect ~finally:(fun () -> Unix.close c) @@ fun () ->
                let rec incr tries =
                  if tries > 200 then failwith "too many conflicts";
                  ignore (rt c Protocol.Begin);
                  let v =
                    match rt c (Protocol.Get (cell, "word_count")) with
                    | Protocol.Value (Value.Int v) -> v
                    | r -> failwith ("get: " ^ Protocol.encode_response r)
                  in
                  ignore
                    (rt c (Protocol.Update (cell, "word_count", Value.Int (v + 1))));
                  match rt c Protocol.Commit with
                  | Protocol.Committed _ -> ()
                  | Protocol.Conflict _ -> incr (tries + 1)
                  | r -> failwith ("commit: " ^ Protocol.encode_response r)
                in
                for _ = 1 to per do
                  incr 0
                done))
      in
      List.iter Domain.join workers;
      let c = Protocol.connect ~port () in
      check Alcotest.bool "serial sum reached" true
        (rt c (Protocol.Get (cell, "word_count"))
        = Protocol.Value (Value.Int (2 * per)));
      Unix.close c)

let test_wire_crossing_and_guard () =
  (* the served large query answers from the maintained sets: a wire
     write crossing 500 shows in the next Query, and a wire write to the
     set itself is refused by name without breaking the session *)
  with_server (fun server expected ->
      let port = Server.port server in
      let store = (Server.db server).Db.store in
      let small =
        List.find
          (fun p ->
            match Object_store.peek_prop store p "word_count" with
            | Value.Int n -> n <= 500
            | _ -> false)
          (Object_store.extent store "Paragraph")
      in
      let doc = List.hd (Object_store.extent store "Document") in
      let c = Protocol.connect ~port () in
      Fun.protect ~finally:(fun () -> Unix.close c) @@ fun () ->
      let rows () =
        match rt c (Protocol.Query query_hits) with
        | Protocol.Rows (_, rows) -> rows
        | r -> Alcotest.failf "query: %s" (Protocol.encode_response r)
      in
      let answers p = List.exists (List.mem (Value.Obj p)) (rows ()) in
      let update oid prop v =
        match rt c (Protocol.Update (oid, prop, v)) with
        | Protocol.Committed _ -> ()
        | r -> Alcotest.failf "update: %s" (Protocol.encode_response r)
      in
      check Alcotest.bool "small paragraph not answered" false (answers small);
      update small "word_count" (Value.Int 750);
      check Alcotest.int "crossing up adds a row" (expected + 1)
        (List.length (rows ()));
      check Alcotest.bool "the crossed paragraph is answered" true (answers small);
      update small "word_count" (Value.Int 100);
      check Alcotest.int "crossing down removes it" expected (List.length (rows ()));
      let refused what =
        match rt c (Protocol.Update (doc, "largeParagraphs", Value.Set [])) with
        | Protocol.Error msg ->
          check Alcotest.bool (what ^ ": error names the property") true
            (try
               ignore
                 (Str.search_forward (Str.regexp_string "largeParagraphs") msg 0);
               true
             with Not_found -> false)
        | r -> Alcotest.failf "%s: write accepted: %s" what (Protocol.encode_response r)
      in
      refused "auto-commit";
      ignore (rt c Protocol.Begin);
      refused "in a transaction";
      (match rt c Protocol.Commit with
      | Protocol.Committed _ -> ()
      | r -> Alcotest.failf "commit after refusal: %s" (Protocol.encode_response r));
      check Alcotest.int "the set is intact" expected (List.length (rows ()));
      check Alcotest.bool "session still serves" true (rt c Protocol.Ping = Protocol.Done))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ("protocol", [ F.case "codec roundtrips" test_codec_roundtrip ]);
      ( "wire",
        [
          F.case "end to end" test_server_end_to_end;
          F.case "disconnect aborts" test_disconnect_aborts_txn;
          F.case "no lost updates over the wire" test_concurrent_wire_increments;
          F.case "threshold crossing and write guard" test_wire_crossing_and_guard;
        ] );
    ]
