open Soqm_vml
module Db = Soqm_core.Db
module Engine = Soqm_core.Engine
module Exec = Soqm_physical.Exec
module Plan = Soqm_physical.Plan
module Relation = Soqm_algebra.Relation
module Txn = Soqm_txn.Txn

type t = {
  mgr : Txn.manager;
  engine : Engine.t;
  opt_m : Mutex.t;  (* the engine's plan cache is not domain-safe *)
  exec : Exec.ctx;
  mutable txn : Txn.t option;
}

let create ~mgr ~engine ~opt_m () =
  { mgr; engine; opt_m; exec = Engine.exec_ctx (Txn.db mgr); txn = None }

(* Queries execute at latest-committed state under the shared latch (no
   commit applies mid-query); optimization is serialized by [opt_m] but
   execution itself runs concurrently across sessions.  Counters are NOT
   reset — the server accumulates one workload-wide picture. *)
let run_query s src =
  let db = Txn.db s.mgr in
  let logical = Engine.logical_of_query db src in
  match Engine.safe_to_optimize db logical with
  | Ok () ->
    let compiled =
      Mutex.lock s.opt_m;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock s.opt_m)
        (fun () -> snd (Engine.optimize_compiled s.engine logical))
    in
    Txn.with_read s.mgr (fun () -> Exec.run_compiled ~jobs:1 s.exec compiled)
  | Error _ ->
    (* potentially side-effecting method calls: run the plan as written,
       under the exclusive latch — its writes mutate the store and the
       version tables directly, which no concurrent reader may see
       mid-flight *)
    let plan = Plan.default_implementation logical in
    Txn.with_write s.mgr (fun () -> Exec.run ~jobs:1 s.exec plan)

let rows_of_relation r =
  let refs = Relation.refs r in
  let rows =
    List.map
      (fun tup ->
        List.map
          (fun name -> Option.value ~default:Value.Null (List.assoc_opt name tup))
          refs)
      (Relation.tuples r)
  in
  (refs, rows)

(* Run [f] inside the session's open transaction, or auto-commit it in
   a transaction of its own.  [respond] gets [f]'s result and the commit
   timestamp ([None] inside an open transaction, which commits later). *)
let in_txn s f respond =
  match s.txn with
  | Some txn -> respond (f txn) None
  | None -> (
    match Txn.run s.mgr f with
    | Ok (x, ts) -> respond x (Some ts)
    | Error (`Conflict reason) -> Protocol.Conflict reason)

let done_or_committed () = function
  | None -> Protocol.Done
  | Some ts -> Protocol.Committed ts

let handle s (req : Protocol.request) : Protocol.response =
  match req with
  | Protocol.Ping -> Protocol.Done
  | Protocol.Query src ->
    let refs, rows = rows_of_relation (run_query s src) in
    Protocol.Rows (refs, rows)
  | Protocol.Begin -> (
    match s.txn with
    | Some _ -> Protocol.Error "transaction already open on this session"
    | None ->
      let txn = Txn.begin_ s.mgr in
      s.txn <- Some txn;
      Protocol.Started (Txn.begin_ts txn))
  | Protocol.Commit -> (
    match s.txn with
    | None -> Protocol.Error "no open transaction"
    | Some txn -> (
      s.txn <- None;
      match Txn.commit txn with
      | Ok ts -> Protocol.Committed ts
      | Error (`Conflict reason) -> Protocol.Conflict reason))
  | Protocol.Abort -> (
    match s.txn with
    | None -> Protocol.Error "no open transaction"
    | Some txn ->
      s.txn <- None;
      Txn.abort txn;
      Protocol.Done)
  | Protocol.Insert (cls, props) ->
    in_txn s (fun txn -> Txn.insert txn ~cls props) (fun oid _ -> Protocol.Oid oid)
  | Protocol.Update (oid, prop, v) ->
    in_txn s (fun txn -> Txn.set_prop txn oid prop v) done_or_committed
  | Protocol.Delete oid -> in_txn s (fun txn -> Txn.delete txn oid) done_or_committed
  | Protocol.Get (oid, prop) ->
    in_txn s (fun txn -> Txn.get_prop txn oid prop) (fun v _ -> Protocol.Value v)
  | Protocol.Extent cls ->
    in_txn s (fun txn -> Txn.extent txn cls) (fun oids _ -> Protocol.Oids oids)

let error_message = function
  | Soqm_vql.Parser.Error msg -> Some ("parse error: " ^ msg)
  | Soqm_vql.Typecheck.Error msg -> Some ("type error: " ^ msg)
  | Soqm_vql.To_algebra.Error msg -> Some ("translation error: " ^ msg)
  | Soqm_algebra.Translate.Unsupported msg -> Some ("unsupported query: " ^ msg)
  | Runtime.Error msg | Exec.Error msg -> Some ("execution error: " ^ msg)
  | Soqm_txn.Versions.Snapshot_too_old { oid; prop; ts } ->
    Some
      (Printf.sprintf
         "snapshot too old: %s.%s has no version at timestamp %d; retry the \
          transaction"
         (Oid.to_string oid) prop ts)
  | Not_found -> Some "not found"
  | Invalid_argument msg | Failure msg | Soqm_disk.Codec.Corrupt msg -> Some msg
  | _ -> None

let serve s fd =
  let respond resp = Protocol.write_frame fd (Protocol.encode_response resp) in
  let rec loop () =
    match Protocol.read_frame fd with
    | exception End_of_file -> ()
    | frame ->
      let resp =
        match Protocol.decode_request frame with
        | exception Soqm_disk.Codec.Corrupt msg ->
          Protocol.Error ("bad request: " ^ msg)
        | req -> (
          try handle s req
          with e -> (
            match error_message e with
            | Some msg -> Protocol.Error msg
            | None -> Protocol.Error (Printexc.to_string e)))
      in
      respond resp;
      loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* a dropped connection aborts its open transaction *)
      match s.txn with
      | Some txn when Txn.is_active txn ->
        s.txn <- None;
        Txn.abort txn
      | _ -> s.txn <- None)
    loop
