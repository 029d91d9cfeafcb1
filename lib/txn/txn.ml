open Soqm_vml
module Db = Soqm_core.Db
module Disk = Soqm_disk.Store

let fail fmt = Format.kasprintf invalid_arg fmt

(* ------------------------------------------------------------------ *)
(* manager                                                             *)
(* ------------------------------------------------------------------ *)

type manager = {
  db : Db.t;
  versions : Versions.t;
  latch : Rwlock.t;
  commit_m : Mutex.t;  (* serializes validate -> ts -> apply -> enqueue *)
  active : (int, int) Hashtbl.t;  (* txn id -> begin_ts *)
  active_m : Mutex.t;
  mutable next_txn : int;
  mutable commits : int;  (* committed write transactions, for pruning *)
}

let manager db =
  let m =
    {
      db;
      versions = Versions.create ();
      latch = Rwlock.create ();
      commit_m = Mutex.create ();
      active = Hashtbl.create 64;
      active_m = Mutex.create ();
      next_txn = 0;
      commits = 0;
    }
  in
  Versions.observe m.versions db.Db.store;
  m

let db m = m.db
let with_read m f = Rwlock.read m.latch f

(* Direct (non-transactional) store mutation: commit mutex first, then
   the exclusive latch — the same order every committer and pruner
   takes, so validation (which runs under commit_m alone) never races
   the version tables these writes update. *)
let with_write m f =
  Mutex.lock m.commit_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock m.commit_m)
    (fun () -> Rwlock.write m.latch f)
let clock m = Versions.now m.versions
let versions m = m.versions

(* Setting the cap is chain surgery on future pushes only; still take the
   writer path so it cannot interleave with a commit's replay. *)
let set_max_chain m n = with_write m (fun () -> Versions.set_max_chain m.versions n)

let active_count m =
  Mutex.lock m.active_m;
  let n = Hashtbl.length m.active in
  Mutex.unlock m.active_m;
  n

let min_active_snapshot m =
  Mutex.lock m.active_m;
  let s =
    Hashtbl.fold (fun _ b acc -> min b acc) m.active (Versions.now m.versions)
  in
  Mutex.unlock m.active_m;
  s

let set_group_window m w =
  match m.db.Db.disk with Some d -> Disk.set_group_window d w | None -> ()

(* Pruning takes commit_m before the exclusive latch — the same order as
   commit — so validation never reads chains mid-surgery. *)
let prune_interval = 64

let prune m =
  (* commit mutex first, then the exclusive latch — the same order a
     committing transaction takes, so validation never races the chain
     surgery *)
  Mutex.lock m.commit_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock m.commit_m)
    (fun () ->
      let s = min_active_snapshot m in
      Rwlock.write m.latch (fun () ->
          Versions.prune m.versions ~min_snapshot:s))

let maybe_prune m =
  let due =
    Mutex.lock m.active_m;
    m.commits <- m.commits + 1;
    let d = m.commits mod prune_interval = 0 in
    Mutex.unlock m.active_m;
    d
  in
  if due then prune m

(* ------------------------------------------------------------------ *)
(* transactions                                                        *)
(* ------------------------------------------------------------------ *)

type wop =
  | WInsert of Oid.t * (string * Value.t) list
  | WSet of Oid.t * string * Value.t
  | WDelete of Oid.t

type state = Active | Committed of int | Aborted

type t = {
  mgr : manager;
  id : int;
  begin_ts : int;
  mutable state : state;
  mutable log : wop list;  (* execution order, reversed *)
  writes : (Oid.t * string, Value.t) Hashtbl.t;  (* latest buffered value *)
  inserted : (Oid.t, (string * Value.t) list) Hashtbl.t;  (* initial props *)
  deleted : (Oid.t, unit) Hashtbl.t;
}

let begin_ m =
  Counters.incr (Db.counters m.db) Txn_begins;
  Mutex.lock m.active_m;
  let id = m.next_txn in
  m.next_txn <- id + 1;
  let begin_ts = Versions.now m.versions in
  Hashtbl.replace m.active id begin_ts;
  Mutex.unlock m.active_m;
  {
    mgr = m;
    id;
    begin_ts;
    state = Active;
    log = [];
    writes = Hashtbl.create 16;
    inserted = Hashtbl.create 4;
    deleted = Hashtbl.create 4;
  }

let begin_ts t = t.begin_ts
let state t = t.state
let is_active t = t.state = Active
let store t = t.mgr.db.Db.store

let check_active t =
  match t.state with
  | Active -> ()
  | Committed _ -> fail "Txn: transaction %d already committed" t.id
  | Aborted -> fail "Txn: transaction %d already aborted" t.id

let unregister t =
  Mutex.lock t.mgr.active_m;
  Hashtbl.remove t.mgr.active t.id;
  Mutex.unlock t.mgr.active_m

let prop_def t oid prop =
  match Schema.property (Object_store.schema (store t)) ~cls:(Oid.cls oid) ~prop with
  | Some p -> p
  | None -> fail "Txn: class %s has no property %S" (Oid.cls oid) prop

(* --- reads: own effects first, then the snapshot ------------------- *)

let snapshot_visible t oid =
  Rwlock.read t.mgr.latch (fun () ->
      Versions.visible t.mgr.versions (store t) ~ts:t.begin_ts oid)

let exists t oid =
  check_active t;
  (not (Hashtbl.mem t.deleted oid))
  && (Hashtbl.mem t.inserted oid || snapshot_visible t oid)

let get_prop t oid prop =
  check_active t;
  let c = Db.counters t.mgr.db in
  Counters.incr c Objects_fetched;
  Counters.incr c Property_reads;
  if Hashtbl.mem t.deleted oid then raise Not_found;
  match Hashtbl.find_opt t.writes (oid, prop) with
  | Some v -> v
  | None -> (
    match Hashtbl.find_opt t.inserted oid with
    | Some props -> (
      let def = prop_def t oid prop in
      match List.assoc_opt prop props with
      | Some v -> v
      | None -> (
        (* parity with [create_object]: set-valued properties default to
           the empty set, everything else to NULL *)
        match def.Schema.prop_type with
        | Vtype.TSet _ -> Value.Set []
        | _ -> Value.Null))
    | None ->
      Rwlock.read t.mgr.latch (fun () ->
          Versions.read t.mgr.versions (store t) ~ts:t.begin_ts oid prop))

let extent t cls =
  check_active t;
  let base =
    Rwlock.read t.mgr.latch (fun () ->
        Versions.extent t.mgr.versions (store t) ~ts:t.begin_ts cls)
  in
  let base = List.filter (fun o -> not (Hashtbl.mem t.deleted o)) base in
  let mine =
    Hashtbl.fold
      (fun oid _ acc -> if String.equal (Oid.cls oid) cls then oid :: acc else acc)
      t.inserted []
  in
  List.sort
    (fun a b -> Int.compare (Oid.id a) (Oid.id b))
    (List.rev_append mine base)

(* --- buffered writes ----------------------------------------------- *)

let set_prop t oid prop v =
  check_active t;
  let def = prop_def t oid prop in
  if not (Vtype.check def.Schema.prop_type v) then
    fail "Txn: value %s ill-typed for %s.%s : %s" (Value.to_string v)
      (Oid.cls oid) prop
      (Vtype.to_string def.Schema.prop_type);
  Object_store.check_user_write (store t) ~cls:(Oid.cls oid) ~prop;
  if not (exists t oid) then raise Not_found;
  Hashtbl.replace t.writes (oid, prop) v;
  t.log <- WSet (oid, prop, v) :: t.log

let insert t ~cls props =
  check_active t;
  let schema = Object_store.schema (store t) in
  ignore (Schema.class_exn schema cls);
  List.iter
    (fun (p, v) ->
      match Schema.property schema ~cls ~prop:p with
      | None -> fail "Txn: class %s has no property %S" cls p
      | Some def ->
        Object_store.check_user_write (store t) ~cls ~prop:p;
        if not (Vtype.check def.Schema.prop_type v) then
          fail "Txn: value %s ill-typed for %s.%s : %s" (Value.to_string v) cls
            p
            (Vtype.to_string def.Schema.prop_type))
    props;
  (* the OID is reserved now (atomically — no latch needed) and never
     rolled back; an abort just leaks the serial — so the transaction
     can hand out and read its own inserts before commit *)
  let oid = Object_store.reserve_oid (store t) ~cls in
  Hashtbl.replace t.inserted oid props;
  t.log <- WInsert (oid, props) :: t.log;
  oid

let delete t oid =
  check_active t;
  if Hashtbl.mem t.inserted oid then begin
    (* deleting an own insert: scrub every buffered trace of it *)
    Hashtbl.remove t.inserted oid;
    let doomed =
      Hashtbl.fold
        (fun ((o, _) as key) _ acc -> if Oid.equal o oid then key :: acc else acc)
        t.writes []
    in
    List.iter (Hashtbl.remove t.writes) doomed;
    t.log <-
      List.filter
        (function
          | WInsert (o, _) | WSet (o, _, _) | WDelete o -> not (Oid.equal o oid))
        t.log
  end
  else begin
    if Hashtbl.mem t.deleted oid || not (snapshot_visible t oid) then
      raise Not_found;
    Hashtbl.replace t.deleted oid ();
    t.log <- WDelete oid :: t.log
  end

(* --- commit / abort ------------------------------------------------ *)

let abort t =
  check_active t;
  t.state <- Aborted;
  unregister t;
  Counters.incr (Db.counters t.mgr.db) Txn_aborts

(* First-committer-wins: any key of the write set committed past our
   snapshot — or a concurrent delete of an object we write or delete —
   refuses the commit. *)
let validate t =
  let v = t.mgr.versions in
  let conflict = ref None in
  let note reason = if !conflict = None then conflict := Some reason in
  Hashtbl.iter
    (fun (oid, prop) _ ->
      if !conflict = None && not (Hashtbl.mem t.inserted oid) then begin
        if Versions.last_write v oid prop > t.begin_ts then
          note
            (Printf.sprintf "concurrent write to %s.%s" (Oid.to_string oid)
               prop);
        match Versions.deleted_at v oid with
        | Some d when d > t.begin_ts ->
          note (Printf.sprintf "concurrent delete of %s" (Oid.to_string oid))
        | _ -> ()
      end)
    t.writes;
  Hashtbl.iter
    (fun oid () ->
      if !conflict = None && Versions.obj_last v oid > t.begin_ts then
        note
          (Printf.sprintf "concurrent write touching deleted %s"
             (Oid.to_string oid)))
    t.deleted;
  !conflict

let replay t () =
  List.iter
    (function
      | WInsert (oid, props) -> Object_store.insert_reserved (store t) oid props
      | WSet (oid, prop, v) -> Object_store.set_prop (store t) oid prop v
      | WDelete oid -> Object_store.delete_object (store t) oid)
    (List.rev t.log)

let commit t =
  check_active t;
  let m = t.mgr in
  let c = Db.counters m.db in
  if t.log = [] then begin
    (* read-only: its snapshot is its serialization point *)
    t.state <- Committed t.begin_ts;
    unregister t;
    Counters.incr c Txn_commits;
    Ok t.begin_ts
  end
  else begin
    match
      let outcome =
        Mutex.lock m.commit_m;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock m.commit_m)
          (fun () ->
            match validate t with
            | Some reason -> Error reason
            | None ->
              let ts = Versions.begin_recording m.versions in
              let (), disk_ops =
                Fun.protect
                  ~finally:(fun () -> Versions.end_recording m.versions)
                  (fun () ->
                    (* exclusive latch: queries and snapshot reads see the
                       whole commit or none of it; the version recorder and
                       every maintenance observer run inside *)
                    Rwlock.write m.latch (fun () ->
                        let r = Db.buffer_disk_ops m.db (replay t) in
                        (* publish [ts] as a legal snapshot only now,
                           with the whole write set applied: a
                           transaction beginning at [ts] can never see
                           this commit torn or half-missing *)
                        Versions.publish m.versions ts;
                        r))
              in
              (* enqueue under commit_m so WAL order = timestamp order;
                 the fsync wait happens outside, where the next committer
                 can already validate — that is what coalesces batches *)
              let ticket =
                match m.db.Db.disk with
                | Some d when disk_ops <> [] ->
                  Some (d, Disk.enqueue_group d disk_ops)
                | _ -> None
              in
              Ok (ts, ticket))
      in
      match outcome with
      | Error reason -> Error reason
      | Ok (ts, ticket) ->
        (match ticket with
        | Some (d, tk) -> Disk.wait_group d tk
        | None -> ());
        Ok ts
    with
    | exception e ->
      (* replay or WAL-flush failure: the transaction is over either
         way — never leave it Active and registered, pinning the pruning
         horizon forever.  (A flush failure leaves the replayed writes
         in memory; the exception reaches the caller, who must treat
         durability as unconfirmed.) *)
      t.state <- Aborted;
      unregister t;
      Counters.incr c Txn_aborts;
      raise e
    | Error reason ->
      t.state <- Aborted;
      unregister t;
      Counters.incr c Txn_conflicts;
      Error (`Conflict reason)
    | Ok ts ->
      t.state <- Committed ts;
      unregister t;
      Counters.incr c Txn_commits;
      maybe_prune m;
      Ok ts
  end

(* conflicting auto-commit attempts re-run this many times *)
let retries = 8

let run m f =
  let rec go n =
    let txn = begin_ m in
    match f txn with
    | exception e ->
      if is_active txn then abort txn;
      raise e
    | x -> (
      match commit txn with
      | Ok ts -> Ok (x, ts)
      | Error (`Conflict _) when n > 0 -> go (n - 1)
      | Error e -> Error e)
  in
  go retries
