(* Domain-safe counters: every integer counter is an [Atomic.t] cell so
   parallel kernels on several domains never lose increments; the
   method-call tally (a hashtable) and the float cost accumulator are
   guarded by one mutex — they are charged per method invocation, orders
   of magnitude rarer than per-tuple charges, so the lock is off every hot
   path. *)

type family = Query | Maintenance | Storage | Txn | Knowledge

type counter =
  | Objects_fetched | Property_reads | Index_probes | Tuples_produced
  | Blocks_produced | Slot_misses
  | Postings_touched | Implication_updates | Stats_deltas | Plan_cache_hits
  | Plan_cache_misses
  | Pages_read | Pages_written | Pool_hits | Pool_evictions | Wal_records
  | Wal_commits | Wal_fsyncs | Bytes_read | Values_decoded
  | Txn_begins | Txn_commits | Txn_conflicts | Txn_aborts
  | Rules_derived | Rules_subsumed | Models_checked | Counterexamples_found

(* The registry: each counter's cell index, family, JSON key and report
   label ([None]: the owner reports it, see [pp]). *)
let spec = function
  | Objects_fetched -> (0, Query, "objects_fetched", Some "objects fetched")
  | Property_reads -> (1, Query, "property_reads", Some "property reads")
  | Index_probes -> (2, Query, "index_probes", Some "index probes")
  | Tuples_produced -> (3, Query, "tuples_produced", Some "tuples")
  | Blocks_produced -> (4, Query, "blocks_produced", Some "blocks")
  | Slot_misses -> (5, Query, "slot_misses", Some "slot misses")
  | Postings_touched ->
    (6, Maintenance, "postings_touched", Some "index postings touched")
  | Implication_updates ->
    (7, Maintenance, "implication_updates", Some "implication-set updates")
  | Stats_deltas -> (8, Maintenance, "stats_deltas", Some "statistics deltas")
  | Plan_cache_hits -> (9, Maintenance, "plan_cache_hits", None)
  | Plan_cache_misses -> (10, Maintenance, "plan_cache_misses", None)
  | Pages_read -> (11, Storage, "pages_read", Some "pages read")
  | Pages_written -> (12, Storage, "pages_written", Some "pages written")
  | Pool_hits -> (13, Storage, "pool_hits", Some "pool hits")
  | Pool_evictions -> (14, Storage, "pool_evictions", Some "pool evictions")
  | Wal_records -> (15, Storage, "wal_records", Some "wal records")
  | Wal_commits -> (16, Storage, "wal_commits", Some "wal commits")
  | Wal_fsyncs -> (17, Storage, "wal_fsyncs", Some "wal fsyncs")
  | Bytes_read -> (18, Storage, "bytes_read", Some "bytes read")
  | Values_decoded -> (19, Storage, "values_decoded", Some "values decoded")
  | Txn_begins -> (20, Txn, "txn_begins", Some "transactions begun")
  | Txn_commits -> (21, Txn, "txn_commits", Some "transactions committed")
  | Txn_conflicts -> (22, Txn, "txn_conflicts", Some "conflict aborts")
  | Txn_aborts -> (23, Txn, "txn_aborts", Some "explicit aborts")
  | Rules_derived -> (24, Knowledge, "rules_derived", Some "rules derived")
  | Rules_subsumed -> (25, Knowledge, "rules_subsumed", Some "rules subsumed")
  | Models_checked -> (26, Knowledge, "models_checked", Some "models checked")
  | Counterexamples_found ->
    (27, Knowledge, "counterexamples_found", Some "counterexamples found")

let all =
  [ Objects_fetched; Property_reads; Index_probes; Tuples_produced;
    Blocks_produced; Slot_misses; Postings_touched; Implication_updates;
    Stats_deltas; Plan_cache_hits; Plan_cache_misses; Pages_read;
    Pages_written; Pool_hits; Pool_evictions; Wal_records; Wal_commits;
    Wal_fsyncs; Bytes_read; Values_decoded; Txn_begins; Txn_commits;
    Txn_conflicts; Txn_aborts; Rules_derived; Rules_subsumed; Models_checked;
    Counterexamples_found ]

let index c = match spec c with i, _, _, _ -> i
let family c = match spec c with _, f, _, _ -> f

let () = List.iteri (fun i c -> assert (index c = i)) all

type t = {
  cells : int Atomic.t array;  (* indexed by [index] *)
  m : Mutex.t;  (* guards [charged_cost] and [calls] *)
  mutable charged_cost : float;
  calls : (string, int) Hashtbl.t;
}

let create () =
  {
    cells = Array.init (List.length all) (fun _ -> Atomic.make 0);
    m = Mutex.create ();
    charged_cost = 0.;
    calls = Hashtbl.create 16;
  }

let cell t c = Array.unsafe_get t.cells (index c)
let incr t c = Atomic.incr (cell t c)
let add t c n = ignore (Atomic.fetch_and_add (cell t c) n)
let get t c = Atomic.get (cell t c)

let reset t fam =
  List.iter (fun c -> if family c = fam then Atomic.set (cell t c) 0) all;
  if fam = Query then (
    Mutex.lock t.m;
    t.charged_cost <- 0.;
    Hashtbl.reset t.calls;
    Mutex.unlock t.m)

let charge_method_call t ~meth ~cost =
  Mutex.lock t.m;
  let n = Option.value ~default:0 (Hashtbl.find_opt t.calls meth) in
  Hashtbl.replace t.calls meth (n + 1);
  t.charged_cost <- t.charged_cost +. cost;
  Mutex.unlock t.m

let method_call_count t meth =
  Mutex.lock t.m;
  let n = Option.value ~default:0 (Hashtbl.find_opt t.calls meth) in
  Mutex.unlock t.m;
  n

let charged_cost t =
  Mutex.lock t.m;
  let c = t.charged_cost in
  Mutex.unlock t.m;
  c

(* Uniform weights for the structural operations: an object fetch is the
   unit, property reads and probes are cheaper, tuple production cheaper
   still.  Declared method costs are expressed in the same unit. *)
let total_cost t =
  charged_cost t
  +. (1.0 *. float_of_int (get t Objects_fetched))
  +. (0.2 *. float_of_int (get t Property_reads))
  +. (0.5 *. float_of_int (get t Index_probes))
  +. (0.05 *. float_of_int (get t Tuples_produced))

let snapshot t =
  let copy = create () in
  Array.iteri (fun i a -> Atomic.set copy.cells.(i) (Atomic.get a)) t.cells;
  Mutex.lock t.m;
  copy.charged_cost <- t.charged_cost;
  Hashtbl.iter (Hashtbl.replace copy.calls) t.calls;
  Mutex.unlock t.m;
  copy

let fields t fam =
  let field c =
    match spec c with
    | _, f, key, _ when f = fam -> Some (key, get t c)
    | _ -> None
  in
  List.filter_map field all

let pp fam ppf t =
  let line c =
    match spec c with
    | _, f, _, Some label when f = fam -> Some (label, get t c)
    | _ -> None
  in
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list (fun ppf (l, n) -> Format.fprintf ppf "%s: %d" l n))
    (List.filter_map line all)

(* Aliases of [get] under the names the seed-fixed benchmark
   ([perfbench/]) calls, so that harness builds unchanged. *)
let tuples_produced t = get t Tuples_produced
let pages_read t = get t Pages_read
let pool_hits t = get t Pool_hits
let wal_commits t = get t Wal_commits
let wal_fsyncs t = get t Wal_fsyncs
let postings_touched t = get t Postings_touched
let implication_updates t = get t Implication_updates
let stats_deltas t = get t Stats_deltas
