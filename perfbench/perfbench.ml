(* Seed-fixed benchmark workloads for the soqm query engine.

   One executable with four roles, chosen by the first argument.  run.py
   in this directory drives them; see README.md for the workloads and
   the metrics.

     inproc  --workload repeat_mix|fresh_mix --seed N --seconds S
             [--stream K] [--trace-out FILE]
         Build the in-memory database and optimizer [setup_reps] times
         (the set-up), run one untimed warm cycle, then a closed loop of
         [Engine.run_optimized] calls over the seed-determined operation
         sequence for S seconds, in whole cycles, starting [stream_len]
         cycles into the sequence for each step of K.  Every result is
         checked against [Engine.run_naive] after the loop.  With
         --trace-out the loop is split: the first half runs untraced, the
         second half replaces [run_optimized] with its public steps, one
         span each, and the spans are written to FILE at exit.

     prepare --dir DIR
         Generate the serve_rw database and save it to DIR.

     load    --workload serve_rw|serve_w --port P --seed N --seconds S
             --log FILE [--stream K]
         The load generator of the served workloads: two connections,
         one thread each, each a closed loop over its own operation
         sequence, determined by the seed and K.  Logs one line per
         operation to FILE.

     replay  --workload serve_rw|serve_w --seed N --dir DIR --log FILE
             --seconds S --trace-out FILE
         Host the serve_rw database in-process and replay the logged
         operations through Engine, Txn and the Protocol codec: the first
         half untraced, the second half traced.

   Every role prints one JSON object as its last line of output. *)

open Soqm_vml
open Soqm_core
module Exec = Soqm_physical.Exec
module Search = Soqm_optimizer.Search
module Relation = Soqm_algebra.Relation
module Protocol = Soqm_server.Protocol
module Txn = Soqm_txn.Txn
module Maintenance = Soqm_maintenance.Maintenance
module Saturate = Soqm_knowledge.Saturate
module Rulegen = Soqm_knowledge.Rulegen

let now = Unix.gettimeofday

let arg flag default parse =
  let rec go = function
    | f :: v :: _ when String.equal f flag -> parse v
    | _ :: rest -> go rest
    | [] -> default
  in
  go (Array.to_list Sys.argv)

(* ------------------------------------------------------------------ *)
(* Samples and output                                                  *)
(* ------------------------------------------------------------------ *)

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b
let mean l = ratio (sum l) (float_of_int (List.length l))
let ms s = 1000. *. s

type jv = F of float | I of int | L of float list

let emit fields =
  let f x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0" in
  let v = function
    | F x -> f x
    | I i -> string_of_int i
    | L xs -> "[" ^ String.concat ", " (List.map f xs) ^ "]"
  in
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map (fun (k, x) -> Printf.sprintf "\"%s\": %s" k (v x)) fields)
    ^ "}")

(* the high-water mark of this process's resident set, MB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  op : int;  (* the operation the span belongs to *)
  parent : int;  (* -1 for an operation's root span *)
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans = ref []
let next_span = ref 0

(* [span ~op ~parent name f] runs [f id].  While tracing it records the
   span and returns its duration; untraced the duration is 0. *)
let span ?(parent = -1) ~op name f =
  if not !tracing then (f (-1), 0.)
  else begin
    let id = !next_span in
    incr next_span;
    let t0 = now () in
    let x = f id in
    let t1 = now () in
    spans := { id; name; op; parent; t0; t1 } :: !spans;
    (x, t1 -. t0)
  end

let write_spans path =
  if path <> "" then begin
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\": %d, \"name\": \"%s\", \"op\": %d, \"parent\": %d, \
           \"start\": %.6f, \"end\": %.6f}\n"
          s.id s.name s.op s.parent s.t0 s.t1)
      (List.rev !spans);
    close_out oc
  end

(* ------------------------------------------------------------------ *)
(* Query texts                                                         *)
(* ------------------------------------------------------------------ *)

let worked_q word title =
  Printf.sprintf
    "ACCESS p FROM p IN Paragraph WHERE p->contains_string('%s') AND \
     (p->document()).title == '%s'"
    word title

let title_q = Printf.sprintf "ACCESS d FROM d IN Document WHERE d.title == '%s'"

let join_q =
  Printf.sprintf
    "ACCESS [n: s.number, t: d.title] FROM s IN Section, d IN Document WHERE \
     s.document == d AND d.title == '%s'"

let section_q =
  Printf.sprintf "ACCESS s FROM s IN Section WHERE (s.document).title == '%s'"

let dependent_q =
  Printf.sprintf
    "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE \
     p->contains_string('%s')"

let contains_q =
  Printf.sprintf "ACCESS p FROM p IN Paragraph WHERE p->contains_string('%s')"

let large_q = "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500"

(* the titles and words Datagen generates.  Word constants come from the
   rarer part of the vocabulary, w100..w499, whose frequencies lie within
   a factor of two of each other: a frequent word would turn a search-bound
   template into an execution-bound one for that request alone. *)
let doc_title d = if d = 0 then Datagen.query_title else Printf.sprintf "Title %d" d
let n_words = Datagen.default.Datagen.vocab_size - 100
let word_of i = Printf.sprintf "w%d" (100 + i)

(* The corpus is the same for every seed: the seed determines the
   operation sequence, so runs with different seeds differ in what they
   ask, not in the data they ask it of. *)
let corpus n_docs = { Datagen.default with Datagen.n_docs }

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ------------------------------------------------------------------ *)
(* Traced query: Engine.run_optimized split into its public steps      *)
(* ------------------------------------------------------------------ *)

type read_trace = {
  total_s : float;
  parse_s : float;
  search_s : float;
  miss : bool;  (* the first plan-cache lookup missed *)
  variants : int;
  compile_s : float;
  exec_s : float;
  tuples : int;
  rows : int;
  cost : float;
  pages : int;
  pool_hits : int;
}

let traced_query ~db ~engine ~exec ~with_read ~op ~parent text =
  let c = Db.counters db in
  let logical, parse_s =
    span ~parent ~op "vql.logical_of_query" (fun _ ->
        let l = Engine.logical_of_query db text in
        match Engine.safe_to_optimize db l with
        | Ok () -> l
        | Error m -> failwith m)
  in
  (* the first lookup decides hit or miss; the second always hits *)
  let _, misses0 = Engine.cache_stats engine in
  let res, search_s =
    span ~parent ~op "optimizer.optimize" (fun _ -> Engine.optimize engine logical)
  in
  let _, misses1 = Engine.cache_stats engine in
  let (_, compiled), compile_s =
    span ~parent ~op "optimizer.optimize_compiled" (fun _ ->
        Engine.optimize_compiled engine logical)
  in
  let tuples0 = Counters.tuples_produced c
  and cost0 = Counters.total_cost c
  and pages0 = Counters.pages_read c
  and hits0 = Counters.pool_hits c in
  let rel, exec_s =
    with_read (fun () ->
        span ~parent ~op "physical.run_compiled" (fun _ ->
            Exec.run_compiled ~jobs:(Engine.jobs engine) exec compiled))
  in
  ( rel,
    {
      total_s = 0.;
      parse_s;
      search_s;
      miss = misses1 > misses0;
      variants = res.Search.variants_explored;
      compile_s;
      exec_s;
      tuples = Counters.tuples_produced c - tuples0;
      rows = Relation.cardinality rel;
      cost = Counters.total_cost c -. cost0;
      pages = Counters.pages_read c - pages0;
      pool_hits = Counters.pool_hits c - hits0;
    } )

(* per-layer metrics of the traced reads *)
let read_layers traces =
  let f g = List.map g traces in
  let misses = List.filter (fun t -> t.miss) traces in
  let n = float_of_int (List.length traces) in
  let total = sum (f (fun t -> t.total_s)) in
  let fi g = float_of_int (List.fold_left (fun a t -> a + g t) 0 traces) in
  [
    ("vql.parse_ms", F (ms (mean (f (fun t -> t.parse_s)))));
    ("optimizer.search_ms", F (ms (mean (List.map (fun t -> t.search_s) misses))));
    ( "optimizer.variants_per_search",
      F (mean (List.map (fun t -> float_of_int t.variants) misses)) );
    ( "optimizer.cache_hit_ratio",
      F (ratio (n -. float_of_int (List.length misses)) n) );
    ( "optimizer.search_share",
      F (ratio (sum (List.map (fun t -> t.search_s) misses)) total) );
    ("physical.compile_ms", F (ms (mean (f (fun t -> t.compile_s)))));
    ("physical.exec_ms", F (ms (mean (f (fun t -> t.exec_s)))));
    ("physical.exec_share", F (ratio (sum (f (fun t -> t.exec_s))) total));
    ( "physical.tuples_per_result_row",
      F (ratio (fi (fun t -> t.tuples)) (fi (fun t -> t.rows))) );
    ("physical.charged_cost", F (mean (f (fun t -> t.cost))));
    ( "disk.pool_hit_ratio",
      F
        (ratio (fi (fun t -> t.pool_hits))
           (fi (fun t -> t.pool_hits) +. fi (fun t -> t.pages))) );
    ("disk.pages_read_per_read", F (ratio (fi (fun t -> t.pages)) n));
    ("trace.read_ms", F (ms (mean (f (fun t -> t.total_s)))));
    ("trace.reads", I (List.length traces));
    ("trace.misses", I (List.length misses));
  ]

(* ------------------------------------------------------------------ *)
(* In-memory workloads: repeat_mix and fresh_mix                       *)
(* ------------------------------------------------------------------ *)

(* builds per process; the first also grows the fresh heap and only the
   last is reported, so every reported build starts from the same state *)
let setup_reps = 2

(* cycles of the sequence between the starts of consecutive streams: the
   processes of one run each ask a different part of it, and 16 streams
   together walk most of fresh_mix's 200 titles *)
let stream_len = 12

type inmem = {
  n_docs : int;
  generate : Db.t -> Engine.t;
  cycle : int;  (* operations per cycle of the sequence *)
  text : int -> string;  (* the query of the i-th operation *)
  whole_results : bool;  (* check a digest of every result, not only row counts *)
}

(* seven fixed texts in a fixed cyclic order, entered at a
   seed-determined point: after the warm cycle every lookup hits the plan
   cache, so execution dominates.  Keeping the order fixed keeps which
   text follows the allocation-heavy join, and so pays its GC debt, the
   same for every seed. *)
let repeat_mix seed =
  let q = Datagen.query_title and w = Datagen.query_word in
  let texts =
    [|
      worked_q w q; title_q q; large_q; join_q q; contains_q w; section_q q;
      dependent_q w;
    |]
  in
  let n = Array.length texts in
  let start = Random.State.int (Random.State.make [| seed; 1 |]) n in
  {
    n_docs = 800;
    generate = (fun db -> Engine.generate db);
    cycle = n;
    text = (fun i -> texts.((start + i) mod n));
    whole_results = false;
  }

(* five templates whose constants walk seed-determined permutations:
   each template cycles through all titles (words) before repeating one,
   far beyond the plan cache's reach, so the rule search dominates *)
let fresh_mix seed =
  let n_docs = 200 in
  let rng = Random.State.make [| seed; 2 |] in
  let titles = Array.init 5 (fun _ -> permutation rng n_docs) in
  let words = Array.init 5 (fun _ -> permutation rng n_words) in
  let text i =
    let k = i / 5 in
    let t j = doc_title titles.(j).(k mod n_docs) in
    let w j = word_of words.(j).(k mod n_words) in
    match i mod 5 with
    | 0 -> worked_q (w 0) (t 0)
    | 1 -> title_q (t 1)
    | 2 -> join_q (t 2)
    | 3 -> section_q (t 3)
    | _ -> dependent_q (w 4)
  in
  {
    n_docs;
    generate =
      (fun db -> Engine.generate ~extra_specs:(Rulegen.family ()) ~saturate:true db);
    cycle = 5;
    text;
    whole_results = true;
  }

(* what is kept of a result until the check after the timed loop: its
   row count and, for whole-result checks, a digest of its canonical
   (sorted) tuples, so the results themselves do not stay live *)
type outcome = { text : string; card : int; digest : Digest.t option }

let digest rel =
  Digest.string
    (Marshal.to_string (Relation.refs rel, Relation.tuples rel) [ Marshal.No_sharing ])

let inproc () =
  let workload = arg "--workload" "" Fun.id in
  let seed = arg "--seed" 1 int_of_string in
  let seconds = arg "--seconds" 10. float_of_string in
  let stream = arg "--stream" 0 int_of_string in
  let trace_out = arg "--trace-out" "" Fun.id in
  let traced = trace_out <> "" in
  let w =
    match workload with
    | "repeat_mix" -> repeat_mix seed
    | "fresh_mix" -> fresh_mix seed
    | other -> failwith ("unknown in-process workload " ^ other)
  in
  (* set-up, [setup_reps] times, each build started after a full major
     collection has freed the previous one; the last is reported *)
  let build () =
    Gc.full_major ();
    let t0 = now () in
    let db = Db.create ~params:(corpus w.n_docs) () in
    let t1 = now () in
    let engine = w.generate db in
    (db, engine, t1 -. t0, now () -. t0)
  in
  let rec setups k acc =
    let db, engine, create_s, setup_s = build () in
    let acc = (create_s, setup_s) :: acc in
    if k = 1 then (db, engine, acc) else setups (k - 1) acc
  in
  let db, engine, reps = setups setup_reps [] in
  let exec = Engine.exec_ctx db in
  let attempted = ref 0 and failed = ref 0 in
  let outcomes = ref [] in
  let keep (text, rel) =
    outcomes :=
      {
        text;
        card = Relation.cardinality rel;
        digest = (if w.whole_results then Some (digest rel) else None);
      }
      :: !outcomes
  in
  let run_op i =
    let text = w.text i in
    incr attempted;
    match Engine.run_optimized engine text with
    | r -> Some (text, r.Engine.result)
    | exception e ->
      incr failed;
      Printf.eprintf "operation %d failed: %s\n%!" i (Printexc.to_string e);
      None
  in
  let traces = ref [] in
  let traced_op i =
    let text = w.text i in
    incr attempted;
    match
      span ~op:i "read" (fun root ->
          traced_query ~db ~engine ~exec ~with_read:(fun f -> f ()) ~op:i
            ~parent:root text)
    with
    | (rel, t), total_s ->
      traces := { t with total_s } :: !traces;
      Some (text, rel)
    | exception e ->
      incr failed;
      Printf.eprintf "operation %d failed: %s\n%!" i (Printexc.to_string e);
      None
  in
  (* closed loop over whole cycles from operation [first]; returns the
     next operation, the latencies and the cycle durations.  What is kept
     of a result for the check is taken outside the timed call. *)
  let loop ~first ~seconds step =
    let deadline = now () +. seconds in
    let lats = ref [] and cycles = ref [] and i = ref first in
    let cycle_start = ref (now ()) in
    while now () < deadline || (!i - first) mod w.cycle <> 0 do
      let t0 = now () in
      let r = step !i in
      let t1 = now () in
      Option.iter keep r;
      lats := (t1 -. t0) :: !lats;
      incr i;
      if (!i - first) mod w.cycle = 0 then begin
        cycles := (t1 -. !cycle_start) :: !cycles;
        cycle_start := t1
      end
    done;
    (!i, !lats, !cycles)
  in
  (* warm cycle: fills the plan cache of repeat_mix, untimed *)
  let first = w.cycle * (1 + (stream * stream_len)) in
  for i = first - w.cycle to first - 1 do
    Option.iter keep (run_op i)
  done;
  let warm_attempted = !attempted in
  (* the high-water mark is read right after the timed loop, before the
     naive evaluations of the check *)
  let peak_rss = ref 0. in
  let result_fields =
    if not traced then begin
      let _, lats, cycles = loop ~first ~seconds run_op in
      peak_rss := peak_rss_mb ();
      [
        ("span_ops", I w.cycle);
        ("spans_s", L cycles);
        ("read_ms", L (List.map ms lats));
        ("write_ms", L []);
      ]
    end
    else begin
      let next, plain, _ = loop ~first ~seconds:(seconds /. 2.) run_op in
      tracing := true;
      let _, _, _ = loop ~first:next ~seconds:(seconds /. 2.) traced_op in
      tracing := false;
      peak_rss := peak_rss_mb ();
      let layers = read_layers !traces in
      let traced_mean = mean (List.map (fun t -> t.total_s) !traces) in
      (* the saturation the engine ran at set-up, timed again on its own *)
      let saturate_ms =
        match Engine.saturation_stats engine with
        | None -> 0.
        | Some _ ->
          let schema = Object_store.schema db.Db.store in
          let t0 = now () in
          ignore (Saturate.run schema (Engine.declared_specs engine));
          ms (now () -. t0)
      in
      layers
      @ [
          ("trace.overhead_ms", F (ms (traced_mean -. mean plain)));
          ("knowledge.saturate_ms", F saturate_ms);
          ("core.db_create_ms", F (ms (fst (List.hd reps))));
        ]
    end
  in
  let timed_attempted = !attempted - warm_attempted in
  (* output checks, outside set-up and the timed loop: each distinct text
     is evaluated once by the naive evaluator *)
  let expected = Hashtbl.create 64 in
  let mismatches = ref 0 in
  List.iter
    (fun o ->
      let card, d =
        match Hashtbl.find_opt expected o.text with
        | Some e -> e
        | None ->
          let r = (Engine.run_naive db o.text).Engine.result in
          let e = (Relation.cardinality r, digest r) in
          Hashtbl.add expected o.text e;
          e
      in
      let ok =
        o.card = card && match o.digest with Some x -> Digest.equal x d | None -> true
      in
      if not ok then begin
        incr mismatches;
        Printf.eprintf "result mismatch: %s\n%!" o.text
      end)
    !outcomes;
  write_spans trace_out;
  emit
    ([
       ("attempted", I timed_attempted);
       ("failed", I (!failed + !mismatches));
       ("checked", I (List.length !outcomes));
       ("mismatches", I !mismatches);
       ("setups_s", L [ snd (List.hd reps) ]);
       ("peak_rss_mb", F !peak_rss);
       ("rules", I (Engine.rule_count engine));
     ]
    @ result_fields)

(* ------------------------------------------------------------------ *)
(* serve_rw: database, operation sequence, wire client                 *)
(* ------------------------------------------------------------------ *)

let serve_docs = 400
let n_hot = 3  (* hot counters both connections increment *)
let pool_size = 128  (* paragraphs whose word_count one connection writes *)
let max_tries = 100
let warm_ops = 12
let window = 100  (* completions per throughput window *)
let sections_per_doc = Datagen.default.Datagen.sections_per_doc

let prepare () =
  let dir = arg "--dir" "" Fun.id in
  let t0 = now () in
  let db = Db.create ~params:(corpus serve_docs) () in
  let t1 = now () in
  Db.save db dir;
  emit [ ("create_ms", F (ms (t1 -. t0))); ("save_ms", F (ms (now () -. t1))) ]

type serve_op =
  | Title of string
  | Section of string
  | Large
  | Wc of int * int  (* pool index, new word_count *)
  | Counter of int  (* hot counter index *)

let is_read = function Title _ | Section _ | Large -> true | Wc _ | Counter _ -> false

type kind = K_title | K_section | K_large | K_wc | K_counter

(* one connection's operation sequence repeats a fixed pattern of kinds,
   constants and targets drawn from the seed.  serve_rw is half reads
   and half writes, and its large-paragraphs scan is most of its time;
   serve_w has no scan and is three quarters writes, so commits and their
   maintenance dominate.  Each word_count write crosses 500 from the
   value the previous write left, so implication-set and statistics
   maintenance always run. *)
let pattern = function
  | "serve_rw" -> [| K_title; K_wc; K_section; K_counter; K_large; K_wc |]
  | "serve_w" -> [| K_title; K_wc; K_counter; K_wc |]
  | other -> failwith ("unknown served workload " ^ other)

type gen = { kinds : kind array; rng : Random.State.t; mutable k : int; cur : int array }

let gen_create ?(stream = 0) workload seed conn initial =
  {
    kinds = pattern workload;
    rng = Random.State.make [| seed; 3; conn; stream |];
    k = 0;
    cur = Array.copy initial;
  }

let next_op g =
  let kind = g.kinds.(g.k mod Array.length g.kinds) in
  g.k <- g.k + 1;
  let title () = doc_title (Random.State.int g.rng serve_docs) in
  match kind with
  | K_title -> Title (title ())
  | K_section -> Section (title ())
  | K_counter -> Counter (Random.State.int g.rng n_hot)
  | K_large -> Large
  | K_wc ->
    let i = Random.State.int g.rng pool_size in
    let v =
      if g.cur.(i) > 500 then 20 + Random.State.int g.rng 400
      else 501 + Random.State.int g.rng 499
    in
    g.cur.(i) <- v;
    Wc (i, v)

(* hot counters and the two write pools, from the paragraph extent *)
let assign seed paras =
  let paras = Array.copy paras in
  Array.sort (fun a b -> compare (Oid.id a) (Oid.id b)) paras;
  let perm = permutation (Random.State.make [| seed; 4 |]) (Array.length paras) in
  let hot = Array.init n_hot (fun i -> paras.(perm.(i))) in
  let pool c = Array.init pool_size (fun i -> paras.(perm.(n_hot + (c * pool_size) + i))) in
  (hot, [| pool 0; pool 1 |])

type client = {
  rt : Protocol.request -> Protocol.response;
  hot : Oid.t array;
  pool : Oid.t array;
  acked : int array;  (* last acknowledged word_count per pool entry *)
  committed : int array;  (* committed increments per hot counter *)
  mutable frames : int;
  mutable conflicts : int;
}

let send cl req =
  cl.frames <- cl.frames + 1;
  cl.rt req

let rows_are n = function
  | Protocol.Rows (_, rows) -> n < 0 || List.length rows = n
  | _ -> false

(* one operation over [cl.rt]; [false] on a wrong answer, an [Error] or
   exhausted retries *)
let client_op cl op =
  match op with
  | Title t -> rows_are 1 (send cl (Protocol.Query (title_q t)))
  | Section t -> rows_are sections_per_doc (send cl (Protocol.Query (section_q t)))
  | Large -> rows_are (-1) (send cl (Protocol.Query large_q))
  | Wc (i, v) -> (
    match send cl (Protocol.Update (cl.pool.(i), "word_count", Value.Int v)) with
    | Protocol.Committed _ ->
      cl.acked.(i) <- v;
      true
    | _ -> false)
  | Counter k ->
    let oid = cl.hot.(k) in
    let abort () = ignore (send cl Protocol.Abort) in
    let rec attempt tries =
      tries < max_tries
      &&
      match send cl Protocol.Begin with
      | Protocol.Started _ -> (
        match send cl (Protocol.Get (oid, "number")) with
        | Protocol.Value (Value.Int v) -> (
          match send cl (Protocol.Update (oid, "number", Value.Int (v + 1))) with
          | Protocol.Done -> (
            match send cl Protocol.Commit with
            | Protocol.Committed _ ->
              cl.committed.(k) <- cl.committed.(k) + 1;
              true
            | Protocol.Conflict _ ->
              cl.conflicts <- cl.conflicts + 1;
              attempt (tries + 1)
            | _ -> false)
          | _ ->
            abort ();
            false)
        | _ ->
          abort ();
          false)
      | _ -> false
    in
    attempt 0

let int_value = function Protocol.Value (Value.Int v) -> v | _ -> min_int

type logged = {
  conn : int;
  idx : int;
  warm : bool;
  start : float;
  lat : float;
  nframes : int;
  nconflicts : int;
  ok : bool;
  read : bool;
}

(* ------------------------------------------------------------------ *)
(* serve_rw load generator                                             *)
(* ------------------------------------------------------------------ *)

let load () =
  let port = arg "--port" 0 int_of_string in
  let seed = arg "--seed" 1 int_of_string in
  let seconds = arg "--seconds" 10. float_of_string in
  let log_path = arg "--log" "" Fun.id in
  let stream = arg "--stream" 0 int_of_string in
  let workload = arg "--workload" "serve_rw" Fun.id in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fds = Array.init 2 (fun _ -> Protocol.connect ~port ()) in
  let rt0 = Protocol.roundtrip fds.(0) in
  let paras =
    match rt0 (Protocol.Extent "Paragraph") with
    | Protocol.Oids l -> Array.of_list l
    | _ -> failwith "Extent Paragraph failed"
  in
  let hot, pools = assign seed paras in
  let get oid prop = int_value (rt0 (Protocol.Get (oid, prop))) in
  let hot0 = Array.map (fun o -> get o "number") hot in
  let clients =
    Array.init 2 (fun c ->
        let initial = Array.map (fun o -> get o "word_count") pools.(c) in
        ( {
            rt = Protocol.roundtrip fds.(c);
            hot;
            pool = pools.(c);
            acked = initial;
            committed = Array.make n_hot 0;
            frames = 0;
            conflicts = 0;
          },
          gen_create ~stream workload seed c initial ))
  in
  let logs = Array.make 2 [] in
  let step c ~warm =
    let cl, g = clients.(c) in
    let op = next_op g in
    let f0 = cl.frames and c0 = cl.conflicts in
    let t0 = now () in
    let ok = try client_op cl op with _ -> false in
    let lat = now () -. t0 in
    logs.(c) <-
      {
        conn = c;
        idx = g.k - 1;
        warm;
        start = t0;
        lat;
        nframes = cl.frames - f0;
        nconflicts = cl.conflicts - c0;
        ok;
        read = is_read op;
      }
      :: logs.(c)
  in
  (* warm pass, untimed: every operation kind on both connections *)
  for c = 0 to 1 do
    for _ = 1 to warm_ops do
      step c ~warm:true
    done
  done;
  let t_start = now () in
  let deadline = t_start +. seconds in
  let drive c =
    while now () < deadline do
      step c ~warm:false
    done
  in
  let threads = Array.init 2 (fun c -> Thread.create drive c) in
  Array.iter Thread.join threads;
  (* checks: counters equal their committed increments, word counts
     their last acknowledged write *)
  let mismatches = ref 0 in
  let expect v e = if v <> e then incr mismatches in
  Array.iteri
    (fun k o ->
      let total = Array.fold_left (fun a (cl, _) -> a + cl.committed.(k)) 0 clients in
      expect (get o "number") (hot0.(k) + total))
    hot;
  Array.iter
    (fun (cl, _) -> Array.iteri (fun i o -> expect (get o "word_count") cl.acked.(i)) cl.pool)
    clients;
  Array.iter Unix.close fds;
  let all = List.rev_append logs.(0) logs.(1) in
  if log_path <> "" then begin
    let oc = open_out log_path in
    List.iter
      (fun l ->
        Printf.fprintf oc "%d %d %b %.6f %.9f %d %d\n" l.conn l.idx l.warm l.start
          l.lat l.nframes l.nconflicts)
      all;
    close_out oc
  end;
  let timed = List.filter (fun l -> not l.warm) all in
  let lats keep = List.filter_map (fun l -> if keep l then Some l.lat else None) timed in
  let reads = lats (fun l -> l.read) and writes = lats (fun l -> not l.read) in
  let n = List.length timed in
  let failed = List.length (List.filter (fun l -> not l.ok) all) in
  (* durations of windows of [window] consecutive completions *)
  let done_at =
    Array.of_list (List.sort compare (List.map (fun l -> l.start +. l.lat) timed))
  in
  let spans =
    List.init
      (max 0 ((Array.length done_at - 1) / window))
      (fun k -> done_at.((k + 1) * window) -. done_at.(k * window))
  in
  emit
    [
      ("attempted", I n);
      ("span_ops", I window);
      ("spans_s", L spans);
      ("read_ms", L (List.map ms reads));
      ("write_ms", L (List.map ms writes));
      ("failed", I (failed + !mismatches));
      ("mismatches", I !mismatches);
      ("reads", I (List.length reads));
      ("writes", I (List.length writes));
      ( "conflicts",
        I (Array.fold_left (fun a (cl, _) -> a + cl.conflicts) 0 clients) );
    ]

(* ------------------------------------------------------------------ *)
(* serve_rw in-process replay                                          *)
(* ------------------------------------------------------------------ *)

let read_log path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line ->
      let l =
        Scanf.sscanf line "%d %d %B %f %f %d %d"
          (fun conn idx warm start lat nframes nconflicts ->
            { conn; idx; warm; start; lat; nframes; nconflicts; ok = true; read = false })
      in
      go (l :: acc)
    | exception End_of_file -> acc
  in
  let l = go [] in
  close_in ic;
  l

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let rows_of_relation r =
  let refs = Relation.refs r in
  ( refs,
    List.map
      (fun tup ->
        List.map (fun name -> Option.value ~default:Value.Null (List.assoc_opt name tup)) refs)
      (Relation.tuples r) )

let replay () =
  let seed = arg "--seed" 1 int_of_string in
  let dir = arg "--dir" "" Fun.id in
  let seconds = arg "--seconds" 10. float_of_string in
  let trace_out = arg "--trace-out" "" Fun.id in
  let workload = arg "--workload" "serve_rw" Fun.id in
  let log = read_log (arg "--log" "" Fun.id) in
  (* host the database as [soqm serve --db] does *)
  let t0 = now () in
  let db = Db.open_disk ~jobs:1 dir in
  let open_ms = ms (now () -. t0) in
  let mgr = Txn.manager db in
  Txn.set_group_window mgr 0.002;
  let engine = Engine.generate db in
  let exec = Engine.exec_ctx db in
  let c = Db.counters db in
  let paras = Array.of_list (Object_store.extent db.Db.store "Paragraph") in
  let hot, pools = assign seed paras in
  let peek o p =
    match Object_store.peek_prop db.Db.store o p with Value.Int v -> v | _ -> min_int
  in
  (* the operation of the current frame, for span attribution *)
  let cur_op = ref 0 and cur_root = ref (-1) in
  let reads = ref [] and commits = ref [] in
  let codec_s = ref 0. and frames = ref 0 in
  let commit txn =
    let r, d = span ~parent:!cur_root ~op:!cur_op "txn.commit" (fun _ -> Txn.commit txn) in
    if !tracing then commits := d :: !commits;
    match r with
    | Ok ts -> Protocol.Committed ts
    | Error (`Conflict reason) -> Protocol.Conflict reason
  in
  (* [Session.handle] for the requests the sequence sends, one span per
     layer call *)
  let handle txn_slot (req : Protocol.request) : Protocol.response =
    match (req, !txn_slot) with
    | Protocol.Query src, _ ->
      let rel, t =
        traced_query ~db ~engine ~exec ~with_read:(Txn.with_read mgr) ~op:!cur_op
          ~parent:!cur_root src
      in
      if !tracing then reads := t :: !reads;
      let refs, rows = rows_of_relation rel in
      Protocol.Rows (refs, rows)
    | Protocol.Begin, None ->
      let txn = Txn.begin_ mgr in
      txn_slot := Some txn;
      Protocol.Started (Txn.begin_ts txn)
    | Protocol.Get (oid, prop), Some txn -> Protocol.Value (Txn.get_prop txn oid prop)
    | Protocol.Update (oid, prop, v), Some txn ->
      Txn.set_prop txn oid prop v;
      Protocol.Done
    | Protocol.Update (oid, prop, v), None ->
      let txn = Txn.begin_ mgr in
      Txn.set_prop txn oid prop v;
      commit txn
    | Protocol.Commit, Some txn ->
      txn_slot := None;
      commit txn
    | Protocol.Abort, Some txn ->
      txn_slot := None;
      Txn.abort txn;
      Protocol.Done
    | _ -> Protocol.Error "request not used by the sequence"
  in
  (* one frame through the codec both ways, as the server and client do *)
  let frame txn_slot req =
    let req, d1 =
      span ~parent:!cur_root ~op:!cur_op "server.decode_request" (fun _ ->
          Protocol.decode_request (Protocol.encode_request req))
    in
    let resp = handle txn_slot req in
    let resp, d2 =
      span ~parent:!cur_root ~op:!cur_op "server.encode_response" (fun _ ->
          Protocol.decode_response (Protocol.encode_response resp))
    in
    if !tracing then begin
      codec_s := !codec_s +. d1 +. d2;
      frames := !frames + 2
    end;
    resp
  in
  let clients =
    Array.init 2 (fun conn ->
        let initial = Array.map (fun o -> peek o "word_count") pools.(conn) in
        let slot = ref None in
        ( {
            rt = frame slot;
            hot;
            pool = pools.(conn);
            acked = initial;
            committed = Array.make n_hot 0;
            frames = 0;
            conflicts = 0;
          },
          gen_create workload seed conn initial ))
  in
  (* regenerate each connection's operations in order, then replay all
     of them in the order the live run started them *)
  let by_conn conn =
    List.sort (fun a b -> compare a.idx b.idx) (List.filter (fun l -> l.conn = conn) log)
  in
  let ops =
    List.concat_map
      (fun conn ->
        let _, g = clients.(conn) in
        List.map (fun l -> (l, next_op g)) (by_conn conn))
      [ 0; 1 ]
    |> List.sort (fun (a, _) (b, _) -> compare a.start b.start)
  in
  let epoch () = match Db.maintenance db with Some m -> Maintenance.epoch m | None -> 0 in
  let epoch0 = epoch () in
  let run (l, op) =
    let cl, _ = clients.(l.conn) in
    cur_op := (l.conn * 1_000_000) + l.idx;
    let ok, d =
      span ~op:!cur_op "operation" (fun root ->
          cur_root := root;
          try client_op cl op with _ -> false)
    in
    if not ok then failwith "replayed operation failed";
    (match !reads with
    | t :: rest when !tracing && is_read op -> reads := { t with total_s = d } :: rest
    | _ -> ());
    d
  in
  let warm, timed = List.partition (fun (l, _) -> l.warm) ops in
  List.iter (fun o -> ignore (run o)) warm;
  (* the first half of the timed operations replays untraced, the second
     half traced; each phase stops early after [seconds /. 2.] *)
  let phase ops =
    let deadline = now () +. (seconds /. 2.) in
    let rec go acc = function
      | o :: rest when now () < deadline ->
        let t0 = now () in
        let d = run o in
        let wall = now () -. t0 in
        go ((o, if !tracing then d else wall) :: acc) rest
      | _ -> List.rev acc
    in
    go [] ops
  in
  let half = List.length timed / 2 in
  let plain = phase (List.filteri (fun i _ -> i < half) timed) in
  let wal = Filename.concat dir "wal" in
  let count () =
    [|
      Counters.postings_touched c; Counters.implication_updates c;
      Counters.stats_deltas c; Counters.wal_commits c; Counters.wal_fsyncs c;
      file_size wal;
    |]
  in
  let before = count () in
  tracing := true;
  let traced = phase (List.filteri (fun i _ -> i >= half) timed) in
  tracing := false;
  let delta = Array.map2 ( - ) (count ()) before in
  let epoch_bumps = epoch () - epoch0 in
  Db.close db;
  write_spans trace_out;
  let per_write i =
    let writes = List.filter (fun ((_, op), _) -> not (is_read op)) traced in
    ratio (float_of_int delta.(i)) (float_of_int (List.length writes))
  in
  let per_commit i = ratio (float_of_int delta.(i)) (float_of_int delta.(3)) in
  let mean_lat l = mean (List.map snd l) in
  let live_mean l = mean (List.map (fun ((l, _), _) -> l.lat) l) in
  let counter_ops =
    List.filter (fun (_, op) -> match op with Counter _ -> true | _ -> false) timed
  in
  let conflicts = sum (List.map (fun (l, _) -> float_of_int l.nconflicts) counter_ops) in
  let live_frames = sum (List.map (fun (l, _) -> float_of_int l.nframes) timed) in
  emit
    ([
       ("attempted", I (List.length plain + List.length traced));
       ("failed", I 0);
       ("disk.open_ms", F open_ms);
       ("maintenance.postings_per_write", F (per_write 0));
       ("maintenance.implication_updates_per_write", F (per_write 1));
       ("maintenance.stats_deltas_per_write", F (per_write 2));
       ("maintenance.epoch_bumps", I epoch_bumps);
       ("txn.commit_ms", F (ms (mean !commits)));
       ( "txn.conflict_ratio",
         F (ratio conflicts (conflicts +. float_of_int (List.length counter_ops))) );
       ("disk.fsyncs_per_commit", F (per_commit 4));
       ("disk.wal_bytes_per_commit", F (per_commit 5));
       ("server.codec_us_per_frame", F (1e6 *. ratio !codec_s (float_of_int !frames)));
       ("server.frames_per_op", F (ratio live_frames (float_of_int (List.length timed))));
       ("server.gap_ms", F (ms (live_mean plain -. mean_lat plain)));
       ("trace.overhead_ms", F (ms (mean_lat traced -. mean_lat plain)));
       ("trace.writes", I (List.length traced - List.length !reads));
     ]
    @ read_layers !reads)

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "inproc" -> inproc ()
  | "prepare" -> prepare ()
  | "load" -> load ()
  | "replay" -> replay ()
  | _ ->
    prerr_endline "usage: perfbench (inproc|prepare|load|replay) [options]";
    exit 2
