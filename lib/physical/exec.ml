open Soqm_vml
open Soqm_algebra

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type ctx = {
  store : Object_store.t;
  hash_indexes : Soqm_storage.Hash_index.t list;
  sorted_indexes : Soqm_storage.Sorted_index.t list;
  scan_cost : cls:string -> (int * int) option;
}

let basic_ctx store =
  {
    store;
    hash_indexes = [];
    sorted_indexes = [];
    scan_cost = (fun ~cls:_ -> None);
  }

let find_index cls_of prop_of ~cls ~prop =
  List.find_opt (fun i ->
      String.equal (cls_of i) cls && String.equal (prop_of i) prop)

let hash_index ctx =
  find_index Soqm_storage.Hash_index.cls Soqm_storage.Hash_index.prop
    ctx.hash_indexes

let sorted_index ctx =
  find_index Soqm_storage.Sorted_index.cls Soqm_storage.Sorted_index.prop
    ctx.sorted_indexes

let counters ctx = Object_store.counters ctx.store

let eval_cmp c x y =
  try Runtime.eval_binop (Restricted.cmp_to_binop c) x y
  with Runtime.Error msg -> error "%s" msg

let eval_op op (vs : Value.t list) =
  match op, vs with
  | Restricted.OpBin b, [ x; y ] -> (
    try Runtime.eval_binop b x y with Runtime.Error msg -> error "%s" msg)
  | Restricted.OpNot, [ Value.Bool b ] -> Value.Bool (not b)
  | Restricted.OpNot, [ v ] -> error "NOT on non-boolean %s" (Value.to_string v)
  | Restricted.OpIdent, [ v ] -> v
  | Restricted.OpTuple labels, vs when List.length labels = List.length vs ->
    Value.tuple (List.map2 (fun l v -> (l, v)) labels vs)
  | Restricted.OpSet, vs -> Value.set vs
  | _ -> error "operator arity mismatch in physical plan"

let memoized1 f =
  let memo = Hashtbl.create 64 in
  fun key ->
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v = f key in
      Hashtbl.replace memo key v;
      v

(* ------------------------------------------------------------------ *)
(* Batch path: rows are [Value.t array]s indexed by compile-time       *)
(* slots, produced a block at a time.  The per-row loops below do      *)
(* integer indexing and array blits only — every name was resolved     *)
(* when the plan was compiled.                                         *)
(* ------------------------------------------------------------------ *)

(* 128 rows per block: the largest power of two for which a block's
   backing array (rows + header) still fits OCaml's minor heap
   allocation limit (Max_young_wosize = 256 words).  Bigger blocks are
   allocated directly on the major heap, where every stored row pointer
   pays a write barrier and the block itself drives major-GC marking —
   measured at 2-3x the per-row cost of the whole kernel. *)
let block_size = 128

type biter = {
  next_block : unit -> Relation.Row.t array option;
  close_blocks : unit -> unit;
}

type node_stats = {
  node_rows : int array;
  node_blocks : int array;
  node_morsels : int array;
  node_partitions : int array;
  node_pages : int array;
  node_bytes : int array;
}

let make_stats c =
  let n = Plan.node_count c in
  {
    node_rows = Array.make n 0;
    node_blocks = Array.make n 0;
    node_morsels = Array.make n 0;
    node_partitions = Array.make n 0;
    node_pages = Array.make n 0;
    node_bytes = Array.make n 0;
  }

(* -- row kernels ---------------------------------------------------- *)

let insert_row (row : Value.t array) at v =
  let w = Array.length row in
  let out = Array.make (w + 1) v in
  Array.blit row 0 out 0 at;
  Array.blit row at out (at + 1) (w - at);
  out

(* [Array.make] + [Array.blit] cost ~30ns per row (C calls), an order of
   magnitude more than the cons cells the interpreted executor allocates
   inline.  Since every operator's input width is fixed at compile time,
   the hot small widths are specialized to array literals — inline
   allocation with initializing stores, no write barrier — and only wide
   rows fall back to the generic blit path. *)
let make_inserter ~at ~width : Relation.Row.t -> Value.t -> Relation.Row.t =
  match width, at with
  | 0, _ -> fun _ v -> [| v |]
  | 1, 0 -> fun r v -> [| v; r.(0) |]
  | 1, _ -> fun r v -> [| r.(0); v |]
  | 2, 0 -> fun r v -> [| v; r.(0); r.(1) |]
  | 2, 1 -> fun r v -> [| r.(0); v; r.(1) |]
  | 2, _ -> fun r v -> [| r.(0); r.(1); v |]
  | 3, 0 -> fun r v -> [| v; r.(0); r.(1); r.(2) |]
  | 3, 1 -> fun r v -> [| r.(0); v; r.(1); r.(2) |]
  | 3, 2 -> fun r v -> [| r.(0); r.(1); v; r.(2) |]
  | 3, _ -> fun r v -> [| r.(0); r.(1); r.(2); v |]
  | 4, 0 -> fun r v -> [| v; r.(0); r.(1); r.(2); r.(3) |]
  | 4, 1 -> fun r v -> [| r.(0); v; r.(1); r.(2); r.(3) |]
  | 4, 2 -> fun r v -> [| r.(0); r.(1); v; r.(2); r.(3) |]
  | 4, 3 -> fun r v -> [| r.(0); r.(1); r.(2); v; r.(3) |]
  | 4, _ -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); v |]
  | 5, 0 -> fun r v -> [| v; r.(0); r.(1); r.(2); r.(3); r.(4) |]
  | 5, 1 -> fun r v -> [| r.(0); v; r.(1); r.(2); r.(3); r.(4) |]
  | 5, 2 -> fun r v -> [| r.(0); r.(1); v; r.(2); r.(3); r.(4) |]
  | 5, 3 -> fun r v -> [| r.(0); r.(1); r.(2); v; r.(3); r.(4) |]
  | 5, 4 -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); v; r.(4) |]
  | 5, _ -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); r.(4); v |]
  | 6, 0 -> fun r v -> [| v; r.(0); r.(1); r.(2); r.(3); r.(4); r.(5) |]
  | 6, 1 -> fun r v -> [| r.(0); v; r.(1); r.(2); r.(3); r.(4); r.(5) |]
  | 6, 2 -> fun r v -> [| r.(0); r.(1); v; r.(2); r.(3); r.(4); r.(5) |]
  | 6, 3 -> fun r v -> [| r.(0); r.(1); r.(2); v; r.(3); r.(4); r.(5) |]
  | 6, 4 -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); v; r.(4); r.(5) |]
  | 6, 5 -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); r.(4); v; r.(5) |]
  | 6, _ -> fun r v -> [| r.(0); r.(1); r.(2); r.(3); r.(4); r.(5); v |]
  | _ -> fun r v -> insert_row r at v

(* Replay a signed merge plan: [i >= 0] copies [l.(i)], [i < 0] copies
   [r.(-i - 1)] — see {!Relation.Layout.merge_plan}. *)
let merge_rows (plan : int array) (l : Value.t array) (r : Value.t array) =
  let w = Array.length plan in
  let out = Array.make w Value.Null in
  for i = 0 to w - 1 do
    let s = plan.(i) in
    out.(i) <- (if s >= 0 then l.(s) else r.(-s - 1))
  done;
  out

(* One side-resolved getter per output slot; widths up to 4 build the
   merged row as a literal. *)
let make_merger (plan : int array) =
  let g s : Relation.Row.t -> Relation.Row.t -> Value.t =
    if s >= 0 then fun l _ -> l.(s)
    else
      let j = -s - 1 in
      fun _ r -> r.(j)
  in
  match Array.map g plan with
  | [| a |] -> fun l r -> [| a l r |]
  | [| a; b |] -> fun l r -> [| a l r; b l r |]
  | [| a; b; c |] -> fun l r -> [| a l r; b l r; c l r |]
  | [| a; b; c; d |] -> fun l r -> [| a l r; b l r; c l r; d l r |]
  | [| a; b; c; d; e |] -> fun l r -> [| a l r; b l r; c l r; d l r; e l r |]
  | [| a; b; c; d; e; f |] ->
    fun l r -> [| a l r; b l r; c l r; d l r; e l r; f l r |]
  | [| a; b; c; d; e; f; g |] ->
    fun l r -> [| a l r; b l r; c l r; d l r; e l r; f l r; g l r |]
  | [| a; b; c; d; e; f; g; h |] ->
    fun l r -> [| a l r; b l r; c l r; d l r; e l r; f l r; g l r; h l r |]
  | _ -> fun l r -> merge_rows plan l r

let copy_row (srcs : int array) (row : Value.t array) =
  let w = Array.length srcs in
  if w = 0 then [||]
  else begin
    let out = Array.make w Value.Null in
    for i = 0 to w - 1 do
      out.(i) <- row.(srcs.(i))
    done;
    out
  end

let make_copier (srcs : int array) : Relation.Row.t -> Relation.Row.t =
  match srcs with
  | [||] -> fun _ -> [||]
  | [| a |] -> fun r -> [| r.(a) |]
  | [| a; b |] -> fun r -> [| r.(a); r.(b) |]
  | [| a; b; c |] -> fun r -> [| r.(a); r.(b); r.(c) |]
  | [| a; b; c; d |] -> fun r -> [| r.(a); r.(b); r.(c); r.(d) |]
  | [| a; b; c; d; e |] -> fun r -> [| r.(a); r.(b); r.(c); r.(d); r.(e) |]
  | [| a; b; c; d; e; f |] ->
    fun r -> [| r.(a); r.(b); r.(c); r.(d); r.(e); r.(f) |]
  | [| a; b; c; d; e; f; g |] ->
    fun r -> [| r.(a); r.(b); r.(c); r.(d); r.(e); r.(f); r.(g) |]
  | [| a; b; c; d; e; f; g; h |] ->
    fun r -> [| r.(a); r.(b); r.(c); r.(d); r.(e); r.(f); r.(g); r.(h) |]
  | _ -> fun r -> copy_row srcs r

(* Growable row buffer for kernels whose output cardinality is not
   known up front (joins, flattens). *)
module Rowbuf = struct
  type t = { mutable rows : Relation.Row.t array; mutable n : int }

  let create () = { rows = Array.make 64 [||]; n = 0 }

  let push b row =
    let cap = Array.length b.rows in
    if b.n = cap then begin
      let grown = Array.make (2 * cap) [||] in
      Array.blit b.rows 0 grown 0 b.n;
      b.rows <- grown
    end;
    b.rows.(b.n) <- row;
    b.n <- b.n + 1

  let contents b =
    if b.n = Array.length b.rows then b.rows else Array.sub b.rows 0 b.n
end

let slot_getter = function
  | Plan.SSlot i -> fun (row : Value.t array) -> row.(i)
  | Plan.SConst v -> fun _ -> v

let receiver_getter = function
  | Plan.RSlot i -> fun (row : Value.t array) -> row.(i)
  | Plan.RClassObj c ->
    let v = Value.Cls c in
    fun _ -> v

(* Build the operand list of a row without intermediate arrays. *)
let args_of getters (row : Relation.Row.t) =
  let rec go i =
    if i >= Array.length getters then [] else getters.(i) row :: go (i + 1)
  in
  go 0

(* Specialize an operator application at open time: the common arities
   dispatch straight to the kernel, skipping per-row operand lists. *)
let op_applier op (args : Plan.slot_operand array) : Relation.Row.t -> Value.t =
  let getters = Array.map slot_getter args in
  match op, getters with
  | Restricted.OpIdent, [| g |] -> g
  | Restricted.OpBin b, [| gx; gy |] ->
    fun row -> (
      try Runtime.eval_binop b (gx row) (gy row)
      with Runtime.Error msg -> error "%s" msg)
  | _ -> fun row -> eval_op op (args_of getters row)

(* -- row work, written once ------------------------------------------ *)

(* Memo tables for property reads and method calls, handed out per
   worker: [memo f ~w] is worker [w]'s memoized [f].  The block driver
   runs as worker 0 on one table per operator; the morsel scheduler must
   not share a table across domains, so each worker gets its own.  The
   result rows are unaffected — only the property-read / method-call
   tallies may exceed the serial run's (each worker warms its own
   cache). *)
type memoizer = { memo : 'a 'b. ('a -> 'b) -> w:int -> 'a -> 'b }

let shared_memo = { memo = (fun f -> let m = memoized1 f in fun ~w:_ -> m) }

let per_worker_memo jobs =
  {
    memo =
      (fun f ->
        let ms = Array.init (max 1 jobs) (fun _ -> memoized1 f) in
        fun ~w -> ms.(w));
  }

let prop_access ctx (mk : memoizer) p =
  mk.memo (fun rv ->
      try Runtime.access ctx.store rv p
      with Runtime.Error msg -> error "%s" msg)

(* Registers are plain rows, so a method call reads its receiver and
   arguments the same way from either. *)
let method_call ctx (mk : memoizer) m recv args :
    w:int -> Relation.Row.t -> Value.t =
  let grecv = receiver_getter recv in
  let getters = Array.map slot_getter args in
  let call =
    mk.memo (fun (rv, avs) ->
        try Runtime.invoke ctx.store rv m avs
        with Runtime.Error msg -> error "%s" msg)
  in
  fun ~w ->
    let call = call ~w in
    fun row -> call (grecv row, args_of getters row)

(* Rejection marker returned by row functions for a dropped row: a
   private one-slot array, physically distinct from every row a kernel
   emits (including the zero-width rows of [Unit] and empty
   projections).  Returning it instead of [None] keeps the surviving-row
   path free of option boxing. *)
let rejected : Relation.Row.t = [| Value.Null |]

(* The row loop of every 1:1 or row-dropping operator (fused kernels,
   dedup, diff): [f row] is the output row,
   or [rejected].  Survivors fill one [hi - lo] buffer, trimmed only when
   something was dropped; pass-through operators reuse their input
   rows. *)
let keep_rows (f : Relation.Row.t -> Relation.Row.t)
    (rows : Relation.Row.t array) lo hi =
  let n = hi - lo in
  let buf = Array.make n [||] in
  let k = ref 0 in
  for i = lo to hi - 1 do
    let out = f rows.(i) in
    if out != rejected then begin
      buf.(!k) <- out;
      incr k
    end
  done;
  if !k = n then buf else Array.sub buf 0 !k

(* The row loop of every 1:n operator (flattens, join probes): one
   output row [out row x] per partner [x] in [items row], in list
   order. *)
let expand_rows (items : Relation.Row.t -> 'a list)
    (out : Relation.Row.t -> 'a -> Relation.Row.t) (rows : Relation.Row.t array)
    lo hi =
  let acc = Rowbuf.create () in
  for i = lo to hi - 1 do
    let row = rows.(i) in
    List.iter (fun x -> Rowbuf.push acc (out row x)) (items row)
  done;
  Rowbuf.contents acc

let set_members = function
  | Value.Set members -> members
  | Value.Null -> []
  | v -> error "flat operator produced non-set %s" (Value.to_string v)

(* A scan's row work: rows for the head of [xs] until [buf] is full;
   returns the count and the rest of the list.  Scans walk their result
   list, so the extent is never materialized as one big (major-heap)
   array. *)
let scan_fill (row : 'a -> Relation.Row.t) xs (buf : Relation.Row.t array) =
  let cap = Array.length buf in
  let rec take k = function
    | x :: rest when k < cap ->
      buf.(k) <- row x;
      take (k + 1) rest
    | rest -> (k, rest)
  in
  take 0 xs

type cursor = { mutable li : int; mutable ri : int }

(* The nested loop's row work: advance the (left row, right row) cursor
   over [lrows.(..hi-1)] x [rrows], writing kept merged pairs into [buf]
   from index [k] until it is full or the left rows run out; returns the
   fill count.  The cursor lets the block driver resume mid-left-row, so
   no per-left-block cross product is ever materialized. *)
let nested_fill merged_of keep (rrows : Relation.Row.t array)
    (lrows : Relation.Row.t array) hi cur (buf : Relation.Row.t array) k =
  let nr = Array.length rrows and cap = Array.length buf in
  let k = ref k in
  while !k < cap && cur.li < hi do
    if cur.ri >= nr then begin
      cur.li <- cur.li + 1;
      cur.ri <- 0
    end
    else begin
      let merged = merged_of lrows.(cur.li) rrows.(cur.ri) in
      cur.ri <- cur.ri + 1;
      if keep merged then begin
        buf.(!k) <- merged;
        incr k
      end
    end
  done;
  !k

(* First-occurrence dedup, keyed by the one kept value (no per-row key
   array) or by the copied row: [first_occurrence srcs ()] is a fresh
   filter mapping a row to its projection the first time that projection
   appears and to [rejected] afterwards. *)
let first_occurrence (srcs : int array) :
    unit -> Relation.Row.t -> Relation.Row.t =
  match srcs with
  | [| i |] ->
    fun () ->
      let seen = Hashtbl.create 256 in
      fun row ->
        let v = row.(i) in
        if Hashtbl.mem seen v then rejected
        else begin
          (* [add], not [replace]: the membership check just ran, so
             the cheaper no-search insert is safe *)
          Hashtbl.add seen v ();
          [| v |]
        end
  | _ ->
    let proj = make_copier srcs in
    fun () ->
      let seen = Relation.RowTbl.create 256 in
      fun row ->
        let projected = proj row in
        if Relation.RowTbl.mem seen projected then rejected
        else begin
          Relation.RowTbl.add seen projected ();
          projected
        end

(* Join build row work: bucket the build rows by key, match lists in
   build-input order (reverse iteration + prepend), the table sized to
   the build side up front (growing rehashes every entry, roughly
   doubling build cost).  Single-column keys are the [Value.t] itself;
   equi-join keys skip [Null] (DESIGN.md §7). *)
let find_values tbl key = Option.value ~default:[] (Hashtbl.find_opt tbl key)

let find_rows tbl key =
  Option.value ~default:[] (Relation.RowTbl.find_opt tbl key)

let bucket_values ~skip_null slot (rows : Relation.Row.t array) =
  let tbl = Hashtbl.create (max 16 (Array.length rows)) in
  for i = Array.length rows - 1 downto 0 do
    let row = rows.(i) in
    match row.(slot) with
    | Value.Null when skip_null -> ()
    | key -> Hashtbl.replace tbl key (row :: find_values tbl key)
  done;
  tbl

let bucket_rows key (rows : Relation.Row.t array) =
  let tbl = Relation.RowTbl.create (max 16 (Array.length rows)) in
  for i = Array.length rows - 1 downto 0 do
    let row = rows.(i) in
    let k = key row in
    Relation.RowTbl.replace tbl k (row :: find_rows tbl k)
  done;
  tbl

let row_set (rows : Relation.Row.t array) =
  let tbl = Relation.RowTbl.create (max 16 (Array.length rows)) in
  Array.iter (fun row -> Relation.RowTbl.replace tbl row ()) rows;
  tbl

(* Probe-side lookup over the build tables: a lone table (the block
   driver, or a build side under one morsel) is read directly, with no
   per-row hash; partitioned tables are picked by the key's hash. *)
let lookup_in tables hash find =
  match tables with
  | [| t |] -> find t
  | _ ->
    let mask = Array.length tables - 1 in
    fun key -> find tables.(hash key land mask) key

(* -- fused kernels --------------------------------------------------- *)

(* Compile a fused chain's steps into per-row register kernels: each
   step reads/writes the register buffer in place and reports whether
   the row survives (filters short-circuit the rest of the chain).
   Registers are plain [Value.t array]s, so the slot/receiver getters
   apply unchanged.  Memo tables are made once; [~w] picks a worker's. *)
let fused_steps_of ctx (mk : memoizer) (f : Plan.fused) :
    w:int -> (Value.t array -> bool) array =
  let steps =
    Array.map
      (fun (step : Plan.fstep) : (w:int -> Value.t array -> bool) ->
        match step with
        | Plan.FFilter (cmp, x, y) ->
          (* operands resolved at compile time: the hot slot/const
             shapes index the registers directly instead of paying an
             unknown getter call per operand per row *)
          let test =
            match x, y with
            | Plan.SSlot i, Plan.SSlot j ->
              fun regs -> Value.truthy (eval_cmp cmp regs.(i) regs.(j))
            | Plan.SSlot i, Plan.SConst v ->
              fun regs -> Value.truthy (eval_cmp cmp regs.(i) v)
            | Plan.SConst v, Plan.SSlot j ->
              fun regs -> Value.truthy (eval_cmp cmp v regs.(j))
            | Plan.SConst u, Plan.SConst v ->
              fun _ -> Value.truthy (eval_cmp cmp u v)
          in
          fun ~w:_ -> test
        | Plan.FProp (r, p, recv) ->
          let access = prop_access ctx mk p in
          fun ~w ->
            let access = access ~w in
            fun regs ->
              regs.(r) <- access regs.(recv);
              true
        | Plan.FMeth (r, m, recv, args) ->
          let call = method_call ctx mk m recv args in
          fun ~w ->
            let call = call ~w in
            fun regs ->
              regs.(r) <- call regs;
              true
        | Plan.FOp (r, op, xs) ->
          (* same direct-indexing specialization for the common arities *)
          let set =
            match op, xs with
            | Restricted.OpIdent, [| Plan.SSlot i |] ->
              fun regs ->
                regs.(r) <- regs.(i);
                true
            | Restricted.OpIdent, [| Plan.SConst v |] ->
              fun regs ->
                regs.(r) <- v;
                true
            | Restricted.OpBin b, [| Plan.SSlot i; Plan.SSlot j |] ->
              fun regs ->
                regs.(r) <-
                  (try Runtime.eval_binop b regs.(i) regs.(j)
                   with Runtime.Error msg -> error "%s" msg);
                true
            | Restricted.OpBin b, [| Plan.SSlot i; Plan.SConst v |] ->
              fun regs ->
                regs.(r) <-
                  (try Runtime.eval_binop b regs.(i) v
                   with Runtime.Error msg -> error "%s" msg);
                true
            | Restricted.OpBin b, [| Plan.SConst v; Plan.SSlot j |] ->
              fun regs ->
                regs.(r) <-
                  (try Runtime.eval_binop b v regs.(j)
                   with Runtime.Error msg -> error "%s" msg);
                true
            | _ ->
              let apply = op_applier op xs in
              fun regs ->
                regs.(r) <- apply regs;
                true
          in
          fun ~w:_ -> set)
      f.Plan.fsteps
  in
  fun ~w -> Array.map (fun step -> step ~w) steps

(* Whether the fused output row is the whole register file in order.
   True for every chain not topped by a projection (the output layout
   is a permutation of the registers; identity iff each map's sorted
   layout position happened to match its step order) — then the per-row
   register buffer doubles as the output row and there is no copy-out.
   For a pure selection chain ([fregs = fin_width]) it means surviving
   input rows pass through untouched. *)
let fused_out_is_regs (f : Plan.fused) =
  Array.length f.Plan.fout = f.Plan.fregs
  &&
  let ok = ref true in
  Array.iteri (fun i s -> if s <> i then ok := false) f.Plan.fout;
  !ok

(* Seed a fused chain's register file from the input row: registers
   0..fin_width-1 hold the row's slots, map targets start Null.  A
   fresh buffer per row, for the same reason [make_inserter] builds
   literals: a young block whose initializing stores skip the write
   barrier, so the steps' register stores all take the barrier's
   minor-heap quick path.  (The obvious alternative — one long-lived
   scratch buffer reused across rows — makes every register store an
   old-heap [caml_modify] that grows the remembered set, and measures
   ~40% slower than the unfused operators fusion replaces.)  Hot
   shapes are literals; wide register files fall back to
   [Array.make]/[Array.blit]. *)
let make_seeder ~fin_width ~fregs : Relation.Row.t -> Relation.Row.t =
  let o = Value.Null in
  match fin_width, fregs - fin_width with
  | _, 0 ->
    (* pure selection chain: no step writes, the row is the register
       file *)
    Fun.id
  | 1, 1 -> fun r -> [| r.(0); o |]
  | 1, 2 -> fun r -> [| r.(0); o; o |]
  | 1, 3 -> fun r -> [| r.(0); o; o; o |]
  | 1, 4 -> fun r -> [| r.(0); o; o; o; o |]
  | 1, 5 -> fun r -> [| r.(0); o; o; o; o; o |]
  | 1, 6 -> fun r -> [| r.(0); o; o; o; o; o; o |]
  | 2, 1 -> fun r -> [| r.(0); r.(1); o |]
  | 2, 2 -> fun r -> [| r.(0); r.(1); o; o |]
  | 2, 3 -> fun r -> [| r.(0); r.(1); o; o; o |]
  | 2, 4 -> fun r -> [| r.(0); r.(1); o; o; o; o |]
  | 3, 1 -> fun r -> [| r.(0); r.(1); r.(2); o |]
  | 3, 2 -> fun r -> [| r.(0); r.(1); r.(2); o; o |]
  | 3, 3 -> fun r -> [| r.(0); r.(1); r.(2); o; o; o |]
  | 4, 1 -> fun r -> [| r.(0); r.(1); r.(2); r.(3); o |]
  | 4, 2 -> fun r -> [| r.(0); r.(1); r.(2); r.(3); o; o |]
  | _ ->
    fun r ->
      let s = Array.make fregs o in
      Array.blit r 0 s 0 fin_width;
      s

(* Top-level, not nested below: a nested [let rec] would capture its
   environment and heap-allocate one closure per row. *)
let rec run_steps (steps : (Value.t array -> bool) array) regs i n =
  i >= n || (steps.(i) regs && run_steps steps regs (i + 1) n)

(* Collapse the step array into one conjunction: short chains — the
   common case — dispatch each step from a register of the caller, with
   no per-row array indexing or loop bookkeeping. *)
let step_runner (steps : (Value.t array -> bool) array) :
    Value.t array -> bool =
  match steps with
  | [||] -> fun _ -> true
  | [| a |] -> a
  | [| a; b |] -> fun regs -> a regs && b regs
  | [| a; b; c |] -> fun regs -> a regs && b regs && c regs
  | [| a; b; c; d |] -> fun regs -> a regs && b regs && c regs && d regs
  | [| a; b; c; d; e |] ->
    fun regs -> a regs && b regs && c regs && d regs && e regs
  | [| a; b; c; d; e; f |] ->
    fun regs -> a regs && b regs && c regs && d regs && e regs && f regs
  | _ -> fun regs -> run_steps steps regs 0 (Array.length steps)

(* One row through the chain for worker [w]: seed registers, run the
   steps (filters short-circuit), return the register file or
   [rejected] — the caller reads (or keeps) it before the next row
   builds a fresh one. *)
let fused_eval ctx mk (f : Plan.fused) :
    w:int -> Relation.Row.t -> Relation.Row.t =
  let steps = fused_steps_of ctx mk f in
  let seed = make_seeder ~fin_width:f.Plan.fin_width ~fregs:f.Plan.fregs in
  fun ~w ->
    let run = step_runner (steps ~w) in
    fun row ->
      let regs = seed row in
      if run regs then regs else rejected

(* -- operator shapes -------------------------------------------------- *)

(* A kernel runs an operator's row work over input rows [lo, hi) and
   returns its output rows in order.  It is staged on the worker index:
   [kernel ~w] picks worker [w]'s memo tables once, so the per-row loop
   never sees [w].  The block driver calls [kernel ~w:0] once per input
   block; the morsel scheduler once per morsel. *)
type rows_fn = Relation.Row.t array -> int -> int -> Relation.Row.t array
type kernel = w:int -> rows_fn

(* How a compiled node is driven.  Both schedulers interpret the same
   shape, built by [shape_of] from the same kernels, so an operator's
   row work exists once and only the scheduling differs:
   - [Scan]: a leaf, rows built by [row] from a result list;
   - [Stream]: a streaming kernel over the input's rows;
   - [Dedup]: a kernel that keeps first occurrences of [key], given a
     [first_occurrence] filter — serially one per stream, in parallel
     one per morsel plus one over the concatenated survivors;
   - [Probe]: a pipeline breaker on its build side ([right]), whose
     rows [build] into a table (or one per hash partition, [part]
     giving a build row's hash, negative for "never matches"), then a
     streaming probe of [left];
   - [Nested]: the nested loop's [nested_fill] over a materialized
     right side;
   - [Union]: left rows, then right rows. *)
type shape =
  | Scan : {
      items : 'a list;
      row : 'a -> Relation.Row.t;
      fetch : bool;  (** rows are object fetches (full scans) *)
    }
      -> shape
  | Stream : { input : Plan.compiled; kernel : kernel } -> shape
  | Dedup : {
      input : Plan.compiled;
      key : int array;
      dedup : (Relation.Row.t -> Relation.Row.t) -> kernel;
    }
      -> shape
  | Probe : {
      left : Plan.compiled;
      right : Plan.compiled;
      part : Relation.Row.t -> int;
      build : Relation.Row.t array -> 'tbl;
      probe : 'tbl array -> rows_fn;
      charge : bool;  (** outputs count as produced tuples *)
    }
      -> shape
  | Nested : {
      left : Plan.compiled;
      right : Plan.compiled;
      fill :
        Relation.Row.t array ->
        Relation.Row.t array ->
        int ->
        cursor ->
        Relation.Row.t array ->
        int ->
        int;
    }
      -> shape
  | Union : Plan.compiled * Plan.compiled -> shape

(* Where an execution accounts its work: the block counter always,
   per-node actuals when an [--analyze] stats sink is attached. *)
type sink = { cnt : Counters.t; stats : node_stats option }

(* The one accounting path of both schedulers: [n] rows of node [cid]
   emitted as [blocks] blocks (plus the parallel-only morsel and
   partition counts). *)
let record sink cid ?(morsels = 0) ?(partitions = 0) ~blocks n =
  Counters.add sink.cnt Blocks_produced blocks;
  match sink.stats with
  | None -> ()
  | Some s ->
    s.node_rows.(cid) <- s.node_rows.(cid) + n;
    s.node_blocks.(cid) <- s.node_blocks.(cid) + blocks;
    s.node_morsels.(cid) <- s.node_morsels.(cid) + morsels;
    s.node_partitions.(cid) <- s.node_partitions.(cid) + partitions

let pure f ~w:_ = f

(* Open a compiled node: resolve its leaf results (scans run here, and
   an attached disk store charges its traffic) and build its kernels
   against [mk]'s memo tables. *)
let shape_of ctx (mk : memoizer) sink (c : Plan.compiled) : shape =
  let flat (input : Plan.compiled) at
      (value : w:int -> Relation.Row.t -> Value.t) =
    let ins =
      make_inserter ~at ~width:(Relation.Layout.width input.Plan.layout)
    in
    Stream
      {
        input;
        kernel =
          (fun ~w ->
            let value = value ~w in
            expand_rows (fun row -> set_members (value row)) ins);
      }
  in
  let prop p recv =
    let access = prop_access ctx mk p in
    fun ~w ->
      let access = access ~w in
      fun (row : Relation.Row.t) -> access row.(recv)
  in
  let obj o = [| Value.Obj o |] in
  let leaf row items = Scan { items; row; fetch = false } in
  match c.Plan.cop with
  | Plan.CUnit -> leaf (fun () -> [||]) [ () ]
  | Plan.CFullScan cls ->
    let oids =
      try Object_store.extent ctx.store cls
      with Invalid_argument msg -> error "%s" msg
    in
    (* an attached disk store drives the scan's traffic model through
       its buffer pool (charging pool counters) and reports the pages
       touched and bytes decoded — whole pages for a row-slotted class,
       chunk metadata for a columnar one *)
    (match ctx.scan_cost ~cls, sink.stats with
    | Some (pages, bytes), Some s ->
      let cid = c.Plan.cid in
      s.node_pages.(cid) <- s.node_pages.(cid) + pages;
      s.node_bytes.(cid) <- s.node_bytes.(cid) + bytes
    | _ -> ());
    Scan { items = oids; row = obj; fetch = true }
  | Plan.CIndexScan (cls, prop, key) -> (
    match hash_index ctx ~cls ~prop with
    | Some idx -> leaf obj (Soqm_storage.Hash_index.probe idx (counters ctx) key)
    | None -> error "no index on %s.%s" cls prop)
  | Plan.CRangeScan (cls, prop, lo, hi) -> (
    match sorted_index ctx ~cls ~prop with
    | Some idx ->
      leaf obj (Soqm_storage.Sorted_index.probe_range idx (counters ctx) ~lo ~hi)
    | None -> error "no ordered index on %s.%s" cls prop)
  | Plan.CMethodScan (cls, m, args) -> (
    match
      try Runtime.invoke ctx.store (Value.Cls cls) m args
      with Runtime.Error msg -> error "%s" msg
    with
    | Value.Set members -> leaf (fun v -> [| v |]) members
    | v ->
      error "method scan %s->%s produced non-set %s" cls m (Value.to_string v))
  | Plan.CNestedLoop (pred, merge, left, right) ->
    let keep =
      match pred with
      | None -> fun _ -> true
      | Some (cmp, i, j) ->
        fun (merged : Value.t array) ->
          Value.truthy (eval_cmp cmp merged.(i) merged.(j))
    in
    Nested { left; right; fill = nested_fill (make_merger merge) keep }
  | Plan.CHashJoin (ls, rs, merge, left, right) ->
    (* Null keys never match (DESIGN.md §7): not built, not probed *)
    let merged_of = make_merger merge in
    Probe
      {
        left;
        right;
        charge = true;
        part =
          (fun row ->
            match row.(rs) with Value.Null -> -1 | key -> Hashtbl.hash key);
        build = bucket_values ~skip_null:true rs;
        probe =
          (fun tables ->
            let find = lookup_in tables Hashtbl.hash find_values in
            expand_rows
              (fun lrow ->
                match lrow.(ls) with Value.Null -> [] | key -> find key)
              merged_of);
      }
  | Plan.CNaturalJoin ([| il |], [| ir |], merge, left, right) ->
    (* one shared column: key by the value itself (structural match, so
       Nulls {e do} join — unlike the equi-join above) *)
    let merged_of = make_merger merge in
    Probe
      {
        left;
        right;
        charge = true;
        part = (fun row -> Hashtbl.hash row.(ir));
        build = bucket_values ~skip_null:false ir;
        probe =
          (fun tables ->
            let find = lookup_in tables Hashtbl.hash find_values in
            expand_rows (fun lrow -> find lrow.(il)) merged_of);
      }
  | Plan.CNaturalJoin (kl, kr, merge, left, right) ->
    (* structural match on the shared columns: Nulls {e do} match,
       mirroring the reference natural join / intersection *)
    let merged_of = make_merger merge in
    let key_l = make_copier kl and key_r = make_copier kr in
    Probe
      {
        left;
        right;
        charge = true;
        part = (fun row -> Relation.Row.hash (key_r row));
        build = bucket_rows key_r;
        probe =
          (fun tables ->
            let find = lookup_in tables Relation.Row.hash find_rows in
            expand_rows (fun lrow -> find (key_l lrow)) merged_of);
      }
  | Plan.CUnion (left, right) -> Union (left, right)
  | Plan.CDiff (left, right) ->
    Probe
      {
        left;
        right;
        charge = false;
        part = Relation.Row.hash;
        build = row_set;
        probe =
          (fun tables ->
            (* an empty exclusion set (constant-false restrictions are a
               common rewriting residue) makes diff a pass-through,
               skipping the per-row hash entirely *)
            if Array.for_all (fun t -> Relation.RowTbl.length t = 0) tables
            then keep_rows Fun.id
            else
              let excluded =
                lookup_in tables Relation.Row.hash Relation.RowTbl.mem
              in
              keep_rows (fun row -> if excluded row then rejected else row));
      }
  | Plan.CFlatProp (at, p, recv, input) -> flat input at (prop p recv)
  | Plan.CFlatMeth (at, m, recv, args, input) ->
    flat input at (method_call ctx mk m recv args)
  | Plan.CFlatOp (at, op, args, input) ->
    flat input at (pure (op_applier op args))
  | Plan.CFused (f, input) ->
    let eval = fused_eval ctx mk f in
    (* the chain, then [out] on each surviving register file *)
    let chain_then out ~w =
      let eval = eval ~w in
      keep_rows (fun row ->
          let regs = eval row in
          if regs == rejected then regs else out regs)
    in
    if f.Plan.fdedup && not f.Plan.fkeyed then
      (* values keyed directly when one column survives, the copied row
         otherwise; a keyed projection's rows are already distinct, so
         it takes the copy-out below with no dedup table (DESIGN.md §9) *)
      Dedup { input; key = f.Plan.fout; dedup = chain_then }
    else if fused_out_is_regs f then
      (* the register file is the output row: one allocation per
         surviving row, no copy-out *)
      Stream { input; kernel = (fun ~w -> keep_rows (eval ~w)) }
    else Stream { input; kernel = chain_then (make_copier f.Plan.fout) }

let drain_blocks b =
  let rec go acc =
    match b.next_block () with None -> acc | Some rows -> go (rows :: acc)
  in
  let blocks = List.rev (go []) in
  b.close_blocks ();
  blocks

let drain_rows b = Array.concat (drain_blocks b)

(* ------------------------------------------------------------------ *)
(* Block driver: pulls [block_size]-row blocks through the kernels.    *)
(* Pipeline breakers (join/diff build sides, the nested loop's right   *)
(* side) drain their input lazily, on the first probe block, exactly   *)
(* as the streaming interpreter does.                                   *)
(* ------------------------------------------------------------------ *)

let open_compiled ?stats ctx (root : Plan.compiled) : biter =
  let sink = { cnt = counters ctx; stats } in
  let emit cid rows =
    record sink cid ~blocks:1 (Array.length rows);
    Some rows
  in
  let scan cid ~fetch row xs =
    let remaining = ref xs in
    let next_block () =
      match !remaining with
      | [] -> None
      | xs ->
        let buf = Array.make block_size [||] in
        let k, rest = scan_fill row xs buf in
        remaining := rest;
        if fetch then Counters.add sink.cnt Objects_fetched k;
        emit cid (if k = block_size then buf else Array.sub buf 0 k)
    in
    { next_block; close_blocks = (fun () -> remaining := []) }
  in
  (* Pull input blocks, run the kernel over each, re-chunk its output
     into blocks of at most [block_size].  [charge] marks operators
     whose outputs count as produced tuples (parity with the
     interpreted executor's accounting). *)
  let stream ?(charge = true) cid input (f : rows_fn) =
    let pending = ref [||] in
    let pos = ref 0 in
    let rec next_block () =
      let avail = Array.length !pending - !pos in
      if avail > 0 then begin
        let out =
          if !pos = 0 && avail <= block_size then begin
            let p = !pending in
            pending := [||];
            p
          end
          else begin
            let k = min block_size avail in
            let o = Array.sub !pending !pos k in
            pos := !pos + k;
            o
          end
        in
        if charge then Counters.add sink.cnt Tuples_produced (Array.length out);
        emit cid out
      end
      else
        match input.next_block () with
        | None -> None
        | Some rows ->
          pending := f rows 0 (Array.length rows);
          pos := 0;
          next_block ()
    in
    { next_block; close_blocks = input.close_blocks }
  in
  let rec go (c : Plan.compiled) : biter =
    let cid = c.Plan.cid in
    match shape_of ctx shared_memo sink c with
    | Scan { items; row; fetch } -> scan cid ~fetch row items
    | Stream { input; kernel } -> stream cid (go input) (kernel ~w:0)
    | Dedup { input; key; dedup } ->
      stream cid (go input) (dedup (first_occurrence key ()) ~w:0)
    | Probe { left; right; build; probe; charge; part = _ } ->
      let probe = lazy (probe [| build (drain_rows (go right)) |]) in
      stream ~charge cid (go left) (fun rows lo hi ->
          Lazy.force probe rows lo hi)
    | Nested { left; right; fill } ->
      (* a [block_size] output buffer is filled straight from the pair
         cursor — no intermediate per-left-block cross product *)
      let right_rows = lazy (drain_rows (go right)) in
      let left = go left in
      let lrows = ref [||] in
      let cur = { li = 0; ri = 0 } in
      let done_ = ref false in
      let rec next_block () =
        if !done_ then None
        else begin
          let rrows = Lazy.force right_rows in
          let buf = Array.make block_size [||] in
          let rec fill_from k =
            let k = fill rrows !lrows (Array.length !lrows) cur buf k in
            if k = block_size then k
            else
              match left.next_block () with
              | None ->
                done_ := true;
                k
              | Some rows ->
                lrows := rows;
                cur.li <- 0;
                cur.ri <- 0;
                fill_from k
          in
          let k = fill_from 0 in
          if k = 0 then next_block ()
          else begin
            Counters.add sink.cnt Tuples_produced k;
            emit cid (if k = block_size then buf else Array.sub buf 0 k)
          end
        end
      in
      { next_block; close_blocks = left.close_blocks }
    | Union (left, right) ->
      let left = go left in
      let right = lazy (go right) in
      let on_right = ref false in
      let rec next_block () =
        if !on_right then
          match (Lazy.force right).next_block () with
          | None -> None
          | Some rows -> emit cid rows
        else
          match left.next_block () with
          | Some rows -> emit cid rows
          | None ->
            on_right := true;
            next_block ()
      in
      {
        next_block;
        close_blocks =
          (fun () ->
            left.close_blocks ();
            if Lazy.is_val right then (Lazy.force right).close_blocks ());
      }
  in
  go root

(* ------------------------------------------------------------------ *)
(* Morsel scheduler: every operator materializes its output as one row *)
(* array; workers claim fixed-size morsels of the input via an atomic  *)
(* cursor, run the operator's kernel on them and write the results     *)
(* into morsel-indexed slots, so the concatenated output is            *)
(* row-for-row identical to the block driver's no matter which worker  *)
(* ran which morsel.  Joins and diff partition the build side by key   *)
(* hash and build one table per partition with the block driver's      *)
(* build function (each preserving build-input order), so probes are   *)
(* lock-free reads of tables published by the pool's join barrier.     *)
(* ------------------------------------------------------------------ *)

(* 1024 rows per morsel: big enough that the atomic cursor and the
   per-morsel allocations are noise next to the kernel work (a morsel is
   8 blocks of the block driver's dispatch unit), small enough that a
   3200-document scan still splits into enough morsels to keep four
   workers busy and to absorb skew from expensive rows (method calls). *)
let morsel_size = 1024

(* Partitions for the hash-join / diff build sides: the smallest power
   of two >= jobs, so [hash land (nparts - 1)] spreads build work over
   all workers while keeping partition tables few and large. *)
let partition_count jobs =
  let rec go p = if p >= jobs then p else go (2 * p) in
  go 1

let eval_parallel ?stats ctx ~jobs (root : Plan.compiled) :
    Relation.Row.t array =
  let pool = Pool.global () in
  let sink = { cnt = counters ctx; stats } in
  let mk = per_worker_memo jobs in
  let nparts = partition_count jobs in
  let morsels_of n = (n + morsel_size - 1) / morsel_size in
  (* Hand task ids [0, m) to the pool's workers via an atomic cursor. *)
  let parallel_for m (f : w:int -> int -> unit) =
    if m = 1 then f ~w:0 0
    else if m > 1 then begin
      let cursor = Atomic.make 0 in
      Pool.run pool ~jobs (fun w ->
          let rec claim () =
            let i = Atomic.fetch_and_add cursor 1 in
            if i < m then begin
              f ~w i;
              claim ()
            end
          in
          claim ())
    end
  in
  (* Morsel-parallel map over index range [0, n): each morsel's output
     lands in its own slot and the slots are concatenated in morsel
     order (the determinism argument, DESIGN.md §10). *)
  let chunked n (f : w:int -> lo:int -> hi:int -> Relation.Row.t array) =
    let m = morsels_of n in
    if m = 0 then [||]
    else if m = 1 then f ~w:0 ~lo:0 ~hi:n
    else begin
      let out = Array.make m [||] in
      parallel_for m (fun ~w i ->
          let lo = i * morsel_size in
          out.(i) <- f ~w ~lo ~hi:(min n (lo + morsel_size)));
      Array.concat (Array.to_list out)
    end
  in
  (* Ordered two-phase partitioning of a materialized build side.
     Phase A buckets each morsel into [nparts] per-morsel row buffers
     (morsel order preserved inside each bucket, rows with a negative
     [part] dropped); phase B concatenates partition [p]'s buckets in
     morsel order — recovering build-input order — and [build]s that
     partition's table, one worker per partition.  The pool join
     between the phases publishes the buckets; the join after phase B
     publishes the tables to probes.  A build side under one morsel
     skips both phases: one table on the caller, exactly the block
     driver's. *)
  let partitioned rows part build =
    let n = Array.length rows in
    if nparts = 1 || n <= morsel_size then [| build rows |]
    else begin
      let m = morsels_of n in
      let buckets = Array.make m [||] in
      parallel_for m (fun ~w:_ i ->
          let lo = i * morsel_size in
          let hi = min n (lo + morsel_size) in
          let bufs = Array.init nparts (fun _ -> Rowbuf.create ()) in
          for j = lo to hi - 1 do
            let row = rows.(j) in
            let h = part row in
            if h >= 0 then Rowbuf.push bufs.(h land (nparts - 1)) row
          done;
          buckets.(i) <- Array.map Rowbuf.contents bufs);
      let tables = Array.make nparts None in
      parallel_for nparts (fun ~w:_ p ->
          let parts = List.init m (fun i -> buckets.(i).(p)) in
          tables.(p) <- Some (build (Array.concat parts)));
      Array.map Option.get tables
    end
  in
  (* An operator's materialized output counts as ceil(n / block_size)
     blocks, so block totals match the block driver's on full blocks. *)
  let emit ?(charge = false) ?partitions cid ~morsels rows =
    let n = Array.length rows in
    if charge then Counters.add sink.cnt Tuples_produced n;
    record sink cid ~morsels ?partitions
      ~blocks:((n + block_size - 1) / block_size)
      n;
    rows
  in
  let rec drop k xs =
    match xs with _ :: rest when k > 0 -> drop (k - 1) rest | _ -> xs
  in
  let rec eval (c : Plan.compiled) : Relation.Row.t array =
    let cid = c.Plan.cid in
    match shape_of ctx mk sink c with
    | Scan { items; row; fetch } ->
      (* each morsel fills from its own suffix of the result list *)
      let n = List.length items in
      let starts = Array.make (morsels_of n) items in
      for i = 1 to Array.length starts - 1 do
        starts.(i) <- drop morsel_size starts.(i - 1)
      done;
      if fetch then Counters.add sink.cnt Objects_fetched n;
      emit cid ~morsels:(morsels_of n)
        (chunked n (fun ~w:_ ~lo ~hi ->
             let buf = Array.make (hi - lo) [||] in
             ignore (scan_fill row starts.(lo / morsel_size) buf);
             buf))
    | Stream { input; kernel } ->
      let rows = eval input in
      let n = Array.length rows in
      emit ~charge:true cid ~morsels:(morsels_of n)
        (chunked n (fun ~w ~lo ~hi -> kernel ~w rows lo hi))
    | Dedup { input; key; dedup } ->
      (* first occurrences per morsel in parallel, then once more over
         the survivors in morsel order: exactly the rows a serial pass
         keeps, in the same order *)
      let rows = eval input in
      let n = Array.length rows in
      let local =
        chunked n (fun ~w ~lo ~hi ->
            dedup (first_occurrence key ()) ~w rows lo hi)
      in
      let merge = first_occurrence (Array.init (Array.length key) Fun.id) () in
      emit ~charge:true cid ~morsels:(morsels_of n)
        (keep_rows merge local 0 (Array.length local))
    | Probe { left; right; part; build; probe; charge } ->
      (* the build side is evaluated only for a non-empty probe side —
         exactly when the block driver drains it *)
      let lrows = eval left in
      let n = Array.length lrows in
      if n = 0 then emit cid ~morsels:0 [||]
      else begin
        let rrows = eval right in
        let tables = partitioned rrows part build in
        let f = probe tables in
        emit ~charge cid
          ~morsels:(morsels_of (Array.length rrows) + morsels_of n)
          ~partitions:(Array.length tables)
          (chunked n (fun ~w:_ ~lo ~hi -> f lrows lo hi))
      end
    | Nested { left; right; fill } ->
      let rrows = eval right in
      let lrows = eval left in
      let n = Array.length lrows in
      emit ~charge:true cid ~morsels:(morsels_of n)
        (chunked n (fun ~w:_ ~lo ~hi ->
             let buf = Array.make ((hi - lo) * Array.length rrows) [||] in
             let k = fill rrows lrows hi { li = lo; ri = 0 } buf 0 in
             if k = Array.length buf then buf else Array.sub buf 0 k))
    | Union (left, right) ->
      let l = eval left in
      let r = eval right in
      emit cid ~morsels:0 (Array.append l r)
  in
  eval root

let compile ctx plan =
  try Plan.compile plan
  with Plan.Compile_error msg ->
    Counters.incr (counters ctx) Slot_misses;
    error "%s" msg

(* Workers beyond the cores the host can actually run concurrently only
   add domain-handoff latency, and a plan whose every leaf extent fits in
   a single morsel degenerates to one work unit per operator — all
   spawn/join cost, zero overlap.  [effective_jobs] caps the request at
   [Domain.recommended_domain_count] and falls back to the serial block
   executor for such sub-morsel plans; [~clamp:false] bypasses both (the
   determinism tests exercise the parallel internals on small inputs). *)
let effective_jobs ctx jobs (c : Plan.compiled) =
  let jobs = min jobs (Domain.recommended_domain_count ()) in
  if jobs <= 1 then 1
  else
    let rec widest (c : Plan.compiled) =
      match c.Plan.cop with
      | Plan.CFullScan cls
      | Plan.CIndexScan (cls, _, _)
      | Plan.CRangeScan (cls, _, _, _)
      | Plan.CMethodScan (cls, _, _) -> (
        try Object_store.extent_size ctx.store cls with Not_found -> 0)
      | _ ->
        List.fold_left
          (fun m i -> max m (widest i))
          0 (Plan.compiled_inputs c)
    in
    if widest c <= morsel_size then 1 else jobs

let run_compiled ?stats ?(jobs = 1) ?(clamp = true) ctx (c : Plan.compiled) =
  let jobs = if clamp then effective_jobs ctx jobs c else jobs in
  let layout = c.Plan.layout in
  let tuples =
    if jobs > 1 then
      Array.to_list
        (Array.map
           (Relation.Layout.tuple_of_row layout)
           (eval_parallel ?stats ctx ~jobs c))
    else
      List.concat_map
        (fun rows ->
          Array.to_list (Array.map (Relation.Layout.tuple_of_row layout) rows))
        (drain_blocks (open_compiled ?stats ctx c))
  in
  Relation.make ~refs:(Relation.Layout.names layout) tuples

let run ?jobs ?clamp ctx plan = run_compiled ?jobs ?clamp ctx (compile ctx plan)
