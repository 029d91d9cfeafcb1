open Soqm_vml
open Soqm_algebra
open Soqm_storage

type t =
  | Unit
  | FullScan of string * string
  | IndexScan of string * string * string * Value.t
  | RangeScan of
      string * string * string * Sorted_index.bound * Sorted_index.bound
  | MethodScan of string * string * string * Value.t list
  | Filter of Restricted.cmp * Restricted.operand * Restricted.operand * t
  | NestedLoop of (Restricted.cmp * string * string) option * t * t
  | HashJoin of string * string * t * t
  | NaturalJoin of t * t
  | Union of t * t
  | Diff of t * t
  | MapProp of string * string * string * t
  | MapMeth of string * string * Restricted.receiver * Restricted.operand list * t
  | FlatProp of string * string * string * t
  | FlatMeth of string * string * Restricted.receiver * Restricted.operand list * t
  | MapOp of string * Restricted.opname * Restricted.operand list * t
  | FlatOp of string * Restricted.opname * Restricted.operand list * t
  | Project of string list * t

let compare = Stdlib.compare
let equal a b = compare a b = 0

let union_sorted a b = List.sort_uniq String.compare (a @ b)

let rec refs = function
  | Unit -> []
  | FullScan (a, _) | IndexScan (a, _, _, _) | RangeScan (a, _, _, _, _)
  | MethodScan (a, _, _, _) ->
    [ a ]
  | Filter (_, _, _, p) -> refs p
  | NestedLoop (_, p1, p2) | HashJoin (_, _, p1, p2) | NaturalJoin (p1, p2) ->
    union_sorted (refs p1) (refs p2)
  | Union (p1, _) | Diff (p1, _) -> refs p1
  | MapProp (a, _, _, p)
  | MapMeth (a, _, _, _, p)
  | FlatProp (a, _, _, p)
  | FlatMeth (a, _, _, _, p)
  | MapOp (a, _, _, p)
  | FlatOp (a, _, _, p) ->
    union_sorted [ a ] (refs p)
  | Project (rs, _) -> List.sort_uniq String.compare rs

let inputs = function
  | Unit | FullScan _ | IndexScan _ | RangeScan _ | MethodScan _ -> []
  | Filter (_, _, _, p)
  | MapProp (_, _, _, p)
  | MapMeth (_, _, _, _, p)
  | FlatProp (_, _, _, p)
  | FlatMeth (_, _, _, _, p)
  | MapOp (_, _, _, p)
  | FlatOp (_, _, _, p)
  | Project (_, p) ->
    [ p ]
  | NestedLoop (_, p1, p2)
  | HashJoin (_, _, p1, p2)
  | NaturalJoin (p1, p2)
  | Union (p1, p2)
  | Diff (p1, p2) ->
    [ p1; p2 ]

let rec size t = 1 + List.fold_left (fun n i -> n + size i) 0 (inputs t)

let rec map_consts f p =
  let go = map_consts f in
  let op = function Restricted.OConst v -> Restricted.OConst (f v) | x -> x in
  let bound = function
    | Sorted_index.Inclusive v -> Sorted_index.Inclusive (f v)
    | Sorted_index.Exclusive v -> Sorted_index.Exclusive (f v)
    | Sorted_index.Unbounded -> Sorted_index.Unbounded
  in
  match p with
  | Unit | FullScan _ -> p
  | IndexScan (a, cls, prop, key) -> IndexScan (a, cls, prop, f key)
  | RangeScan (a, cls, prop, lo, hi) ->
    RangeScan (a, cls, prop, bound lo, bound hi)
  | MethodScan (a, cls, m, args) -> MethodScan (a, cls, m, List.map f args)
  | Filter (c, x, y, i) -> Filter (c, op x, op y, go i)
  | NestedLoop (pred, l, r) -> NestedLoop (pred, go l, go r)
  | HashJoin (a1, a2, l, r) -> HashJoin (a1, a2, go l, go r)
  | NaturalJoin (l, r) -> NaturalJoin (go l, go r)
  | Union (l, r) -> Union (go l, go r)
  | Diff (l, r) -> Diff (go l, go r)
  | MapProp (a, prop, a1, i) -> MapProp (a, prop, a1, go i)
  | MapMeth (a, m, r, xs, i) -> MapMeth (a, m, r, List.map op xs, go i)
  | FlatProp (a, prop, a1, i) -> FlatProp (a, prop, a1, go i)
  | FlatMeth (a, m, r, xs, i) -> FlatMeth (a, m, r, List.map op xs, go i)
  | MapOp (a, o, xs, i) -> MapOp (a, o, List.map op xs, go i)
  | FlatOp (a, o, xs, i) -> FlatOp (a, o, List.map op xs, go i)
  | Project (rs, i) -> Project (rs, go i)

let structural_root (r : Restricted.t) (inputs : t list) : t option =
  match r, inputs with
  | Restricted.Unit, [] -> Some Unit
  | Restricted.Get (a, c), [] -> Some (FullScan (a, c))
  | Restricted.MethodSource (a, cls, m, args), [] ->
    let consts =
      List.filter_map
        (function Restricted.OConst v -> Some v | _ -> None)
        args
    in
    if List.length consts = List.length args then
      Some (MethodScan (a, cls, m, consts))
    else None
  | Restricted.NaturalJoin _, [ p1; p2 ] -> Some (NaturalJoin (p1, p2))
  | Restricted.Union _, [ p1; p2 ] -> Some (Union (p1, p2))
  | Restricted.Diff _, [ p1; p2 ] -> Some (Diff (p1, p2))
  | Restricted.Cross _, [ p1; p2 ] -> Some (NestedLoop (None, p1, p2))
  | Restricted.SelectCmp (c, x, y, _), [ p ] -> Some (Filter (c, x, y, p))
  | Restricted.JoinCmp (Restricted.CEq, a1, a2, _, _), [ p1; p2 ] ->
    Some (HashJoin (a1, a2, p1, p2))
  | Restricted.JoinCmp (c, a1, a2, _, _), [ p1; p2 ] ->
    Some (NestedLoop (Some (c, a1, a2), p1, p2))
  | Restricted.MapProperty (a, p, a1, _), [ pl ] -> Some (MapProp (a, p, a1, pl))
  | Restricted.MapMethod (a, m, r, xs, _), [ pl ] -> Some (MapMeth (a, m, r, xs, pl))
  | Restricted.FlatProperty (a, p, a1, _), [ pl ] -> Some (FlatProp (a, p, a1, pl))
  | Restricted.FlatMethod (a, m, r, xs, _), [ pl ] -> Some (FlatMeth (a, m, r, xs, pl))
  | Restricted.MapOperator (a, op, xs, _), [ pl ] -> Some (MapOp (a, op, xs, pl))
  | Restricted.FlatOperator (a, op, xs, _), [ pl ] -> Some (FlatOp (a, op, xs, pl))
  | Restricted.Project (rs, _), [ pl ] -> Some (Project (rs, pl))
  | _ -> None

let rec default_implementation (r : Restricted.t) : t =
  match
    structural_root r (List.map default_implementation (Restricted.inputs r))
  with
  | Some p -> p
  | None -> invalid_arg "default_implementation: non-constant source argument"

(* ------------------------------------------------------------------ *)
(* Slot compilation                                                    *)
(* ------------------------------------------------------------------ *)

exception Compile_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

type slot_operand = SSlot of int | SConst of Value.t
type slot_receiver = RSlot of int | RClassObj of string

(* Fused select/map/project chains: every maximal run of filters and
   1:1 maps (optionally topped by a projection), and every projection on
   its own, compiles to one kernel that evaluates all steps over a
   register buffer in a single pass per input row — no intermediate
   blocks, no intermediate row allocation.  Registers 0..fin_width-1 are
   the input row's slots in order; each map step appends one register.
   Operands inside steps index registers, not layout slots. *)
type fstep =
  | FFilter of Restricted.cmp * slot_operand * slot_operand
  | FProp of int * string * int  (* target register, property, receiver *)
  | FMeth of int * string * slot_receiver * slot_operand array
  | FOp of int * Restricted.opname * slot_operand array

type fused = {
  fsteps : fstep array;  (* bottom-to-top: execution order *)
  fin_width : int;  (* input row width = initial register count *)
  fregs : int;  (* total registers = fin_width + number of map steps *)
  fout : int array;  (* registers copied to the output row, in order *)
  fdedup : bool;  (* a projection tops the chain: set semantics *)
  fkeyed : bool;
      (* the projection provably emits distinct rows (it keeps a key of
         the chain's input — see {!row_key}), so the dedup table is
         skippable *)
}

type compiled = {
  cid : int;
  layout : Relation.Layout.t;
  source : t;
  cop : cop;
}

and cop =
  | CUnit
  | CFullScan of string
  | CIndexScan of string * string * Value.t
  | CRangeScan of string * string * Sorted_index.bound * Sorted_index.bound
  | CMethodScan of string * string * Value.t list
  | CNestedLoop of (Restricted.cmp * int * int) option * int array * compiled * compiled
  | CHashJoin of int * int * int array * compiled * compiled
  | CNaturalJoin of int array * int array * int array * compiled * compiled
  | CUnion of compiled * compiled
  | CDiff of compiled * compiled
  | CFlatProp of int * string * int * compiled
  | CFlatMeth of int * string * slot_receiver * slot_operand array * compiled
  | CFlatOp of int * Restricted.opname * slot_operand array * compiled
  | CFused of fused * compiled

(* ------------------------------------------------------------------ *)
(* Distinctness: keys of compiled nodes                                *)
(* ------------------------------------------------------------------ *)

module Slot_set = Set.Make (Int)

(* A key of a node: a set of output slots whose combined values differ
   between any two rows the node emits.  [None] means no key is known —
   the analysis is sound, not complete.  The payoff is the projection
   fast path: a projection that keeps a whole key of its input provably
   emits distinct rows, so its dedup hash table (one lookup + one row
   materialization per input row) is dead weight.

   Per node: scans of extents and index access paths enumerate each
   object once, so the binding slot alone is a key; method scans may
   return anything.  Filters and 1:1 maps keep input rows apart.  A
   join emits each matching (left, right) pair once, so the union of
   both sides' keys identifies the pair — provided every key slot
   survives the merge.  Flattens and unions duplicate freely.  A
   projection's own output is distinct by set semantics (enforced by
   dedup or proved by this analysis), hence a key of itself. *)
let rec row_key (c : compiled) : Slot_set.t option =
  (* remap key slots through a copy plan: output slot [j] copies source
     [plan.(j)], and key slot [s] is source [src_of s]; [None] when a
     key slot was dropped *)
  let remap plan src_of k acc =
    Slot_set.fold
      (fun s acc ->
        Option.bind acc (fun acc ->
            let pos = ref None in
            Array.iteri
              (fun j m -> if !pos = None && m = src_of s then pos := Some j)
              plan;
            Option.map (fun j -> Slot_set.add j acc) !pos))
      k (Some acc)
  in
  match c.cop with
  | CUnit -> Some Slot_set.empty
  | CFullScan _ | CIndexScan _ | CRangeScan _ -> Some (Slot_set.singleton 0)
  | CMethodScan _ | CFlatProp _ | CFlatMeth _ | CFlatOp _ | CUnion _ -> None
  | CNestedLoop (_, merge, l, r)
  | CHashJoin (_, _, merge, l, r)
  | CNaturalJoin (_, _, merge, l, r) -> (
    (* the signed merge plan: [j >= 0] copies left slot [j], [j < 0]
       copies right slot [-j - 1] *)
    match (row_key l, row_key r) with
    | Some kl, Some kr ->
      Option.bind
        (remap merge Fun.id kl Slot_set.empty)
        (remap merge (fun s -> -s - 1) kr)
    | _ -> None)
  | CDiff (l, _) -> row_key l
  | CFused (f, i) ->
    if f.fdedup && not f.fkeyed then
      Some (Slot_set.of_list (List.init (Array.length f.fout) Fun.id))
    else
      (* 1:1 steps only; input slot [s] is register [s], output slot [j]
         copies register [fout.(j)] *)
      Option.bind (row_key i) (fun k -> remap f.fout Fun.id k Slot_set.empty)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let ref_slot layout r =
  match Relation.Layout.slot layout r with
  | Some i -> i
  | None -> fail "unbound reference %S in physical plan" r

let operand layout = function
  | Restricted.ORef r -> SSlot (ref_slot layout r)
  | Restricted.OConst v -> SConst v
  | Restricted.OParam p -> fail "unresolved specification parameter %S" p

let receiver layout = function
  | Restricted.RRef r -> RSlot (ref_slot layout r)
  | Restricted.RClass c -> RClassObj c

let insertion layout a =
  match Relation.Layout.slot layout a with
  | Some _ -> fail "duplicate target reference %S in physical plan" a
  | None -> Relation.Layout.insertion layout a

(* Filters and the 1:1 maps fuse; flat (set-valued) operators change
   cardinality mid-chain and stay standalone. *)
let fusable_input = function
  | Filter (_, _, _, i) | MapProp (_, _, _, i) | MapMeth (_, _, _, _, i)
  | MapOp (_, _, _, i) ->
    Some i
  | _ -> None

(* The maximal fusable chain hanging off [p] — possibly empty: its
   operators bottom-to-top (execution order) and the first non-fusable
   node feeding them. *)
let split_chain p =
  let rec go acc p =
    match fusable_input p with Some i -> go (p :: acc) i | None -> (acc, p)
  in
  go [] p

(* Translate a chain over the compiled [input] into register steps,
   resolving each operator's references against its own input layout.
   [reg_of] maps the current layout's slots to registers: it starts as
   the identity over the input row and tracks every map step's
   sorted-position insert, so operand slots land on the right register
   no matter where later inserts shifted them.  Returns the kernel and
   its output layout. *)
let build_fused ?project ops (input : compiled) =
  let fin_width = Relation.Layout.width input.layout in
  let layout = ref input.layout in
  let reg_of = ref (Array.init fin_width Fun.id) in
  let nregs = ref fin_width in
  let xop o =
    match operand !layout o with SSlot i -> SSlot !reg_of.(i) | c -> c
  in
  let extend a =
    let next_layout, at = insertion !layout a in
    let r = !nregs in
    incr nregs;
    let prev = !reg_of in
    let w = Array.length prev in
    let next = Array.make (w + 1) r in
    Array.blit prev 0 next 0 at;
    Array.blit prev at next (at + 1) (w - at);
    layout := next_layout;
    reg_of := next;
    r
  in
  let step = function
    | Filter (cmp, x, y, _) -> FFilter (cmp, xop x, xop y)
    | MapProp (a, p, a1, _) ->
      let recv = !reg_of.(ref_slot !layout a1) in
      FProp (extend a, p, recv)
    | MapMeth (a, m, recv, args, _) ->
      let recv =
        match receiver !layout recv with
        | RSlot i -> RSlot !reg_of.(i)
        | RClassObj _ as r -> r
      in
      let args = Array.of_list (List.map xop args) in
      FMeth (extend a, m, recv, args)
    | MapOp (a, op, xs, _) ->
      let xs = Array.of_list (List.map xop xs) in
      FOp (extend a, op, xs)
    | _ -> assert false
  in
  let fsteps = Array.of_list (List.map step ops) in
  let layout, fout =
    match project with
    | None -> (!layout, !reg_of)
    | Some rs ->
      let rs = List.sort_uniq String.compare rs in
      (match
         List.find_opt
           (fun r -> Option.is_none (Relation.Layout.slot !layout r))
           rs
       with
      | Some r -> fail "projection reference %S not present" r
      | None -> ());
      let layout, srcs = Relation.Layout.projection ~src:!layout rs in
      (layout, Array.map (fun s -> !reg_of.(s)) srcs)
  in
  (* a map step whose register no later step reads and the copy-out
     drops computes nothing: leave it out (method calls stay, they may
     have effects).  Walking back from the copy-out marks what is read. *)
  let live = Array.make !nregs false in
  Array.iter (fun r -> live.(r) <- true) fout;
  let read = function SSlot r -> live.(r) <- true | SConst _ -> () in
  let fsteps =
    Array.fold_right
      (fun st acc ->
        match st with
        | (FProp (r, _, _) | FOp (r, _, _)) when not live.(r) -> acc
        | FFilter (_, x, y) ->
          read x;
          read y;
          st :: acc
        | FProp (_, _, recv) ->
          live.(recv) <- true;
          st :: acc
        | FMeth (_, _, recv, args) ->
          (match recv with RSlot r -> live.(r) <- true | RClassObj _ -> ());
          Array.iter read args;
          st :: acc
        | FOp (_, _, xs) ->
          Array.iter read xs;
          st :: acc)
      fsteps []
    |> Array.of_list
  in
  (* input slot [s] seeds register [s], so a key of the input node reads
     directly as a register set: the projection is keyed when every key
     register survives into the copy-out *)
  let fkeyed =
    Option.is_some project
    &&
    match row_key input with
    | None -> false
    | Some k -> Slot_set.for_all (fun s -> Array.exists (Int.equal s) fout) k
  in
  ( {
      fsteps;
      fin_width;
      fregs = !nregs;
      fout;
      fdedup = Option.is_some project;
      fkeyed;
    },
    layout )

let compile (plan : t) : compiled =
  let next = ref 0 in
  let fresh () =
    let i = !next in
    incr next;
    i
  in
  let node source layout cop = { cid = fresh (); layout; source; cop } in
  let rec go (p : t) : compiled =
    (* preorder ids: a node's cid is smaller than its descendants' *)
    match p with
    | Unit -> node p (Relation.Layout.of_refs []) CUnit
    | FullScan (a, cls) -> node p (Relation.Layout.of_refs [ a ]) (CFullScan cls)
    | IndexScan (a, cls, prop, key) ->
      node p (Relation.Layout.of_refs [ a ]) (CIndexScan (cls, prop, key))
    | RangeScan (a, cls, prop, lo, hi) ->
      node p (Relation.Layout.of_refs [ a ]) (CRangeScan (cls, prop, lo, hi))
    | MethodScan (a, cls, m, args) ->
      node p (Relation.Layout.of_refs [ a ]) (CMethodScan (cls, m, args))
    | Filter _ | MapProp _ | MapMeth _ | MapOp _ ->
      let ops, input = split_chain p in
      fused p ops input
    | Project (rs, input) ->
      let ops, input = split_chain input in
      fused p ~project:rs ops input
    | NestedLoop (pred, left, right) ->
      let n = node p [||] CUnit in
      let cl = go left and cr = go right in
      let layout, merge = Relation.Layout.merge_plan ~left:cl.layout ~right:cr.layout in
      let pred =
        Option.map
          (fun (c, a1, a2) -> (c, ref_slot layout a1, ref_slot layout a2))
          pred
      in
      { n with layout; cop = CNestedLoop (pred, merge, cl, cr) }
    | HashJoin (a1, a2, left, right) ->
      let n = node p [||] CUnit in
      let cl = go left and cr = go right in
      let layout, merge = Relation.Layout.merge_plan ~left:cl.layout ~right:cr.layout in
      { n with layout;
        cop = CHashJoin (ref_slot cl.layout a1, ref_slot cr.layout a2, merge, cl, cr) }
    | NaturalJoin (left, right) ->
      let n = node p [||] CUnit in
      let cl = go left and cr = go right in
      let shared =
        List.filter
          (fun r -> Option.is_some (Relation.Layout.slot cr.layout r))
          (Relation.Layout.names cl.layout)
      in
      let layout, merge = Relation.Layout.merge_plan ~left:cl.layout ~right:cr.layout in
      let key l = Array.of_list (List.map (ref_slot l) shared) in
      { n with layout;
        cop = CNaturalJoin (key cl.layout, key cr.layout, merge, cl, cr) }
    | Union (left, right) ->
      let n = node p [||] CUnit in
      let cl = go left and cr = go right in
      if not (Relation.Layout.equal cl.layout cr.layout) then
        fail "union arguments have differing references";
      { n with layout = cl.layout; cop = CUnion (cl, cr) }
    | Diff (left, right) ->
      let n = node p [||] CUnit in
      let cl = go left and cr = go right in
      if not (Relation.Layout.equal cl.layout cr.layout) then
        fail "diff arguments have differing references";
      { n with layout = cl.layout; cop = CDiff (cl, cr) }
    | FlatProp (a, prop, a1, input) ->
      let n = node p [||] CUnit in
      let ci = go input in
      let recv = ref_slot ci.layout a1 in
      let layout, at = insertion ci.layout a in
      { n with layout; cop = CFlatProp (at, prop, recv, ci) }
    | FlatMeth (a, m, recv, args, input) ->
      let n = node p [||] CUnit in
      let ci = go input in
      let recv = receiver ci.layout recv in
      let args = Array.of_list (List.map (operand ci.layout) args) in
      let layout, at = insertion ci.layout a in
      { n with layout; cop = CFlatMeth (at, m, recv, args, ci) }
    | FlatOp (a, op, xs, input) ->
      let n = node p [||] CUnit in
      let ci = go input in
      let xs = Array.of_list (List.map (operand ci.layout) xs) in
      let layout, at = insertion ci.layout a in
      { n with layout; cop = CFlatOp (at, op, xs, ci) }
  (* one kernel for the chain [ops] over [input], topped by [project] *)
  and fused p ?project ops input =
    let n = node p [||] CUnit in
    let ci = go input in
    let f, layout = build_fused ?project ops ci in
    { n with layout; cop = CFused (f, ci) }
  in
  go plan

let compiled_inputs c =
  match c.cop with
  | CUnit | CFullScan _ | CIndexScan _ | CRangeScan _ | CMethodScan _ -> []
  | CFlatProp (_, _, _, i)
  | CFlatMeth (_, _, _, _, i)
  | CFlatOp (_, _, _, i)
  | CFused (_, i) ->
    [ i ]
  | CNestedLoop (_, _, l, r)
  | CHashJoin (_, _, _, l, r)
  | CNaturalJoin (_, _, _, l, r)
  | CUnion (l, r)
  | CDiff (l, r) ->
    [ l; r ]

let rec node_count c =
  1 + List.fold_left (fun n i -> n + node_count i) 0 (compiled_inputs c)

let pp_values ppf vs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    Value.pp ppf vs

let pp_operands ppf xs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    Restricted.pp_operand ppf xs

let cmp_name c =
  Format.asprintf "%a" Expr.pp_binop (Restricted.cmp_to_binop c)

let opname_label = function
  | Restricted.OpBin b -> Format.asprintf "%a" Expr.pp_binop b
  | Restricted.OpNot -> "NOT"
  | Restricted.OpIdent -> "ident"
  | Restricted.OpTuple ls -> "tuple[" ^ String.concat "," ls ^ "]"
  | Restricted.OpSet -> "set"

let rec pp ppf = function
  | Unit -> Format.pp_print_string ppf "unit"
  | FullScan (a, c) -> Format.fprintf ppf "full_scan<%s, %s>" a c
  | IndexScan (a, c, p, k) ->
    Format.fprintf ppf "index_scan<%s, %s.%s = %a>" a c p Value.pp k
  | RangeScan (a, c, p, lo, hi) ->
    let pp_bound what ppf = function
      | Sorted_index.Unbounded -> Format.fprintf ppf "%s unbounded" what
      | Sorted_index.Inclusive v -> Format.fprintf ppf "%s>= %a" what Value.pp v
      | Sorted_index.Exclusive v -> Format.fprintf ppf "%s> %a" what Value.pp v
    in
    Format.fprintf ppf "range_scan<%s, %s.%s, %a, %a>" a c p (pp_bound "") lo
      (pp_bound "") hi
  | MethodScan (a, c, m, args) ->
    Format.fprintf ppf "method_scan<%s, %s->%s(%a)>" a c m pp_values args
  | Filter (c, x, y, p) ->
    Format.fprintf ppf "@[<v2>filter<%a %s %a>(@,%a)@]" Restricted.pp_operand x
      (cmp_name c) Restricted.pp_operand y pp p
  | NestedLoop (None, p1, p2) ->
    Format.fprintf ppf "@[<v2>nested_loop<true>(@,%a,@,%a)@]" pp p1 pp p2
  | NestedLoop (Some (c, a1, a2), p1, p2) ->
    Format.fprintf ppf "@[<v2>nested_loop<%s %s %s>(@,%a,@,%a)@]" a1 (cmp_name c)
      a2 pp p1 pp p2
  | HashJoin (a1, a2, p1, p2) ->
    Format.fprintf ppf "@[<v2>hash_join<%s == %s>(@,%a,@,%a)@]" a1 a2 pp p1 pp p2
  | NaturalJoin (p1, p2) ->
    Format.fprintf ppf "@[<v2>natural_join_hash(@,%a,@,%a)@]" pp p1 pp p2
  | Union (p1, p2) -> Format.fprintf ppf "@[<v2>union(@,%a,@,%a)@]" pp p1 pp p2
  | Diff (p1, p2) -> Format.fprintf ppf "@[<v2>diff(@,%a,@,%a)@]" pp p1 pp p2
  | MapProp (a, p, a1, i) ->
    Format.fprintf ppf "@[<v2>map_property<%s, %s, %s>(@,%a)@]" a p a1 pp i
  | MapMeth (a, m, r, xs, i) ->
    Format.fprintf ppf "@[<v2>map_method<%s, %s, %a, <%a>>(@,%a)@]" a m
      Restricted.pp_receiver r pp_operands xs pp i
  | FlatProp (a, p, a1, i) ->
    Format.fprintf ppf "@[<v2>flat_property<%s, %s, %s>(@,%a)@]" a p a1 pp i
  | FlatMeth (a, m, r, xs, i) ->
    Format.fprintf ppf "@[<v2>flat_method<%s, %s, %a, <%a>>(@,%a)@]" a m
      Restricted.pp_receiver r pp_operands xs pp i
  | MapOp (a, op, xs, i) ->
    Format.fprintf ppf "@[<v2>map_operator<%s, %s, %a>(@,%a)@]" a
      (opname_label op) pp_operands xs pp i
  | FlatOp (a, op, xs, i) ->
    Format.fprintf ppf "@[<v2>flat_operator<%s, %s, %a>(@,%a)@]" a
      (opname_label op) pp_operands xs pp i
  | Project (rs, i) ->
    Format.fprintf ppf "@[<v2>project<%s>(@,%a)@]" (String.concat ", " rs) pp i

let to_string t = Format.asprintf "%a" pp t

let slot_operand_label = function
  | SSlot i -> Printf.sprintf "@%d" i
  | SConst v -> Value.to_string v

let slot_receiver_label = function
  | RSlot i -> Printf.sprintf "@%d" i
  | RClassObj c -> "class " ^ c

let slots_label a =
  String.concat ", "
    (Array.to_list (Array.map (Printf.sprintf "@%d") a))

(* [@n] inside a fused label names a register, not a layout slot;
   registers 0..fin_width-1 coincide with the input row's slots. *)
let fstep_label = function
  | FFilter (cmp, x, y) ->
    Printf.sprintf "%s %s %s" (slot_operand_label x) (cmp_name cmp)
      (slot_operand_label y)
  | FProp (r, p, recv) -> Printf.sprintf "@%d := @%d.%s" r recv p
  | FMeth (r, m, recv, args) ->
    Printf.sprintf "@%d := %s->%s(%s)" r (slot_receiver_label recv) m
      (String.concat ", " (Array.to_list (Array.map slot_operand_label args)))
  | FOp (r, op, xs) ->
    Printf.sprintf "@%d := %s(%s)" r (opname_label op)
      (String.concat ", " (Array.to_list (Array.map slot_operand_label xs)))

let fused_count c =
  match c.cop with
  | CFused (f, _) -> Array.length f.fsteps + if f.fdedup then 1 else 0
  | _ -> 0

let compiled_label c =
  let bound_label what = function
    | Sorted_index.Unbounded -> what ^ " unbounded"
    | Sorted_index.Inclusive v -> Printf.sprintf "%s>= %s" what (Value.to_string v)
    | Sorted_index.Exclusive v -> Printf.sprintf "%s> %s" what (Value.to_string v)
  in
  match c.cop with
  | CUnit -> "unit"
  | CFullScan cls -> Printf.sprintf "full_scan<%s>" cls
  | CIndexScan (cls, p, k) ->
    Printf.sprintf "index_scan<%s.%s = %s>" cls p (Value.to_string k)
  | CRangeScan (cls, p, lo, hi) ->
    Printf.sprintf "range_scan<%s.%s, %s, %s>" cls p (bound_label "" lo)
      (bound_label "" hi)
  | CMethodScan (cls, m, args) ->
    Printf.sprintf "method_scan<%s->%s(%s)>" cls m
      (String.concat ", " (List.map Value.to_string args))
  | CNestedLoop (None, _, _, _) -> "nested_loop<true>"
  | CNestedLoop (Some (cmp, i, j), _, _, _) ->
    Printf.sprintf "nested_loop<@%d %s @%d>" i (cmp_name cmp) j
  | CHashJoin (i, j, _, _, _) ->
    Printf.sprintf "hash_join<left@%d == right@%d>" i j
  | CNaturalJoin (kl, kr, _, _, _) ->
    Printf.sprintf "natural_join_hash<%s>"
      (String.concat ", "
         (List.map2
            (fun i j -> Printf.sprintf "left@%d = right@%d" i j)
            (Array.to_list kl) (Array.to_list kr)))
  | CUnion _ -> "union"
  | CDiff _ -> "diff"
  | CFlatProp (at, p, recv, _) ->
    Printf.sprintf "flat_property<@%d := @%d.%s>" at recv p
  | CFlatMeth (at, m, recv, args, _) ->
    Printf.sprintf "flat_method<@%d := %s->%s(%s)>" at
      (slot_receiver_label recv) m
      (String.concat ", " (Array.to_list (Array.map slot_operand_label args)))
  | CFlatOp (at, op, xs, _) ->
    Printf.sprintf "flat_operator<@%d := %s(%s)>" at (opname_label op)
      (String.concat ", " (Array.to_list (Array.map slot_operand_label xs)))
  | CFused (f, _) ->
    let project =
      if f.fdedup then
        [
          Printf.sprintf "project%s %s"
            (if f.fkeyed then " keyed" else "")
            (slots_label f.fout);
        ]
      else []
    in
    Printf.sprintf "fused<%s>"
      (String.concat "; "
         (List.map fstep_label (Array.to_list f.fsteps) @ project))

let pp_compiled ?(annot = fun (_ : compiled) -> "") ppf root =
  let rec go indent c =
    let a = annot c in
    Format.fprintf ppf "%s#%d %s  [%s]%s" indent c.cid (compiled_label c)
      (String.concat ", " (Relation.Layout.names c.layout))
      (if a = "" then "" else "  " ^ a);
    List.iter
      (fun i ->
        Format.fprintf ppf "@,";
        go (indent ^ "  ") i)
      (compiled_inputs c)
  in
  Format.fprintf ppf "@[<v>";
  go "" root;
  Format.fprintf ppf "@]"

let compiled_to_string ?annot c = Format.asprintf "%a" (pp_compiled ?annot) c
