open Soqm_vml
open Soqm_algebra
open Soqm_storage

type estimate = { card : float; cost : float }

(* What is known about the value a reference holds; drives selectivity
   and fanout estimation. *)
type prov =
  | PObj of string  (** an instance of the class *)
  | PSet of string option * float  (** a set (of instances), estimated size *)
  | PScalarProp of string * string  (** scalar property value: cls, prop *)
  | PBoolMethod of string * string  (** result of a boolean method: cls, meth *)
  | POther

type info = {
  e : estimate;
  prov : (string * prov) list;
  consts : string list;  (** tuple-independent references *)
  deps : (string * string list) list;
      (** references each computed reference was derived from, transitively *)
  owners : (string * string) list;
      (** set reference [r] = [o.S] with [o] an instance: [r] -> [o]'s class *)
}

let unit_info =
  { e = { card = 1.0; cost = 0.0 }; prov = []; consts = []; deps = []; owners = [] }

let deps_of i r = r :: Option.value ~default:[] (List.assoc_opt r i.deps)

let operand_deps i xs =
  List.concat_map
    (function
      | Restricted.ORef r -> deps_of i r
      | Restricted.OConst _ | Restricted.OParam _ -> [])
    xs

let tuple_cost = 0.01
let fetch_cost = 1.2 (* object fetch + property read *)
let probe_cost = 1.0

(* The batch executor hands results downstream a block at a time; each
   operator pays a per-block dispatch overhead on top of the per-row
   work.  At [Exec.block_size] rows per block this term is tiny per
   tuple, but it makes the model prefer plans that keep blocks full. *)
let block_cost = 0.5

let block_dispatch card =
  Float.ceil (Float.max 0.0 card /. float_of_int Exec.block_size) *. block_cost

let is_const_operand consts = function
  | Restricted.OConst _ -> true
  | Restricted.ORef r -> List.mem r consts
  | Restricted.OParam _ -> false

let prop_info schema ~cls ~prop =
  Schema.property_type schema ~cls ~prop

(* Provenance of [recv.prop] given the receiver's provenance. *)
let access_prov stats recv_prov prop =
  let schema = Statistics.schema stats in
  match recv_prov with
  | PObj cls -> (
    match prop_info schema ~cls ~prop with
    | Some (Vtype.TObj c') -> PObj c'
    | Some (Vtype.TSet (Vtype.TObj c')) ->
      PSet (Some c', Statistics.fanout stats ~cls ~prop)
    | Some (Vtype.TSet _) -> PSet (None, Statistics.fanout stats ~cls ~prop)
    | Some _ -> PScalarProp (cls, prop)
    | None -> POther)
  | PSet (Some cls, k) -> (
    match prop_info schema ~cls ~prop with
    | Some (Vtype.TObj c') -> PSet (Some c', k)
    | Some (Vtype.TSet (Vtype.TObj c')) ->
      PSet (Some c', k *. Statistics.fanout stats ~cls ~prop)
    | Some (Vtype.TSet _) -> PSet (None, k *. Statistics.fanout stats ~cls ~prop)
    | Some _ -> PSet (None, k)
    | None -> POther)
  | _ -> POther

(* Provenance of the result of method [m] on a receiver of class [cls]. *)
let method_prov stats ~own ~cls m =
  let schema = Statistics.schema stats in
  let msig =
    if own then Schema.own_method schema ~cls ~meth:m
    else Schema.inst_method schema ~cls ~meth:m
  in
  match msig with
  | Some { Schema.returns = Vtype.TBool; _ } -> PBoolMethod (cls, m)
  | Some { Schema.returns = Vtype.TObj c'; _ } -> PObj c'
  | Some { Schema.returns = Vtype.TSet (Vtype.TObj c'); _ } ->
    PSet (Some c', Statistics.method_result_card stats ~cls ~meth:m)
  | Some { Schema.returns = Vtype.TSet _; _ } ->
    PSet (None, Statistics.method_result_card stats ~cls ~meth:m)
  | Some _ | None -> POther

let operand_prov prov_env = function
  | Restricted.ORef r -> Option.value ~default:POther (List.assoc_opt r prov_env)
  | Restricted.OConst (Value.Set vs) -> PSet (None, float_of_int (List.length vs))
  | Restricted.OConst _ | Restricted.OParam _ -> POther

(* Selectivity of [x θ y]. *)
let cmp_selectivity stats i c x y =
  let prov_env = i.prov in
  match c, operand_prov prov_env x, y with
  | Restricted.CEq, PBoolMethod (cls, m), Restricted.OConst (Value.Bool true) ->
    Statistics.method_selectivity stats ~cls ~meth:m
  | Restricted.CEq, PBoolMethod (cls, m), Restricted.OConst (Value.Bool false) ->
    1.0 -. Statistics.method_selectivity stats ~cls ~meth:m
  | Restricted.CEq, PScalarProp (cls, p), Restricted.OConst _ ->
    Statistics.eq_selectivity stats ~cls ~prop:p
  | Restricted.CEq, _, _ -> 0.1
  | Restricted.CNeq, _, _ -> 0.9
  | (Restricted.CLt | Restricted.CLe | Restricted.CGt | Restricted.CGe), _, _ ->
    0.33
  | Restricted.CIsIn, lhs, _ -> (
    let correlated_owner =
      match x, y with
      | Restricted.ORef rx, Restricted.ORef ry when List.mem rx (deps_of i ry) ->
        List.assoc_opt ry i.owners
      | _ -> None
    in
    match lhs, operand_prov prov_env y, correlated_owner with
    | PObj cls, PSet (_, k), Some owner ->
      (* x IS-IN T(x).S: the set was reached from the same tuple's x, so
         the filter passes the members of all owners' sets, not those of
         one random set *)
      Float.min 1.0
        (k *. Statistics.cardinality stats owner
        /. Float.max 1.0 (Statistics.cardinality stats cls))
    | PObj cls, PSet (_, k), None ->
      Float.min 1.0 (k /. Float.max 1.0 (Statistics.cardinality stats cls))
    | _, PSet (_, k), _ -> Float.min 1.0 (k /. 100.0)
    | _ -> 0.1)
  | Restricted.CIsSubset, _, _ -> 0.1

let method_sig stats ~own ~cls m =
  let schema = Statistics.schema stats in
  if own then Schema.own_method schema ~cls ~meth:m
  else Schema.inst_method schema ~cls ~meth:m

let merge_infos i1 i2 e =
  let union l1 l2 = l1 @ List.filter (fun (r, _) -> not (List.mem_assoc r l1)) l2 in
  {
    e;
    prov = union i1.prov i2.prov;
    consts = List.sort_uniq String.compare (i1.consts @ i2.consts);
    deps = union i1.deps i2.deps;
    owners = union i1.owners i2.owners;
  }

let rec analyze stats (plan : Plan.t) : info =
  match plan with
  | Plan.Unit -> unit_info
  | Plan.FullScan (a, cls) ->
    let n = Statistics.cardinality stats cls in
    { unit_info with
      e = { card = n; cost = (n *. 1.0) +. block_dispatch n };
      prov = [ (a, PObj cls) ] }
  | Plan.IndexScan (a, cls, prop, _) ->
    let n = Statistics.cardinality stats cls in
    let card = Float.max 1.0 (n *. Statistics.eq_selectivity stats ~cls ~prop) in
    {
      unit_info with
      e = { card; cost = probe_cost +. (card *. 0.1) +. block_dispatch card };
      prov = [ (a, PObj cls) ];
    }
  | Plan.RangeScan (a, cls, prop, lo, hi) ->
    let n = Statistics.cardinality stats cls in
    let sel =
      match Statistics.range_selectivity stats ~cls ~prop ~lo ~hi with
      | Some sel -> sel
      | None -> (
      match lo, hi with
      | Soqm_storage.Sorted_index.Unbounded, Soqm_storage.Sorted_index.Unbounded
        ->
        1.0
      | Soqm_storage.Sorted_index.Unbounded, _
      | _, Soqm_storage.Sorted_index.Unbounded ->
        0.33
      | _ -> 0.15)
    in
    let card = Float.max 1.0 (n *. sel) in
    {
      unit_info with
      e = { card; cost = probe_cost +. (card *. 0.1) +. block_dispatch card };
      prov = [ (a, PObj cls) ];
    }
  | Plan.MethodScan (a, cls, m, _) ->
    let card = Statistics.method_result_card stats ~cls ~meth:m in
    let mcost = Statistics.method_cost stats ~cls ~meth:m in
    let elem_prov =
      match method_prov stats ~own:true ~cls m with
      | PSet (Some c', _) -> PObj c'
      | _ -> POther
    in
    {
      unit_info with
      e = { card; cost = mcost +. (card *. tuple_cost) +. block_dispatch card };
      prov = [ (a, elem_prov) ];
    }
  | Plan.Filter (c, x, y, input) ->
    let i = analyze stats input in
    let sel = cmp_selectivity stats i c x y in
    {
      i with
      e =
        {
          card = i.e.card *. sel;
          cost =
            i.e.cost +. (i.e.card *. tuple_cost)
            +. block_dispatch (i.e.card *. sel);
        };
    }
  | Plan.NestedLoop (pred, p1, p2) ->
    let i1 = analyze stats p1 and i2 = analyze stats p2 in
    let raw = i1.e.card *. i2.e.card in
    let sel = match pred with None -> 1.0 | Some (Restricted.CEq, _, _) -> 1.0 /. Float.max 1.0 (Float.max i1.e.card i2.e.card) | Some _ -> 0.33 in
    merge_infos i1 i2
      {
        card = raw *. sel;
        cost =
          i1.e.cost +. i2.e.cost +. (raw *. tuple_cost)
          +. block_dispatch (raw *. sel);
      }
  | Plan.HashJoin (_, _, p1, p2) ->
    let i1 = analyze stats p1 and i2 = analyze stats p2 in
    let card = Float.min i1.e.card i2.e.card in
    merge_infos i1 i2
      {
        card;
        cost =
          i1.e.cost +. i2.e.cost
          +. ((i1.e.card +. i2.e.card) *. 0.02)
          +. block_dispatch card;
      }
  | Plan.NaturalJoin (p1, p2) ->
    let i1 = analyze stats p1 and i2 = analyze stats p2 in
    let card = Float.min i1.e.card i2.e.card in
    merge_infos i1 i2
      {
        card;
        cost =
          i1.e.cost +. i2.e.cost
          +. ((i1.e.card +. i2.e.card) *. 0.02)
          +. block_dispatch card;
      }
  | Plan.Union (p1, p2) ->
    let i1 = analyze stats p1 and i2 = analyze stats p2 in
    merge_infos i1 i2
      {
        card = i1.e.card +. i2.e.card;
        cost =
          i1.e.cost +. i2.e.cost +. block_dispatch (i1.e.card +. i2.e.card);
      }
  | Plan.Diff (p1, p2) ->
    let i1 = analyze stats p1 and i2 = analyze stats p2 in
    merge_infos i1 i2
      {
        card = i1.e.card;
        cost = i1.e.cost +. i2.e.cost +. block_dispatch i1.e.card;
      }
  | Plan.MapProp (a, p, a1, input) | Plan.FlatProp (a, p, a1, input) ->
    let i = analyze stats input in
    let recv_prov = Option.value ~default:POther (List.assoc_opt a1 i.prov) in
    let result_prov = access_prov stats recv_prov p in
    let const = List.mem a1 i.consts in
    (* the executor memoizes per receiver value, so evaluations are
       bounded by the number of distinct receivers *)
    let distinct_bound =
      match recv_prov with
      | PObj cls -> Statistics.cardinality stats cls
      | _ -> infinity
    in
    let evals = if const then 1.0 else Float.min i.e.card distinct_bound in
    let per_eval =
      match recv_prov with PSet (_, k) -> k *. fetch_cost | _ -> fetch_cost
    in
    let is_flat = match plan with Plan.FlatProp _ -> true | _ -> false in
    (* [access_prov] already folds the receiver-set size into the
       estimated set size, so unnesting multiplies by it directly. *)
    let card, prov_a =
      if is_flat then
        match result_prov with
        | PSet (Some c', f) -> (i.e.card *. Float.max 1.0 f, PObj c')
        | PSet (None, f) -> (i.e.card *. Float.max 1.0 f, POther)
        | _ -> (i.e.card, POther)
      else (i.e.card, result_prov)
    in
    {
      e =
        {
          card;
          cost =
            i.e.cost +. (evals *. per_eval) +. (card *. tuple_cost)
            +. block_dispatch card;
        };
      prov = (a, prov_a) :: i.prov;
      consts = (if const then a :: i.consts else i.consts);
      deps = (a, deps_of i a1) :: i.deps;
      owners =
        (match recv_prov, result_prov with
        | PObj owner, PSet _ when not is_flat -> (a, owner) :: i.owners
        | _ -> i.owners);
    }
  | Plan.MapMeth (a, m, recv, args, input) | Plan.FlatMeth (a, m, recv, args, input) ->
    let i = analyze stats input in
    let own, cls_opt, recv_const =
      match recv with
      | Restricted.RClass c -> (true, Some c, true)
      | Restricted.RRef r -> (
        ( false,
          (match List.assoc_opt r i.prov with
          | Some (PObj c) -> Some c
          | Some (PSet (c, _)) -> c
          | _ -> None),
          List.mem r i.consts ))
    in
    let const =
      recv_const && List.for_all (is_const_operand i.consts) args
    in
    let mcost, result_prov =
      match cls_opt with
      | Some cls ->
        ( (match method_sig stats ~own ~cls m with
          | Some s -> s.Schema.cost_per_call
          | None -> 1.0),
          method_prov stats ~own ~cls m )
      | None -> (1.0, POther)
    in
    (* memoized per (receiver, args) value: with constant arguments,
       distinct instance receivers bound the evaluation count *)
    let distinct_bound =
      match recv, cls_opt with
      | Restricted.RRef _, Some cls
        when List.for_all (is_const_operand i.consts) args ->
        Statistics.cardinality stats cls
      | _ -> infinity
    in
    let evals = if const then 1.0 else Float.min i.e.card distinct_bound in
    let is_flat = match plan with Plan.FlatMeth _ -> true | _ -> false in
    let card, prov_a =
      if is_flat then
        match result_prov with
        | PSet (Some c', k) -> (i.e.card *. Float.max 1.0 k, PObj c')
        | PSet (None, k) -> (i.e.card *. Float.max 1.0 k, POther)
        | _ -> (i.e.card, POther)
      else (i.e.card, result_prov)
    in
    {
      e =
        {
          card;
          cost =
            i.e.cost +. (evals *. mcost) +. (card *. tuple_cost)
            +. block_dispatch card;
        };
      prov = (a, prov_a) :: i.prov;
      consts = (if const then a :: i.consts else i.consts);
      deps =
        ( a,
          (match recv with
          | Restricted.RRef r -> deps_of i r
          | Restricted.RClass _ -> [])
          @ operand_deps i args )
        :: i.deps;
      owners = i.owners;
    }
  | Plan.MapOp (a, op, xs, input) ->
    let i = analyze stats input in
    let const = List.for_all (is_const_operand i.consts) xs in
    (* identity preserves its operand's provenance; other operators
       produce scalars we know nothing about *)
    let prov_a =
      match op, xs with
      | Restricted.OpIdent, [ x ] -> operand_prov i.prov x
      | _ -> POther
    in
    {
      e =
        {
          card = i.e.card;
          cost =
            i.e.cost +. (i.e.card *. tuple_cost) +. block_dispatch i.e.card;
        };
      prov = (a, prov_a) :: i.prov;
      consts = (if const then a :: i.consts else i.consts);
      deps = (a, operand_deps i xs) :: i.deps;
      owners = i.owners;
    }
  | Plan.FlatOp (a, _, xs, input) ->
    let i = analyze stats input in
    let k =
      match xs with
      | [ x ] -> (
        match operand_prov i.prov x with PSet (_, k) -> Float.max 1.0 k | _ -> 5.0)
      | _ -> 5.0
    in
    let elem_prov =
      match xs with
      | [ x ] -> (
        match operand_prov i.prov x with
        | PSet (Some c', _) -> PObj c'
        | _ -> POther)
      | _ -> POther
    in
    {
      e =
        {
          card = i.e.card *. k;
          cost =
            i.e.cost +. (i.e.card *. k *. tuple_cost)
            +. block_dispatch (i.e.card *. k);
        };
      prov = (a, elem_prov) :: i.prov;
      consts = i.consts;
      deps = (a, operand_deps i xs) :: i.deps;
      owners = i.owners;
    }
  | Plan.Project (rs, input) ->
    let i = analyze stats input in
    {
      e =
        {
          card = i.e.card;
          cost =
            i.e.cost +. (i.e.card *. tuple_cost) +. block_dispatch i.e.card;
        };
      prov = List.filter (fun (r, _) -> List.mem r rs) i.prov;
      consts = List.filter (fun r -> List.mem r rs) i.consts;
      deps = List.filter (fun (r, _) -> List.mem r rs) i.deps;
      owners = List.filter (fun (r, _) -> List.mem r rs) i.owners;
    }

let estimate stats plan = (analyze stats plan).e
let cost stats plan = (estimate stats plan).cost
