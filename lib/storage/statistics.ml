open Soqm_vml

(* Cardinalities and set-size totals are maintained exactly under DML
   (note_* deltas); distinct counts are only refreshed by a full
   [recollect], so every scalar write also bumps the staleness tick. *)
type t = {
  schema : Schema.t;
  cards : (string, float) Hashtbl.t;
  set_totals : (string * string, float) Hashtbl.t;
      (* total set size per set-valued property; fanout = total / card *)
  distincts : (string * string, float) Hashtbl.t;
  mutable writes_since_collect : int;
  mutable base_population : float;
      (* total objects at last full collect, the staleness denominator *)
  mutable range_counts :
    ((string * string) * (lo:Sorted_index.bound -> hi:Sorted_index.bound -> int))
    list;
      (* exact range counts of ordered indexes, for range selectivity *)
}

let schema t = t.schema

let recollect t store =
  Hashtbl.reset t.cards;
  Hashtbl.reset t.set_totals;
  Hashtbl.reset t.distincts;
  let population = ref 0 in
  List.iter
    (fun (cd : Schema.class_def) ->
      let cls = cd.Schema.cls_name in
      let ext = Object_store.extent store cls in
      let n = List.length ext in
      population := !population + n;
      Hashtbl.replace t.cards cls (float_of_int n);
      List.iter
        (fun (p : Schema.property) ->
          match p.Schema.prop_type with
          | Vtype.TSet _ ->
            let total =
              List.fold_left
                (fun acc oid ->
                  match Object_store.peek_prop store oid p.Schema.prop_name with
                  | Value.Set xs -> acc + List.length xs
                  | _ -> acc)
                0 ext
            in
            Hashtbl.replace t.set_totals (cls, p.Schema.prop_name)
              (float_of_int total)
          | _ ->
            let seen = Hashtbl.create 64 in
            List.iter
              (fun oid ->
                let v = Object_store.peek_prop store oid p.Schema.prop_name in
                Hashtbl.replace seen v ())
              ext;
            Hashtbl.replace t.distincts (cls, p.Schema.prop_name)
              (float_of_int (max 1 (Hashtbl.length seen))))
        cd.Schema.properties)
    (Schema.classes (Object_store.schema store));
  t.writes_since_collect <- 0;
  t.base_population <- float_of_int !population

let collect store =
  let t =
    {
      schema = Object_store.schema store;
      cards = Hashtbl.create 16;
      set_totals = Hashtbl.create 32;
      distincts = Hashtbl.create 32;
      writes_since_collect = 0;
      base_population = 0.;
      range_counts = [];
    }
  in
  recollect t store;
  t

let cardinality t cls = Option.value ~default:0. (Hashtbl.find_opt t.cards cls)

let register_range t ~cls ~prop count =
  t.range_counts <- ((cls, prop), count) :: List.remove_assoc (cls, prop) t.range_counts

let range_selectivity t ~cls ~prop ~lo ~hi =
  Option.map
    (fun count ->
      Float.min 1.0 (float_of_int (count ~lo ~hi) /. Float.max 1.0 (cardinality t cls)))
    (List.assoc_opt (cls, prop) t.range_counts)

let fanout t ~cls ~prop =
  match Hashtbl.find_opt t.set_totals (cls, prop) with
  | None -> 1.0
  | Some total ->
    let n = cardinality t cls in
    if n <= 0. then 1.0 else total /. n

let distinct t ~cls ~prop =
  Option.value ~default:1.0 (Hashtbl.find_opt t.distincts (cls, prop))

let eq_selectivity t ~cls ~prop = 1.0 /. distinct t ~cls ~prop

let method_selectivity t ~cls ~meth =
  Option.value ~default:0.5 (Schema.method_selectivity t.schema ~cls ~meth)

let method_cost t ~cls ~meth = Schema.method_cost t.schema ~cls ~meth

let method_result_card t ~cls ~meth =
  let msig =
    match Schema.own_method t.schema ~cls ~meth with
    | Some m -> Some m
    | None -> Schema.inst_method t.schema ~cls ~meth
  in
  match msig with
  | Some { Schema.returns = Vtype.TSet (Vtype.TObj c'); selectivity; _ } ->
    let s = Option.value ~default:0.1 selectivity in
    Float.max 1.0 (s *. cardinality t c')
  | Some { Schema.returns = Vtype.TSet _; _ } -> 10.0
  | _ -> 1.0

(* ------------------------------------------------------------------ *)
(* Incremental deltas                                                  *)
(* ------------------------------------------------------------------ *)

let tick t = t.writes_since_collect <- t.writes_since_collect + 1

let note_created t ~cls =
  Hashtbl.replace t.cards cls (cardinality t cls +. 1.);
  tick t

let note_deleted t ~cls =
  Hashtbl.replace t.cards cls (Float.max 0. (cardinality t cls -. 1.));
  tick t

let note_set_size t ~cls ~prop ~delta =
  if delta <> 0 then (
    let total =
      Option.value ~default:0. (Hashtbl.find_opt t.set_totals (cls, prop))
    in
    Hashtbl.replace t.set_totals (cls, prop)
      (Float.max 0. (total +. float_of_int delta));
    tick t)

let note_scalar_write t ~cls:_ ~prop:_ = tick t

let staleness t =
  float_of_int t.writes_since_collect /. Float.max 1. t.base_population

(* ------------------------------------------------------------------ *)
(* Snapshots (the persisted-image form of the statistics)              *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_cards : (string * float) list;
  snap_set_totals : ((string * string) * float) list;
  snap_distincts : ((string * string) * float) list;
  snap_writes : int;
  snap_population : float;
}

let snapshot t =
  {
    snap_cards = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.cards [];
    snap_set_totals =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.set_totals [];
    snap_distincts =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.distincts [];
    snap_writes = t.writes_since_collect;
    snap_population = t.base_population;
  }

let of_snapshot schema snap =
  let t =
    {
      schema;
      cards = Hashtbl.create 16;
      set_totals = Hashtbl.create 32;
      distincts = Hashtbl.create 32;
      writes_since_collect = snap.snap_writes;
      base_population = snap.snap_population;
      range_counts = [];
    }
  in
  List.iter (fun (k, v) -> Hashtbl.replace t.cards k v) snap.snap_cards;
  List.iter (fun (k, v) -> Hashtbl.replace t.set_totals k v) snap.snap_set_totals;
  List.iter (fun (k, v) -> Hashtbl.replace t.distincts k v) snap.snap_distincts;
  t

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Hashtbl.iter (fun c n -> Format.fprintf ppf "|%s| = %.0f@ " c n) t.cards;
  Hashtbl.iter
    (fun (c, p) _ ->
      Format.fprintf ppf "fanout %s.%s = %.2f@ " c p (fanout t ~cls:c ~prop:p))
    t.set_totals;
  Hashtbl.iter
    (fun (c, p) d -> Format.fprintf ppf "distinct %s.%s = %.0f@ " c p d)
    t.distincts;
  Format.fprintf ppf "staleness = %.3f@ " (staleness t);
  Format.fprintf ppf "@]"
