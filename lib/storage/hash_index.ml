open Soqm_vml

type t = {
  cls : string;
  prop : string;
  table : (Value.t, (Oid.t, unit) Hashtbl.t) Hashtbl.t;
}

let create ~cls ~prop = { cls; prop; table = Hashtbl.create 256 }
let cls t = t.cls
let prop t = t.prop

let bucket t v =
  match Hashtbl.find_opt t.table v with
  | Some b -> b
  | None ->
    let b = Hashtbl.create 4 in
    Hashtbl.replace t.table v b;
    b

let insert t v oid = Hashtbl.replace (bucket t v) oid ()

let load_bucket t v oids =
  let b = Hashtbl.create (List.length oids) in
  List.iter (fun oid -> Hashtbl.replace b oid ()) oids;
  Hashtbl.replace t.table v b

let delete t v oid =
  match Hashtbl.find_opt t.table v with
  | None -> ()
  | Some b ->
    Hashtbl.remove b oid;
    if Hashtbl.length b = 0 then Hashtbl.remove t.table v

let probe t counters v =
  Counters.incr counters Index_probes;
  match Hashtbl.find_opt t.table v with
  | None -> []
  | Some b -> Hashtbl.fold (fun k () acc -> k :: acc) b []

let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.table []
let distinct_keys t = Hashtbl.length t.table

let entries t =
  Hashtbl.fold (fun _ b acc -> acc + Hashtbl.length b) t.table 0

let iter t f =
  Hashtbl.iter
    (fun v b -> f v (Hashtbl.fold (fun oid () acc -> oid :: acc) b []))
    t.table

let build t store =
  Hashtbl.reset t.table;
  List.iter
    (fun oid ->
      let v =
        try Object_store.peek_prop store oid t.prop with Not_found -> Value.Null
      in
      insert t v oid)
    (Object_store.extent store t.cls)
