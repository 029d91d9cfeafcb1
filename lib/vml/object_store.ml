type origin = User | Derived

type change =
  | Created of Oid.t
  | Prop_set of {
      oid : Oid.t;
      prop : string;
      old_value : Value.t;
      new_value : Value.t;
      origin : origin;
    }
  | Deleted of { oid : Oid.t; props : (string * Value.t) list }

type t = {
  schema : Schema.t;
  counters : Counters.t;
  next_id : int Atomic.t;
      (* atomic: reservation (any transaction, no latch) races commit
         replay's floor-raising in [insert_reserved] *)
  objects : (Oid.t, (string, Value.t) Hashtbl.t) Hashtbl.t;
  extents : (string, Oid.t list ref) Hashtbl.t;
  inst_impls : (string * string, impl) Hashtbl.t;
  own_impls : (string * string, impl) Hashtbl.t;
  mutable observers : (change -> unit) list;  (* in subscription order *)
  mutable guarded : ((string * string) * string) list;
      (* (class, property) -> the maintainer that alone writes it *)
}

and impl = Body of Expr.t | Native of (t -> Value.t -> Value.t list -> Value.t)

let fail fmt = Format.kasprintf invalid_arg fmt

let notify t ev = List.iter (fun f -> f ev) t.observers
let subscribe t f = t.observers <- t.observers @ [ f ]

let schema t = t.schema
let counters t = t.counters

let extent_ref t cls =
  match Hashtbl.find_opt t.extents cls with
  | Some r -> r
  | None -> fail "Object_store: unknown class %S" cls

let extent t cls = List.rev !(extent_ref t cls)
let extent_size t cls = List.length !(extent_ref t cls)
let exists t oid = Hashtbl.mem t.objects oid

let record t oid =
  match Hashtbl.find_opt t.objects oid with
  | Some r -> r
  | None -> raise Not_found

let prop_def t oid prop =
  match Schema.property t.schema ~cls:(Oid.cls oid) ~prop with
  | Some p -> p
  | None -> fail "Object_store: class %s has no property %S" (Oid.cls oid) prop

(* Raw reads/writes that bypass accounting and change notification; used
   internally by the inverse-link bookkeeping itself. *)
let raw_get t oid prop =
  match Hashtbl.find_opt (record t oid) prop with
  | Some v -> v
  | None -> Value.Null

let raw_set t oid prop v = Hashtbl.replace (record t oid) prop v

(* A backlink write is a real state change, so it is published to the
   observers as a [Derived] property set — but it must not re-enter the
   inverse bookkeeping itself (the inverse observer skips [Derived]
   events), or setting [s.document] would clobber itself through the
   [d.sections] round trip. *)
let derived_set t oid prop v =
  let old_value = raw_get t oid prop in
  raw_set t oid prop v;
  notify t (Prop_set { oid; prop; old_value; new_value = v; origin = Derived })

(* Inverse maintenance.  When [cls.prop] has inverse [(cls', prop')]:
   - if prop is object-valued, the linked object's prop' gains/loses us;
   - the inverse side may be object-valued or set-valued.  *)
let add_backlink t ~target ~inv_prop ~me =
  if exists t target then
    match raw_get t target inv_prop with
    | Value.Set xs -> derived_set t target inv_prop (Value.set (Value.Obj me :: xs))
    | Value.Null -> (
      match
        Schema.property_type t.schema ~cls:(Oid.cls target) ~prop:inv_prop
      with
      | Some (Vtype.TSet _) ->
        derived_set t target inv_prop (Value.set [ Value.Obj me ])
      | _ -> derived_set t target inv_prop (Value.Obj me))
    | _ -> derived_set t target inv_prop (Value.Obj me)

let remove_backlink t ~target ~inv_prop ~me =
  if exists t target then
    match raw_get t target inv_prop with
    | Value.Set xs ->
      derived_set t target inv_prop
        (Value.Set (List.filter (fun v -> not (Value.equal v (Value.Obj me))) xs))
    | Value.Obj o when Oid.equal o me -> derived_set t target inv_prop Value.Null
    | _ -> ()

let targets_of = function
  | Value.Obj o -> [ o ]
  | Value.Set xs ->
    List.filter_map (function Value.Obj o -> Some o | _ -> None) xs
  | _ -> []

let maintain_inverse t oid prop ~old_value ~new_value =
  match Schema.inverse_of t.schema ~cls:(Oid.cls oid) ~prop with
  | None -> ()
  | Some (_cls', inv_prop) ->
    List.iter
      (fun target -> remove_backlink t ~target ~inv_prop ~me:oid)
      (targets_of old_value);
    List.iter
      (fun target -> add_backlink t ~target ~inv_prop ~me:oid)
      (targets_of new_value)

(* Inverse links are one maintainer of redundant data among several
   (Section 5.1); it is builtin and registered first so that any external
   maintainer observes a store whose inverses are already consistent. *)
let inverse_observer t = function
  | Prop_set { origin = Derived; _ } -> ()
  | Prop_set { oid; prop; old_value; new_value; origin = User } ->
    maintain_inverse t oid prop ~old_value ~new_value
  | Created _ -> ()
  | Deleted { oid; props } ->
    let cd = Schema.class_exn t.schema (Oid.cls oid) in
    List.iter
      (fun (p : Schema.property) ->
        if Option.is_some p.inverse then
          let old_value =
            Option.value ~default:Value.Null (List.assoc_opt p.prop_name props)
          in
          maintain_inverse t oid p.prop_name ~old_value ~new_value:Value.Null)
      cd.Schema.properties

let create ?counters schema =
  let extents = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace extents c (ref [])) (Schema.class_names schema);
  let t =
    {
      schema;
      counters = Option.value ~default:(Counters.create ()) counters;
      next_id = Atomic.make 0;
      objects = Hashtbl.create 1024;
      extents;
      inst_impls = Hashtbl.create 32;
      own_impls = Hashtbl.create 32;
      observers = [];
      guarded = [];
    }
  in
  t.observers <- [ inverse_observer t ];
  t

let set_prop_origin t origin oid prop v =
  let def = prop_def t oid prop in
  if not (Vtype.check def.Schema.prop_type v) then
    fail "Object_store: value %s ill-typed for %s.%s : %s" (Value.to_string v)
      (Oid.cls oid) prop
      (Vtype.to_string def.Schema.prop_type);
  let old_value = raw_get t oid prop in
  raw_set t oid prop v;
  notify t (Prop_set { oid; prop; old_value; new_value = v; origin })

let guard_derived t ~cls ~prop ~owner =
  t.guarded <- ((cls, prop), owner) :: List.remove_assoc (cls, prop) t.guarded

let check_user_write t ~cls ~prop =
  match List.assoc_opt (cls, prop) t.guarded with
  | Some owner ->
    fail "Object_store: %s.%s is derived data maintained by %s; it cannot be written"
      cls prop owner
  | None -> ()

let set_prop t oid prop v =
  check_user_write t ~cls:(Oid.cls oid) ~prop;
  set_prop_origin t User oid prop v
let set_prop_derived t oid prop v = set_prop_origin t Derived oid prop v

let get_prop t oid prop =
  let _def = prop_def t oid prop in
  Counters.incr t.counters Objects_fetched;
  Counters.incr t.counters Property_reads;
  raw_get t oid prop

let peek_prop t oid prop =
  let _def = prop_def t oid prop in
  raw_get t oid prop

let reserve_oid t ~cls =
  ignore (Schema.class_exn t.schema cls);
  Oid.make ~cls ~id:(Atomic.fetch_and_add t.next_id 1)

(* CAS-max: never regress the counter, whoever raced us. *)
let rec raise_next_id t floor =
  let cur = Atomic.get t.next_id in
  if cur < floor && not (Atomic.compare_and_set t.next_id cur floor) then
    raise_next_id t floor

let insert_reserved t oid props =
  let cls = Oid.cls oid in
  let cd = Schema.class_exn t.schema cls in
  if exists t oid then
    fail "Object_store: OID %s is already live" (Oid.to_string oid);
  List.iter (fun (prop, _) -> check_user_write t ~cls ~prop) props;
  let tbl = Hashtbl.create (List.length cd.Schema.properties) in
  Hashtbl.replace t.objects oid tbl;
  (* extents keep insertion order; reserved OIDs inserted out of
     reservation order (transactions committing in a different order than
     they began) land in commit order, which is fine — disk scans and
     dumps sort by serial anyway *)
  let ext = extent_ref t cls in
  ext := oid :: !ext;
  raise_next_id t (Oid.id oid + 1);
  (* set-valued properties start as the empty set, not NULL, so that
     inverse maintenance and set-lifted access work without special
     cases *)
  List.iter
    (fun (p : Schema.property) ->
      match p.Schema.prop_type with
      | Vtype.TSet _ when not (List.mem_assoc p.Schema.prop_name props) ->
        raw_set t oid p.Schema.prop_name (Value.Set [])
      | _ -> ())
    cd.Schema.properties;
  notify t (Created oid);
  List.iter (fun (p, v) -> set_prop t oid p v) props

let create_object t ~cls props =
  let oid = reserve_oid t ~cls in
  insert_reserved t oid props;
  oid

let delete_object t oid =
  let props =
    Hashtbl.fold (fun p v acc -> (p, v) :: acc) (record t oid) []
  in
  Hashtbl.remove t.objects oid;
  let ext = extent_ref t (Oid.cls oid) in
  ext := List.filter (fun o -> not (Oid.equal o oid)) !ext;
  (* the snapshot of the final property values travels with the event so
     that observers (inverse links, indexes, implication sets) can
     un-derive without dereferencing the now-dead OID *)
  notify t (Deleted { oid; props })

type dump = {
  d_schema : Schema.t;
  d_objects : (Oid.t * (string * Value.t) list) list;
  d_next_id : int;
}

let export t =
  {
    d_schema = t.schema;
    d_objects =
      List.concat_map
        (fun cls ->
          List.map
            (fun oid ->
              ( oid,
                Hashtbl.fold (fun p v acc -> (p, v) :: acc) (record t oid) [] ))
            (extent t cls))
        (Schema.class_names t.schema);
    d_next_id = Atomic.get t.next_id;
  }

let dump_schema d = d.d_schema

let import ?counters d =
  let t = create ?counters d.d_schema in
  List.iter
    (fun (oid, props) ->
      let tbl = Hashtbl.create (List.length props) in
      List.iter (fun (p, v) -> Hashtbl.replace tbl p v) props;
      Hashtbl.replace t.objects oid tbl;
      let ext = extent_ref t (Oid.cls oid) in
      (* the dump lists each extent in allocation order; prepending keeps
         the internal most-recent-first representation *)
      ext := oid :: !ext)
    d.d_objects;
  Atomic.set t.next_id d.d_next_id;
  t

let make_dump ~schema ~next_id objects =
  { d_schema = schema; d_objects = objects; d_next_id = next_id }

let dump_objects d = d.d_objects
let dump_next_id d = d.d_next_id

let register_inst_method t ~cls ~meth impl =
  if Option.is_none (Schema.inst_method t.schema ~cls ~meth) then
    fail "Object_store: schema declares no instance method %s.%s" cls meth;
  Hashtbl.replace t.inst_impls (cls, meth) impl

let register_own_method t ~cls ~meth impl =
  if Option.is_none (Schema.own_method t.schema ~cls ~meth) then
    fail "Object_store: schema declares no own method %s.%s" cls meth;
  Hashtbl.replace t.own_impls (cls, meth) impl

let find_inst_impl t ~cls ~meth = Hashtbl.find_opt t.inst_impls (cls, meth)
let find_own_impl t ~cls ~meth = Hashtbl.find_opt t.own_impls (cls, meth)
