open Soqm_vml
open Soqm_storage

type policy = { staleness_threshold : float }

let default_policy = { staleness_threshold = 0.10 }

(* A maintained-shape implication ([Equivalence.maintained]) and the
   membership it currently holds. *)
type maintained_set = {
  spec : Soqm_semantics.Equivalence.maintained;
  members : (Oid.t, Oid.t) Hashtbl.t;  (* member -> target holding it *)
}

type t = {
  store : Object_store.t;
  stats : Statistics.t;
  policy : policy;
  hash_indexes : Hash_index.t list;
  sorted_indexes : Sorted_index.t list;
  text_indexes : (string * string * Oid.t Soqm_ir.Inverted_index.t) list;
  sets : maintained_set list;
  mutable epoch : int;
  mutable recollects : int;
}

let epoch t = t.epoch
let bump_epoch t = t.epoch <- t.epoch + 1
let staleness t = Statistics.staleness t.stats
let recollects t = t.recollects
let stats t = t.stats
let maintained_sets t = List.map (fun m -> m.spec.m_name) t.sets

let set_members t =
  List.map
    (fun m ->
      ( m.spec.m_name,
        Hashtbl.fold (fun mem tgt acc -> (mem, tgt) :: acc) m.members [] ))
    t.sets

(* ------------------------------------------------------------------ *)
(* Implication sets                                                    *)
(* ------------------------------------------------------------------ *)

let compile_implication spec =
  Option.map
    (fun spec -> { spec; members = Hashtbl.create 256 })
    (Soqm_semantics.Equivalence.maintained spec)

let eval_on store m oid e =
  let env =
    Runtime.env
      ~binding:(fun r ->
        if String.equal r m.spec.m_var then Some (Value.Obj oid) else None)
      store
  in
  Runtime.eval env e

(* A failed antecedent evaluation (NULL operand, dangling link) counts as
   FALSE — an object the antecedent cannot certify must not sit in the
   implied set. *)
let antecedent_holds store m oid =
  try Value.truthy (eval_on store m oid m.spec.m_antecedent)
  with Runtime.Error _ | Not_found -> false

let target_of store m oid =
  try
    match eval_on store m oid m.spec.target with
    | Value.Obj o when Object_store.exists store o -> Some o
    | _ -> None
  with Runtime.Error _ | Not_found -> None

let charge_implication store =
  Counters.incr (Object_store.counters store) Implication_updates

let member_add store m ~target ~member =
  let v = Value.Obj member in
  match Object_store.peek_prop store target m.spec.set_prop with
  | Value.Set xs when List.exists (Value.equal v) xs -> ()
  | Value.Set xs ->
    Object_store.set_prop_derived store target m.spec.set_prop (Value.set (v :: xs));
    charge_implication store
  | Value.Null ->
    Object_store.set_prop_derived store target m.spec.set_prop (Value.set [ v ]);
    charge_implication store
  | _ -> ()

let member_remove store m ~target ~member =
  if Object_store.exists store target then
    let v = Value.Obj member in
    match Object_store.peek_prop store target m.spec.set_prop with
    | Value.Set xs when List.exists (Value.equal v) xs ->
      Object_store.set_prop_derived store target m.spec.set_prop
        (Value.Set (List.filter (fun x -> not (Value.equal x v)) xs));
      charge_implication store
    | _ -> ()

(* Re-derive one object's membership after any of its properties moved:
   covers threshold crossings ([wordCount] passing 500), moves (a
   paragraph re-parented to a section of another document) and links
   dying (the section deleted out from under it). *)
let refresh_member store m oid =
  let target =
    if antecedent_holds store m oid then target_of store m oid else None
  in
  let prev = Hashtbl.find_opt m.members oid in
  match prev, target with
  | Some told, Some tnew when Oid.equal told tnew -> ()
  | prev, target ->
    (match prev with
    | Some told ->
      member_remove store m ~target:told ~member:oid;
      Hashtbl.remove m.members oid
    | None -> ());
    (match target with
    | Some tnew ->
      member_add store m ~target:tnew ~member:oid;
      Hashtbl.replace m.members oid tnew
    | None -> ())

(* The members whose target may route through [oid]: set-valued
   inverse properties lead from an object down to the objects linking to
   it (a section's paragraphs), so a link write above the member class —
   a section moved to another document — re-derives exactly the members
   it can move.  Bounded by the number of classes, which cuts cycles. *)
let members_below store m oid =
  let schema = Object_store.schema store in
  let rec go depth oid =
    if String.equal (Oid.cls oid) m.spec.member_cls then [ oid ]
    else if depth = 0 || not (Object_store.exists store oid) then []
    else
      List.concat_map
        (fun (p : Schema.property) ->
          match p.Schema.prop_type, p.Schema.inverse with
          | Vtype.TSet (Vtype.TObj _), Some _ -> (
            match Object_store.peek_prop store oid p.Schema.prop_name with
            | Value.Set xs ->
              List.concat_map
                (function Value.Obj o -> go (depth - 1) o | _ -> [])
                xs
            | _ -> [])
          | _ -> [])
        (Schema.class_exn schema (Oid.cls oid)).Schema.properties
  in
  go (List.length (Schema.classes schema)) oid

let is_link store oid prop =
  match
    Schema.property_type (Object_store.schema store) ~cls:(Oid.cls oid) ~prop
  with
  | Some (Vtype.TObj _) -> true
  | _ -> false

let drop_member store m oid =
  match Hashtbl.find_opt m.members oid with
  | Some told ->
    member_remove store m ~target:told ~member:oid;
    Hashtbl.remove m.members oid
  | None -> ()

(* Target classes of a maintained set; needed to clear stale
   memberships on targets that end up with no desired members at all. *)
let target_classes store m =
  Soqm_semantics.Equivalence.owner_classes (Object_store.schema store) m.spec

(* Full re-derivation of one maintained set from base data — the
   rebuild-from-scratch path used at attach time and by {!resync}. *)
let reconcile_set store m =
  Hashtbl.reset m.members;
  let desired = Hashtbl.create 256 in
  List.iter
    (fun oid ->
      if antecedent_holds store m oid then
        match target_of store m oid with
        | Some target ->
          Hashtbl.replace m.members oid target;
          let cur = Option.value ~default:[] (Hashtbl.find_opt desired target) in
          Hashtbl.replace desired target (Value.Obj oid :: cur)
        | None -> ())
    (Object_store.extent store m.spec.member_cls);
  List.iter
    (fun cls ->
      List.iter
        (fun target ->
          let want =
            Value.set (Option.value ~default:[] (Hashtbl.find_opt desired target))
          in
          let have = Object_store.peek_prop store target m.spec.set_prop in
          let have = match have with Value.Set _ -> have | _ -> Value.Set [] in
          if not (Value.equal want have) then (
            Object_store.set_prop_derived store target m.spec.set_prop want;
            charge_implication store))
        (Object_store.extent store cls))
    (target_classes store m)

(* ------------------------------------------------------------------ *)
(* Index maintainers                                                   *)
(* ------------------------------------------------------------------ *)

let charge_postings store n =
  Counters.add (Object_store.counters store) Postings_touched n

let hash_index_observer store idx ev =
  let cls = Hash_index.cls idx and prop = Hash_index.prop idx in
  match ev with
  | Object_store.Created oid when String.equal (Oid.cls oid) cls ->
    (* mirrors [build]: unset properties are indexed under Null until the
       first Prop_set moves them *)
    Hash_index.insert idx Value.Null oid;
    charge_postings store 1
  | Object_store.Prop_set { oid; prop = p; old_value; new_value; _ }
    when String.equal (Oid.cls oid) cls && String.equal p prop ->
    Hash_index.delete idx old_value oid;
    Hash_index.insert idx new_value oid;
    charge_postings store 2
  | Object_store.Deleted { oid; props } when String.equal (Oid.cls oid) cls ->
    let v = Option.value ~default:Value.Null (List.assoc_opt prop props) in
    Hash_index.delete idx v oid;
    charge_postings store 1
  | _ -> ()

let sorted_index_observer store idx ev =
  let cls = Sorted_index.cls idx and prop = Sorted_index.prop idx in
  match ev with
  | Object_store.Prop_set { oid; prop = p; old_value; new_value; _ }
    when String.equal (Oid.cls oid) cls && String.equal p prop -> (
    match old_value, new_value with
    | Value.Null, Value.Null -> ()
    | Value.Null, v ->
      Sorted_index.insert idx v oid;
      charge_postings store 1
    | v, Value.Null ->
      Sorted_index.delete idx v oid;
      charge_postings store 1
    | old_value, new_value ->
      Sorted_index.replace idx ~old_value ~new_value oid;
      charge_postings store 2)
  | Object_store.Deleted { oid; props } when String.equal (Oid.cls oid) cls -> (
    match Option.value ~default:Value.Null (List.assoc_opt prop props) with
    | Value.Null -> ()
    | v ->
      Sorted_index.delete idx v oid;
      charge_postings store 1)
  | _ -> ()

let vocab_size text = List.length (Soqm_ir.Tokenizer.vocabulary text)

let text_index_observer store (cls, prop, idx) ev =
  match ev with
  | Object_store.Prop_set { oid; prop = p; old_value; new_value; _ }
    when String.equal (Oid.cls oid) cls && String.equal p prop -> (
    match old_value, new_value with
    | Value.Str old_text, Value.Str text ->
      Soqm_ir.Inverted_index.replace idx ~key:oid ~old_text ~text;
      charge_postings store (vocab_size old_text + vocab_size text)
    | _, Value.Str text ->
      Soqm_ir.Inverted_index.add idx ~key:oid ~text;
      charge_postings store (vocab_size text)
    | Value.Str old_text, _ ->
      Soqm_ir.Inverted_index.remove idx ~key:oid ~text:old_text;
      charge_postings store (vocab_size old_text)
    | _ -> ())
  | Object_store.Deleted { oid; props } when String.equal (Oid.cls oid) cls -> (
    match List.assoc_opt prop props with
    | Some (Value.Str text) ->
      Soqm_ir.Inverted_index.remove idx ~key:oid ~text;
      charge_postings store (vocab_size text)
    | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Statistics deltas                                                   *)
(* ------------------------------------------------------------------ *)

let set_size = function Value.Set xs -> List.length xs | _ -> 0

let stats_observer store stats ev =
  let charge () = Counters.incr (Object_store.counters store) Stats_deltas in
  match ev with
  | Object_store.Created oid ->
    Statistics.note_created stats ~cls:(Oid.cls oid);
    charge ()
  | Object_store.Deleted { oid; props } ->
    let cls = Oid.cls oid in
    Statistics.note_deleted stats ~cls;
    charge ();
    List.iter
      (fun (p, v) ->
        let d = set_size v in
        if d > 0 then (
          Statistics.note_set_size stats ~cls ~prop:p ~delta:(-d);
          charge ()))
      props
  | Object_store.Prop_set { oid; prop; old_value; new_value; _ } -> (
    let cls = Oid.cls oid in
    match
      Schema.property_type (Object_store.schema store) ~cls ~prop
    with
    | Some (Vtype.TSet _) ->
      let d = set_size new_value - set_size old_value in
      if d <> 0 then (
        Statistics.note_set_size stats ~cls ~prop ~delta:d;
        charge ())
    | _ ->
      Statistics.note_scalar_write stats ~cls ~prop;
      charge ())

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let maybe_recollect t =
  if Statistics.staleness t.stats >= t.policy.staleness_threshold then (
    Statistics.recollect t.stats t.store;
    t.recollects <- t.recollects + 1;
    bump_epoch t)

let observe t ev =
  List.iter (fun idx -> hash_index_observer t.store idx ev) t.hash_indexes;
  List.iter (fun idx -> sorted_index_observer t.store idx ev) t.sorted_indexes;
  List.iter (fun ti -> text_index_observer t.store ti ev) t.text_indexes;
  List.iter
    (fun m ->
      match ev with
      | Object_store.Created oid when String.equal (Oid.cls oid) m.spec.member_cls ->
        refresh_member t.store m oid
      | Object_store.Prop_set { oid; prop; _ }
        when String.equal (Oid.cls oid) m.spec.member_cls
             && not (String.equal prop m.spec.set_prop) ->
        (* own set-prop writes are skipped so a maintained set over its
           own member class cannot re-trigger itself *)
        refresh_member t.store m oid
      | Object_store.Prop_set { oid; prop; _ } when is_link t.store oid prop ->
        List.iter (refresh_member t.store m) (members_below t.store m oid)
      | Object_store.Deleted { oid; _ }
        when String.equal (Oid.cls oid) m.spec.member_cls ->
        drop_member t.store m oid
      | _ -> ())
    t.sets;
  stats_observer t.store t.stats ev;
  maybe_recollect t

let resync t =
  List.iter (fun m -> reconcile_set t.store m) t.sets;
  Statistics.recollect t.stats t.store;
  t.recollects <- t.recollects + 1;
  bump_epoch t

let attach ?(policy = default_policy) ?(hash_indexes = [])
    ?(sorted_indexes = []) ?(text_indexes = []) ?(implications = [])
    ?set_members ~stats store =
  let sets = List.filter_map compile_implication implications in
  let t =
    {
      store;
      stats;
      policy;
      hash_indexes;
      sorted_indexes;
      text_indexes;
      sets;
      epoch = 0;
      recollects = 0;
    }
  in
  (* a maintained set is derived data: user writes to it would make it
     disagree with its definition, which the optimizer relies on *)
  List.iter
    (fun m ->
      List.iter
        (fun cls ->
          Object_store.guard_derived store ~cls ~prop:m.spec.set_prop
            ~owner:m.spec.m_name)
        (target_classes store m))
    sets;
  (* bring the maintained sets in line with base data before observing —
     attach is the rebuild-from-scratch moment; indexes and statistics
     are the caller's to have built (Db does both in [refresh]).  With
     [set_members] (the persisted-image fast path) a named set's members
     table is seeded wholesale instead: the base data's derived set
     props already hold these memberships, so the O(extent) reconcile
     (an antecedent evaluation per member-class instance) is skipped. *)
  List.iter
    (fun m ->
      match
        Option.bind set_members (fun seeds -> List.assoc_opt m.spec.m_name seeds)
      with
      | Some members ->
        List.iter
          (fun (mem, tgt) -> Hashtbl.replace m.members mem tgt)
          members
      | None -> reconcile_set store m)
    sets;
  Object_store.subscribe store (observe t);
  t
