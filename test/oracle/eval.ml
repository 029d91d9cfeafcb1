open Soqm_vml
open Soqm_algebra

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let eval_expr store tuple e =
  let binding r = Relation.Tuple.find_opt r tuple in
  try Runtime.eval (Runtime.env ~binding store) e
  with Runtime.Error msg -> error "expression %s: %s" (Expr.to_string e) msg

(* The evaluator charges the store's counters so experiments can report
   tuples actually touched by the reference interpreter alongside the
   deterministic method-call costs. *)
let counters store = Object_store.counters store

(* ------------------------------------------------------------------ *)
(* Hash-based bulk operations                                          *)
(* ------------------------------------------------------------------ *)

module Tbl = Hashtbl.Make (Relation.Tuple)

module KeyTbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal a b = List.equal Value.equal a b
  let hash (k : t) = Hashtbl.hash_param 64 256 k
end)

let key key_refs (t : Relation.tuple) = List.map (fun r -> List.assoc r t) key_refs

let index t key_refs =
  let tbl = KeyTbl.create (max 16 (Relation.cardinality t)) in
  List.iter
    (fun tup ->
      let k = key key_refs tup in
      match KeyTbl.find_opt tbl k with
      | Some prev -> KeyTbl.replace tbl k (tup :: prev)
      | None -> KeyTbl.add tbl k [ tup ])
    (Relation.tuples t);
  tbl

let mem_set t =
  let tbl = Tbl.create (max 16 (Relation.cardinality t)) in
  List.iter (fun tup -> Tbl.replace tbl tup ()) (Relation.tuples t);
  fun tup -> Tbl.mem tbl tup

let natural_join r1 r2 =
  let refs2 = Relation.refs r2 in
  let shared = List.filter (fun r -> List.mem r refs2) (Relation.refs r1) in
  let out_refs = List.sort_uniq String.compare (Relation.refs r1 @ refs2) in
  (* build the hash index on the smaller side, probe with the larger *)
  let build, probe =
    if Relation.cardinality r1 <= Relation.cardinality r2 then (r1, r2)
    else (r2, r1)
  in
  let idx = index build shared in
  Relation.make ~refs:out_refs
    (List.concat_map
       (fun tp ->
         match KeyTbl.find_opt idx (key shared tp) with
         | None -> []
         | Some matches ->
           List.map (fun tb -> Relation.Tuple.merge_sorted tp tb) matches)
       (Relation.tuples probe))

let union a b =
  if not (Relation.same_refs a b) then
    invalid_arg "Eval.union: arguments have differing references";
  let in_a = mem_set a in
  Relation.make ~refs:(Relation.refs a)
    (Relation.tuples a
    @ List.filter (fun tup -> not (in_a tup)) (Relation.tuples b))

let diff a b =
  if not (Relation.same_refs a b) then
    invalid_arg "Eval.diff: arguments have differing references";
  let in_b = mem_set b in
  Relation.make ~refs:(Relation.refs a)
    (List.filter (fun tup -> not (in_b tup)) (Relation.tuples a))

(* ------------------------------------------------------------------ *)
(* The interpreter                                                     *)
(* ------------------------------------------------------------------ *)

(* A theta join whose condition is a top-level equality with one side
   ranging over each input evaluates as a hash join: [Some (e1, e2)] with
   [e1] over [refs1] and [e2] over [refs2]. *)
let equi_join_split cond refs1 refs2 =
  match (cond : Expr.t) with
  | Expr.Binop (Expr.Eq, a, b) ->
    let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
    let ra = Expr.refs a and rb = Expr.refs b in
    if subset ra refs1 && subset rb refs2 then Some (a, b)
    else if subset ra refs2 && subset rb refs1 then Some (b, a)
    else None
  | _ -> None

let rec run store (t : General.t) : Relation.t =
  let refs_of t = try General.refs t with Invalid_argument msg -> error "%s" msg in
  match t with
  | Unit -> Relation.make ~refs:[] [ [] ]
  | Get (a, cls) ->
    let oids =
      try Object_store.extent store cls
      with Invalid_argument msg -> error "%s" msg
    in
    Relation.of_values a (List.map (fun o -> Value.Obj o) oids)
  | MethodSource (a, e) -> (
    match eval_expr store [] e with
    | Value.Set vs -> Relation.of_values a vs
    | v -> error "source expression produced non-set %s" (Value.to_string v))
  | Select (cond, s) ->
    let input = run store s in
    let keep tup = Value.truthy (eval_expr store tup cond) in
    let out =
      Relation.make ~refs:(Relation.refs input)
        (List.filter keep (Relation.tuples input))
    in
    Counters.add (counters store) Tuples_produced (Relation.cardinality out);
    out
  | NaturalJoin (s1, s2) ->
    let r1 = run store s1 and r2 = run store s2 in
    let out = natural_join r1 r2 in
    Counters.add (counters store) Index_probes
      (max (Relation.cardinality r1) (Relation.cardinality r2));
    Counters.add (counters store) Tuples_produced (Relation.cardinality out);
    out
  | Union (s1, s2) ->
    let r1 = run store s1 and r2 = run store s2 in
    if not (Relation.same_refs r1 r2) then
      error "union arguments have differing references";
    let out = union r1 r2 in
    Counters.add (counters store) Tuples_produced (Relation.cardinality out);
    out
  | Diff (s1, s2) ->
    let r1 = run store s1 and r2 = run store s2 in
    if not (Relation.same_refs r1 r2) then
      error "diff arguments have differing references";
    let out = diff r1 r2 in
    Counters.add (counters store) Index_probes (Relation.cardinality r1);
    Counters.add (counters store) Tuples_produced (Relation.cardinality out);
    out
  | Join (cond, s1, s2) ->
    let r1 = run store s1 and r2 = run store s2 in
    let refs1 = Relation.refs r1 and refs2 = Relation.refs r2 in
    let out_refs = List.sort_uniq String.compare (refs1 @ refs2) in
    if List.length out_refs <> List.length refs1 + List.length refs2 then
      error "join arguments share references";
    let tuples =
      match equi_join_split cond refs1 refs2 with
      | _ when Relation.cardinality r1 = 0 || Relation.cardinality r2 = 0 ->
        (* no pairs: the seed evaluator never touched the condition here *)
        []
      | Some (e1, e2) ->
        (* hash equi-join: one key evaluation per input tuple instead of
           one condition evaluation per tuple pair.  Null keys never
           match, mirroring [eval_binop Eq]'s null semantics. *)
        let idx = KeyTbl.create (max 16 (Relation.cardinality r2)) in
        List.iter
          (fun t2 ->
            match eval_expr store t2 e2 with
            | Value.Null -> ()
            | k -> (
              match KeyTbl.find_opt idx [ k ] with
              | Some prev -> KeyTbl.replace idx [ k ] (t2 :: prev)
              | None -> KeyTbl.add idx [ k ] [ t2 ]))
          (Relation.tuples r2);
        Counters.add (counters store) Index_probes (Relation.cardinality r1);
        List.concat_map
          (fun t1 ->
            match eval_expr store t1 e1 with
            | Value.Null -> []
            | k -> (
              match KeyTbl.find_opt idx [ k ] with
              | None -> []
              | Some matches ->
                List.map (fun t2 -> Relation.Tuple.merge_sorted t1 t2) matches))
          (Relation.tuples r1)
      | None ->
        let always_true =
          match cond with Expr.Const (Value.Bool true) -> true | _ -> false
        in
        List.concat_map
          (fun t1 ->
            List.filter_map
              (fun t2 ->
                let merged = Relation.Tuple.merge_sorted t1 t2 in
                if always_true || Value.truthy (eval_expr store merged cond)
                then Some merged
                else None)
              (Relation.tuples r2))
          (Relation.tuples r1)
    in
    let out = Relation.make ~refs:out_refs tuples in
    Counters.add (counters store) Tuples_produced (Relation.cardinality out);
    out
  | Map (a, e, s) ->
    let input = run store s in
    if List.mem a (Relation.refs input) then
      error "map target reference %S already present" a;
    Counters.add (counters store) Tuples_produced (Relation.cardinality input);
    Relation.make ~refs:(a :: Relation.refs input)
      (List.map
         (fun tup ->
           Relation.Tuple.insert (a, eval_expr store tup e) tup)
         (Relation.tuples input))
  | Flat (a, e, s) ->
    let input = run store s in
    if List.mem a (Relation.refs input) then
      error "flat target reference %S already present" a;
    let out =
      Relation.make ~refs:(a :: Relation.refs input)
        (List.concat_map
           (fun tup ->
             match eval_expr store tup e with
             | Value.Set vs ->
               List.map (fun v -> Relation.Tuple.insert (a, v) tup) vs
             | Value.Null -> []
             | v ->
               error "flat expression produced non-set %s" (Value.to_string v))
           (Relation.tuples input))
    in
    Counters.add (counters store) Tuples_produced (Relation.cardinality out);
    out
  | Project (rs, s) ->
    let input = run store s in
    let rs = List.sort_uniq String.compare rs in
    List.iter
      (fun r ->
        if not (List.mem r (Relation.refs input)) then
          error "projection reference %S not present" r)
      rs;
    ignore (refs_of t);
    let out =
      Relation.make ~refs:rs
        (List.map (fun tup -> Relation.Tuple.project rs tup) (Relation.tuples input))
    in
    Counters.add (counters store) Tuples_produced (Relation.cardinality out);
    out

let run_query (database : Soqm_core.Db.t) src =
  let store = database.Soqm_core.Db.store in
  let term = Soqm_vql.To_algebra.query_to_algebra (Object_store.schema store) src in
  let c = Object_store.counters store in
  Counters.reset c Query;
  let t0 = Unix.gettimeofday () in
  let result = run store term in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  { Soqm_core.Engine.result; counters = Counters.snapshot c; opt = None; elapsed_s }
