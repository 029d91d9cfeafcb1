(* The tuple-at-a-time physical executor: one canonical tuple per
   [next ()], references resolved by name with assoc lookups on every
   row.  The reference the compiled executor is property-tested and
   benchmarked against. *)

open Soqm_vml
open Soqm_algebra
open Soqm_physical

type iter = { next : unit -> Relation.tuple option; close : unit -> unit }

let error fmt = Format.kasprintf (fun s -> raise (Exec.Error s)) fmt
let counters (ctx : Exec.ctx) = Object_store.counters ctx.store

let operand_value tuple = function
  | Restricted.ORef r -> (
    match Relation.Tuple.find_opt r tuple with
    | Some v -> v
    | None -> error "unbound reference %S in physical plan" r)
  | Restricted.OConst v -> v
  | Restricted.OParam p -> error "unresolved specification parameter %S" p

let receiver_value tuple = function
  | Restricted.RRef r -> operand_value tuple (Restricted.ORef r)
  | Restricted.RClass c -> Value.Cls c

let of_list tuples =
  let remaining = ref tuples in
  {
    next =
      (fun () ->
        match !remaining with
        | [] -> None
        | t :: rest ->
          remaining := rest;
          Some t);
    close = (fun () -> remaining := []);
  }

let drain iter =
  let rec go acc =
    match iter.next () with None -> List.rev acc | Some t -> go (t :: acc)
  in
  let tuples = go [] in
  iter.close ();
  tuples

(* One output tuple per input tuple, extended with [a := f tuple]. *)
let extend ctx a f input =
  {
    next =
      (fun () ->
        match input.next () with
        | None -> None
        | Some tuple ->
          Counters.incr (counters ctx) Tuples_produced;
          Some (Relation.Tuple.insert (a, f tuple) tuple));
    close = input.close;
  }

(* One output tuple per member of the set [f tuple]. *)
let unnest ctx a f input =
  let pending = ref [] in
  let rec next () =
    match !pending with
    | t :: rest ->
      pending := rest;
      Counters.incr (counters ctx) Tuples_produced;
      Some t
    | [] -> (
      match input.next () with
      | None -> None
      | Some tuple ->
        (match f tuple with
        | Value.Set members ->
          pending :=
            List.map (fun v -> Relation.Tuple.insert (a, v) tuple) members
        | Value.Null -> pending := []
        | v -> error "flat operator produced non-set %s" (Value.to_string v));
        next ())
  in
  { next; close = input.close }

let rec open_plan (ctx : Exec.ctx) (plan : Plan.t) : iter =
  match plan with
  | Plan.Unit -> of_list [ [] ]
  | Plan.FullScan (a, cls) ->
    let oids =
      try Object_store.extent ctx.store cls
      with Invalid_argument msg -> error "%s" msg
    in
    let tuples =
      List.map
        (fun o ->
          Counters.incr (counters ctx) Objects_fetched;
          [ (a, Value.Obj o) ])
        oids
    in
    of_list tuples
  | Plan.IndexScan (a, cls, prop, key) -> (
    match Exec.hash_index ctx ~cls ~prop with
    | Some idx ->
      let oids = Soqm_storage.Hash_index.probe idx (counters ctx) key in
      of_list (List.map (fun o -> [ (a, Value.Obj o) ]) oids)
    | None -> error "no index on %s.%s" cls prop)
  | Plan.RangeScan (a, cls, prop, lo, hi) -> (
    match Exec.sorted_index ctx ~cls ~prop with
    | Some idx ->
      let oids = Soqm_storage.Sorted_index.probe_range idx (counters ctx) ~lo ~hi in
      of_list (List.map (fun o -> [ (a, Value.Obj o) ]) oids)
    | None -> error "no ordered index on %s.%s" cls prop)
  | Plan.MethodScan (a, cls, m, args) -> (
    match
      try Runtime.invoke ctx.store (Value.Cls cls) m args
      with Runtime.Error msg -> error "%s" msg
    with
    | Value.Set members -> of_list (List.map (fun v -> [ (a, v) ]) members)
    | v ->
      error "method scan %s->%s produced non-set %s" cls m (Value.to_string v))
  | Plan.Filter (c, x, y, input) ->
    let input = open_plan ctx input in
    let rec next () =
      match input.next () with
      | None -> None
      | Some tuple ->
        if
          Value.truthy
            (Exec.eval_cmp c (operand_value tuple x) (operand_value tuple y))
        then (
          Counters.incr (counters ctx) Tuples_produced;
          Some tuple)
        else next ()
    in
    { next; close = input.close }
  | Plan.NestedLoop (pred, left, right) ->
    let left = open_plan ctx left in
    let right_tuples = lazy (drain (open_plan ctx right)) in
    let current = ref None in
    let remaining = ref [] in
    let rec next () =
      match !remaining with
      | rt :: rest -> (
        remaining := rest;
        match !current with
        | None -> next ()
        | Some lt ->
          let merged = Relation.Tuple.merge_sorted lt rt in
          let keep =
            match pred with
            | None -> true
            | Some (c, a1, a2) ->
              Value.truthy
                (Exec.eval_cmp c
                   (operand_value merged (Restricted.ORef a1))
                   (operand_value merged (Restricted.ORef a2)))
          in
          if keep then (
            Counters.incr (counters ctx) Tuples_produced;
            Some merged)
          else next ())
      | [] -> (
        match left.next () with
        | None -> None
        | Some lt ->
          current := Some lt;
          remaining := Lazy.force right_tuples;
          next ())
    in
    { next; close = left.close }
  | Plan.HashJoin (a1, a2, left, right) ->
    (* equi-join: Null keys never match (DESIGN.md §7), so they are
       skipped on both the build and the probe side — mirroring the
       logical evaluator's hash equi-join fast path. *)
    let left = open_plan ctx left in
    let table =
      lazy
        (let tbl = Hashtbl.create 256 in
         List.iter
           (fun rt ->
             match operand_value rt (Restricted.ORef a2) with
             | Value.Null -> ()
             | key -> Hashtbl.add tbl key rt)
           (drain (open_plan ctx right));
         tbl)
    in
    let pending = ref [] in
    let rec next () =
      match !pending with
      | t :: rest ->
        pending := rest;
        Counters.incr (counters ctx) Tuples_produced;
        Some t
      | [] -> (
        match left.next () with
        | None -> None
        | Some lt ->
          (match operand_value lt (Restricted.ORef a1) with
          | Value.Null -> pending := []
          | key ->
            pending :=
              List.map
                (fun rt -> Relation.Tuple.merge_sorted lt rt)
                (Hashtbl.find_all (Lazy.force table) key));
          next ())
    in
    { next; close = left.close }
  | Plan.NaturalJoin (left_plan, right_plan) ->
    let left = open_plan ctx left_plan in
    let shared =
      List.filter
        (fun r -> List.mem r (Plan.refs right_plan))
        (Plan.refs left_plan)
    in
    let table =
      lazy
        (let tbl = Eval.KeyTbl.create 256 in
         List.iter
           (fun rt ->
             let key = Eval.key shared rt in
             match Eval.KeyTbl.find_opt tbl key with
             | Some prev -> Eval.KeyTbl.replace tbl key (rt :: prev)
             | None -> Eval.KeyTbl.add tbl key [ rt ])
           (drain (open_plan ctx right_plan));
         tbl)
    in
    let pending = ref [] in
    let rec next () =
      match !pending with
      | t :: rest ->
        pending := rest;
        Counters.incr (counters ctx) Tuples_produced;
        Some t
      | [] -> (
        match left.next () with
        | None -> None
        | Some lt ->
          let key = Eval.key shared lt in
          let matches =
            Option.value ~default:[]
              (Eval.KeyTbl.find_opt (Lazy.force table) key)
          in
          pending :=
            List.map (fun rt -> Relation.Tuple.merge_sorted lt rt) matches;
          next ())
    in
    { next; close = left.close }
  | Plan.Union (left, right) ->
    let left = open_plan ctx left in
    let right = lazy (open_plan ctx right) in
    let on_right = ref false in
    let rec next () =
      if !on_right then (Lazy.force right).next ()
      else
        match left.next () with
        | Some t -> Some t
        | None ->
          on_right := true;
          next ()
    in
    {
      next;
      close =
        (fun () ->
          left.close ();
          if Lazy.is_val right then (Lazy.force right).close ());
    }
  | Plan.Diff (left, right) ->
    let left = open_plan ctx left in
    let excluded =
      lazy
        (let tbl = Eval.Tbl.create 256 in
         List.iter
           (fun t -> Eval.Tbl.replace tbl t ())
           (drain (open_plan ctx right));
         tbl)
    in
    let rec next () =
      match left.next () with
      | None -> None
      | Some t ->
        if Eval.Tbl.mem (Lazy.force excluded) t then next () else Some t
    in
    { next; close = left.close }
  | Plan.MapProp (a, p, a1, input) ->
    let access =
      Exec.memoized1 (fun recv ->
          try Runtime.access ctx.store recv p
          with Runtime.Error msg -> error "%s" msg)
    in
    extend ctx a
      (fun tuple -> access (operand_value tuple (Restricted.ORef a1)))
      (open_plan ctx input)
  | Plan.MapMeth (a, m, recv, args, input) ->
    let call =
      Exec.memoized1 (fun (rv, avs) ->
          try Runtime.invoke ctx.store rv m avs
          with Runtime.Error msg -> error "%s" msg)
    in
    extend ctx a
      (fun tuple ->
        call (receiver_value tuple recv, List.map (operand_value tuple) args))
      (open_plan ctx input)
  | Plan.FlatProp (a, p, a1, input) ->
    let access =
      Exec.memoized1 (fun recv ->
          try Runtime.access ctx.store recv p
          with Runtime.Error msg -> error "%s" msg)
    in
    unnest ctx a
      (fun tuple -> access (operand_value tuple (Restricted.ORef a1)))
      (open_plan ctx input)
  | Plan.FlatMeth (a, m, recv, args, input) ->
    let call =
      Exec.memoized1 (fun (rv, avs) ->
          try Runtime.invoke ctx.store rv m avs
          with Runtime.Error msg -> error "%s" msg)
    in
    unnest ctx a
      (fun tuple ->
        call (receiver_value tuple recv, List.map (operand_value tuple) args))
      (open_plan ctx input)
  | Plan.MapOp (a, op, xs, input) ->
    extend ctx a
      (fun tuple -> Exec.eval_op op (List.map (operand_value tuple) xs))
      (open_plan ctx input)
  | Plan.FlatOp (a, op, xs, input) ->
    unnest ctx a
      (fun tuple -> Exec.eval_op op (List.map (operand_value tuple) xs))
      (open_plan ctx input)
  | Plan.Project (rs, input) ->
    let rs = List.sort_uniq String.compare rs in
    let input = open_plan ctx input in
    let seen = Eval.Tbl.create 256 in
    let rec next () =
      match input.next () with
      | None -> None
      | Some tuple ->
        let projected = Relation.Tuple.project rs tuple in
        if Eval.Tbl.mem seen projected then next ()
        else (
          Eval.Tbl.replace seen projected ();
          Counters.incr (counters ctx) Tuples_produced;
          Some projected)
    in
    { next; close = input.close }

let run ctx plan =
  let iter = open_plan ctx plan in
  let tuples = drain iter in
  Relation.make ~refs:(Plan.refs plan) tuples
