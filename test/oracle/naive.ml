(* The seed's list-based relational operators, retained verbatim as the
   asymptotically-dumb reference: the property tests check the hash-based
   operators in [Eval] against these, and bench/scaling.ml uses them
   as the baseline for the evaluator-overhead comparison. *)

open Soqm_vml
open Soqm_algebra

let natural_join r1 r2 =
  let shared =
    List.filter (fun r -> List.mem r (Relation.refs r2)) (Relation.refs r1)
  in
  let out_refs =
    List.sort_uniq String.compare (Relation.refs r1 @ Relation.refs r2)
  in
  let joins t1 t2 =
    List.for_all
      (fun r -> Value.equal (Relation.field t1 r) (Relation.field t2 r))
      shared
  in
  let merge t1 t2 =
    let extra = List.filter (fun (r, _) -> not (List.mem_assoc r t1)) t2 in
    Relation.tuple_make (t1 @ extra)
  in
  Relation.make ~refs:out_refs
    (List.concat_map
       (fun t1 ->
         List.filter_map
           (fun t2 -> if joins t1 t2 then Some (merge t1 t2) else None)
           (Relation.tuples r2))
       (Relation.tuples r1))

let union r1 r2 =
  if not (Relation.same_refs r1 r2) then
    invalid_arg "Naive.union: arguments have differing references";
  Relation.make ~refs:(Relation.refs r1)
    (Relation.tuples r1 @ Relation.tuples r2)

let diff r1 r2 =
  if not (Relation.same_refs r1 r2) then
    invalid_arg "Naive.diff: arguments have differing references";
  let in_r2 tup = List.exists (fun t2 -> t2 = tup) (Relation.tuples r2) in
  Relation.make ~refs:(Relation.refs r1)
    (List.filter (fun tup -> not (in_r2 tup)) (Relation.tuples r1))

let join pred r1 r2 =
  let out_refs =
    List.sort_uniq String.compare (Relation.refs r1 @ Relation.refs r2)
  in
  if
    List.length out_refs
    <> List.length (Relation.refs r1) + List.length (Relation.refs r2)
  then invalid_arg "Naive.join: arguments share references";
  Relation.make ~refs:out_refs
    (List.concat_map
       (fun t1 ->
         List.filter_map
           (fun t2 ->
             let merged = Relation.tuple_make (t1 @ t2) in
             if pred merged then Some merged else None)
           (Relation.tuples r2))
       (Relation.tuples r1))
