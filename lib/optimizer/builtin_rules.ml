open Soqm_vml
open Soqm_algebra

(* ------------------------------------------------------------------ *)
(* Helpers over unary operators                                        *)
(* ------------------------------------------------------------------ *)

(* The reference produced by a unary extend operator, if any. *)
let produces = function
  | Restricted.MapProperty (a, _, _, _)
  | Restricted.MapMethod (a, _, _, _, _)
  | Restricted.FlatProperty (a, _, _, _)
  | Restricted.FlatMethod (a, _, _, _, _)
  | Restricted.MapOperator (a, _, _, _)
  | Restricted.FlatOperator (a, _, _, _) ->
    Some a
  | _ -> None

let operand_refs xs =
  List.filter_map
    (function Restricted.ORef r -> Some r | Restricted.OConst _ | Restricted.OParam _ -> None)
    xs

let receiver_refs = function
  | Restricted.RRef r -> [ r ]
  | Restricted.RClass _ -> []

(* References the root operator reads. *)
let uses = function
  | Restricted.SelectCmp (_, x, y, _) -> operand_refs [ x; y ]
  | Restricted.MapProperty (_, _, a1, _) | Restricted.FlatProperty (_, _, a1, _) ->
    [ a1 ]
  | Restricted.MapMethod (_, _, r, xs, _) | Restricted.FlatMethod (_, _, r, xs, _) ->
    receiver_refs r @ operand_refs xs
  | Restricted.MapOperator (_, _, xs, _) | Restricted.FlatOperator (_, _, xs, _) ->
    operand_refs xs
  | _ -> []

let is_reorderable_unary = function
  | Restricted.SelectCmp _ | Restricted.MapProperty _ | Restricted.MapMethod _
  | Restricted.FlatProperty _ | Restricted.FlatMethod _ | Restricted.MapOperator _
  | Restricted.FlatOperator _ ->
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Native transformations                                              *)
(* ------------------------------------------------------------------ *)

let commute_unary =
  Rule.native "commute-unary" (fun _schema term ->
      match Restricted.inputs term with
      | [ inner ] when is_reorderable_unary term && is_reorderable_unary inner -> (
        match Restricted.inputs inner with
        | [ base ] ->
          let outer_ok =
            match produces inner with
            | Some a -> not (List.mem a (uses term))
            | None -> true
          in
          if outer_ok then
            (* op1(op2(base)) -> op2(op1(base)) *)
            let new_inner = Restricted.with_inputs term [ base ] in
            [ Restricted.with_inputs inner [ new_inner ] ]
          else []
        | _ -> [])
      | _ -> [])

let join_inputs = function
  | Restricted.Cross (s1, s2) | Restricted.JoinCmp (_, _, _, s1, s2)
  | Restricted.NaturalJoin (s1, s2) ->
    Some (s1, s2)
  | _ -> None

let rebuild_join term s1 s2 =
  match term with
  | Restricted.Cross _ -> Restricted.Cross (s1, s2)
  | Restricted.JoinCmp (c, a1, a2, _, _) -> Restricted.JoinCmp (c, a1, a2, s1, s2)
  | Restricted.NaturalJoin _ -> Restricted.NaturalJoin (s1, s2)
  | _ -> assert false

let select_join_interchange =
  Rule.native "select-join-interchange" (fun _schema term ->
      let push =
        match term with
        | Restricted.SelectCmp (c, x, y, join) -> (
          match join_inputs join with
          | Some (s1, s2) ->
            let needed = operand_refs [ x; y ] in
            let into side other build =
              let refs = Restricted.refs side in
              if List.for_all (fun r -> List.mem r refs) needed then
                [ build (Restricted.SelectCmp (c, x, y, side)) other ]
              else []
            in
            into s1 s2 (fun s1' s2' -> rebuild_join join s1' s2')
            @ into s2 s1 (fun s2' s1' -> rebuild_join join s1' s2')
          | None -> [])
        | _ -> []
      in
      let pull =
        match join_inputs term with
        | Some (Restricted.SelectCmp (c, x, y, s1), s2) ->
          [ Restricted.SelectCmp (c, x, y, rebuild_join term s1 s2) ]
        | Some (s1, Restricted.SelectCmp (c, x, y, s2)) ->
          [ Restricted.SelectCmp (c, x, y, rebuild_join term s1 s2) ]
        | _ -> []
      in
      push @ pull)

let flip_cmp = function
  | Restricted.CEq -> Some Restricted.CEq
  | Restricted.CNeq -> Some Restricted.CNeq
  | Restricted.CLt -> Some Restricted.CGt
  | Restricted.CLe -> Some Restricted.CGe
  | Restricted.CGt -> Some Restricted.CLt
  | Restricted.CGe -> Some Restricted.CLe
  | Restricted.CIsIn | Restricted.CIsSubset -> None

(* select<a θ b>(cross(S1, S2)) with a and b from different sides is the
   explicit theta join — the form implementation rules for joins need. *)
let select_cross_to_join =
  Rule.native "select-cross-to-join" (fun _schema term ->
      match term with
      | Restricted.SelectCmp
          (c, Restricted.ORef a, Restricted.ORef b, Restricted.Cross (s1, s2)) ->
        let r1 = try Restricted.refs s1 with Invalid_argument _ -> [] in
        let r2 = try Restricted.refs s2 with Invalid_argument _ -> [] in
        if List.mem a r1 && List.mem b r2 then
          [ Restricted.JoinCmp (c, a, b, s1, s2) ]
        else if List.mem b r1 && List.mem a r2 then
          match flip_cmp c with
          | Some c' -> [ Restricted.JoinCmp (c', b, a, s1, s2) ]
          | None -> []
        else []
      (* one direction only: dissolving joins back into products inflates
         the search space without opening new plans (the join
         implementations already include the nested loop) *)
      | _ -> [])

let join_commute =
  Rule.native "join-commute" (fun _schema term ->
      match term with
      | Restricted.Cross (s1, s2) -> [ Restricted.Cross (s2, s1) ]
      | Restricted.NaturalJoin (s1, s2) -> [ Restricted.NaturalJoin (s2, s1) ]
      | Restricted.JoinCmp (c, a1, a2, s1, s2) -> (
        match flip_cmp c with
        | Some c' -> [ Restricted.JoinCmp (c', a2, a1, s2, s1) ]
        | None -> [])
      | _ -> [])

let join_associate =
  Rule.native "join-associate" (fun _schema term ->
      match term with
      | Restricted.Cross (Restricted.Cross (a, b), c) ->
        [ Restricted.Cross (a, Restricted.Cross (b, c)) ]
      | Restricted.Cross (a, Restricted.Cross (b, c)) ->
        [ Restricted.Cross (Restricted.Cross (a, b), c) ]
      | _ -> [])

(* Example 8.  map_property<a3, p2, a2>(map_property<a2, p1, a1>(A))
   becomes an explicit join of A's path step with a scan of the class C
   that a2 ranges over:
   project<old refs>(join<a2 == j>(map_property<a2,p1,a1>(A),
                                   map_property<a3, p2, j>(get<j, C>))) *)
let path_to_join =
  Rule.native "path-to-join" (fun schema term ->
      match term with
      | Restricted.MapProperty
          (a3, p2, a2, (Restricted.MapProperty (a2', _, _, _) as inner))
        when String.equal a2 a2' -> (
        let env = Restricted.infer schema inner in
        match List.assoc_opt a2 env with
        | Some (Vtype.TObj cls) ->
          let j =
            Printf.sprintf "$pj.%d"
              (Hashtbl.hash (Restricted.to_string term) land 0xFFFFFF)
          in
          let scan_side =
            Restricted.MapProperty (a3, p2, j, Restricted.Get (j, cls))
          in
          let joined = Restricted.JoinCmp (Restricted.CEq, a2, j, inner, scan_side) in
          [ Restricted.Project (Restricted.refs term, joined) ]
        | _ -> [])
      | _ -> [])

(* Peel the unary reorderable operators off a term: returns the operator
   stack (outermost first) and the base below it. *)
let unstack term =
  let rec go acc t =
    if is_reorderable_unary t then
      match Restricted.inputs t with [ s ] -> go (t :: acc) s | _ -> (acc, t)
    else (acc, t)
  in
  let rev_ops, base = go [] term in
  (List.rev rev_ops, base)

let restack ops base =
  (* ops outermost first *)
  List.fold_right (fun op acc -> Restricted.with_inputs op [ acc ]) ops base

(* natural_join(C1(Z), C2(Z)) -> C1(C2(Z)): when both join inputs are
   unary chains over the same base, the join (a semijoin on Ref(Z)) is a
   cascade — this is what turns the implication rules' conjunction into
   an orderable cascade of predicates.  The right chain may sit under a
   projection back to Ref(Z) (the shape the implication rule produces);
   then the cascade is projected back to the join's references. *)
let natjoin_to_cascade =
  Rule.native "natjoin-to-cascade" (fun _schema term ->
      match term with
      | Restricted.NaturalJoin (x, y) -> (
        let _, base1 = unstack x in
        let strip_project t =
          match t with
          | Restricted.Project (rs, inner)
            when (try List.sort_uniq String.compare rs = Restricted.refs base1
                  with Invalid_argument _ -> false) ->
            inner
          | _ -> t
        in
        let ops1, _ = unstack x in
        let ops2, base2 = unstack (strip_project y) in
        if Restricted.equal base1 base2 then
          let cascade = restack ops1 (restack ops2 base1) in
          match Restricted.refs term with
          | want ->
            if
              (try Restricted.refs cascade = want with Invalid_argument _ -> false)
            then [ cascade ]
            else [ Restricted.Project (want, cascade) ]
          | exception Invalid_argument _ -> []
        else [])
      | _ -> [])

(* select and project interchange when the selection's operands survive
   the projection; lets selections reach joins through the projections
   rules like path-to-join introduce. *)
let select_project_interchange =
  Rule.native "select-project-interchange" (fun _schema term ->
      match term with
      | Restricted.SelectCmp (c, x, y, Restricted.Project (rs, inner)) ->
        [ Restricted.Project (rs, Restricted.SelectCmp (c, x, y, inner)) ]
      | Restricted.Project (rs, Restricted.SelectCmp (c, x, y, inner)) ->
        let needed = operand_refs [ x; y ] in
        if List.for_all (fun r -> List.mem r rs) needed then
          [ Restricted.SelectCmp (c, x, y, Restricted.Project (rs, inner)) ]
        else []
      | _ -> [])

let natjoin_idempotent =
  Rule.native "natjoin-idempotent" (fun _schema term ->
      match term with
      | Restricted.NaturalJoin (x, y) when Restricted.equal x y -> [ x ]
      | _ -> [])

(* Hoist a tuple-independent membership test off a class scan:
   select<x IS-IN w>(Chain(get<x, C>)) where no operator of Chain depends
   on x and w : {C} becomes flat<x from w>(Chain(unit)) — the form whose
   implementation needs no extent scan at all (plan PQ evaluates two
   method calls and intersects). Sound because every live instance of C
   is in C's extent. *)
let hoist_const_membership =
  Rule.native "hoist-const-membership" (fun schema term ->
      match term with
      | Restricted.SelectCmp (Restricted.CIsIn, Restricted.ORef x, Restricted.ORef w, input)
        -> (
        let ops, base = unstack input in
        match base with
        | Restricted.Get (x', cls) when String.equal x x' ->
          let x_independent =
            List.for_all (fun op -> not (List.mem x (uses op))) ops
          in
          let env = Restricted.infer schema input in
          let w_is_c_set =
            List.assoc_opt w env = Some (Soqm_vml.Vtype.TSet (Soqm_vml.Vtype.TObj cls))
          in
          if x_independent && w_is_c_set then
            [
              Restricted.FlatOperator
                ( x,
                  Restricted.OpIdent,
                  [ Restricted.ORef w ],
                  restack ops Restricted.Unit );
            ]
          else []
        | _ -> [])
      | _ -> [])

let transformations =
  [
    commute_unary;
    select_join_interchange;
    select_project_interchange;
    select_cross_to_join;
    join_commute;
    join_associate;
    path_to_join;
    natjoin_to_cascade;
    natjoin_idempotent;
    hoist_const_membership;
  ]

(* ------------------------------------------------------------------ *)
(* Implementation rules                                                *)
(* ------------------------------------------------------------------ *)

let index_scan_impl =
  Rule.implementation "index-scan"
    ~lhs:
      (Pattern.PSelectCmp
         ( Pattern.PCmp Restricted.CEq,
           Pattern.PORefOf (Pattern.PRefVar "t"),
           Pattern.POperandVar "v",
           Pattern.PMapProperty
             ( Pattern.PRefVar "t",
               Pattern.PNameVar "p",
               Pattern.PRefVar "a",
               Pattern.PGet (Pattern.PRefVar "a", Pattern.PNameVar "C") ) ))
    ~build:(fun ctx b _implement ->
      let t = List.assoc "t" b.Pattern.refs in
      let a = List.assoc "a" b.Pattern.refs in
      let p = List.assoc "p" b.Pattern.names in
      let cls = List.assoc "C" b.Pattern.names in
      match List.assoc "v" b.Pattern.operands with
      | Restricted.OConst key
        when Option.is_some
               (Soqm_physical.Exec.hash_index ctx.Rule.exec ~cls ~prop:p) ->
        Some
          (Soqm_physical.Plan.MapProp
             (t, p, a, Soqm_physical.Plan.IndexScan (a, cls, p, key)))
      | _ -> None)

let range_scan_impl =
  Rule.implementation "range-scan"
    ~lhs:
      (Pattern.PSelectCmp
         ( Pattern.PCmpVar "c",
           Pattern.PORefOf (Pattern.PRefVar "t"),
           Pattern.POperandVar "v",
           Pattern.PMapProperty
             ( Pattern.PRefVar "t",
               Pattern.PNameVar "p",
               Pattern.PRefVar "a",
               Pattern.PGet (Pattern.PRefVar "a", Pattern.PNameVar "C") ) ))
    ~build:(fun ctx b _implement ->
      let t = List.assoc "t" b.Pattern.refs in
      let a = List.assoc "a" b.Pattern.refs in
      let p = List.assoc "p" b.Pattern.names in
      let cls = List.assoc "C" b.Pattern.names in
      let c = List.assoc "c" b.Pattern.cmps in
      match List.assoc "v" b.Pattern.operands with
      | Restricted.OConst key
        when Option.is_some
               (Soqm_physical.Exec.sorted_index ctx.Rule.exec ~cls ~prop:p) ->
        let module B = Soqm_storage.Sorted_index in
        let bounds =
          match c with
          | Restricted.CLt -> Some (B.Unbounded, B.Exclusive key)
          | Restricted.CLe -> Some (B.Unbounded, B.Inclusive key)
          | Restricted.CGt -> Some (B.Exclusive key, B.Unbounded)
          | Restricted.CGe -> Some (B.Inclusive key, B.Unbounded)
          | Restricted.CEq -> Some (B.Inclusive key, B.Inclusive key)
          | Restricted.CNeq | Restricted.CIsIn | Restricted.CIsSubset -> None
        in
        Option.map
          (fun (lo, hi) ->
            Soqm_physical.Plan.MapProp
              (t, p, a, Soqm_physical.Plan.RangeScan (a, cls, p, lo, hi)))
          bounds
      | _ -> None)

let nested_loop_impl =
  Rule.implementation "nested-loop-join"
    ~lhs:
      (Pattern.PJoinCmp
         ( Pattern.PCmpVar "c",
           Pattern.PRefVar "a1",
           Pattern.PRefVar "a2",
           Pattern.PAny "A",
           Pattern.PAny "B" ))
    ~build:(fun _ctx b implement ->
      let c = List.assoc "c" b.Pattern.cmps in
      let a1 = List.assoc "a1" b.Pattern.refs in
      let a2 = List.assoc "a2" b.Pattern.refs in
      let pa = implement (List.assoc "A" b.Pattern.plans) in
      let pb = implement (List.assoc "B" b.Pattern.plans) in
      Some (Soqm_physical.Plan.NestedLoop (Some (c, a1, a2), pa, pb)))

let implementations = [ index_scan_impl; range_scan_impl; nested_loop_impl ]
