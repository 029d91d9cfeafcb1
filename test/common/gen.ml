(* Random generators of well-typed algebra terms over the document
   schema.  Terms are correct by construction: every expression parameter
   only mentions references that exist and operations that type-check, so
   evaluating a generated term never raises.  Used by the
   semantics-preservation property tests of the translator, the rewrite
   rules and the optimizer. *)

open Soqm_vml
open Soqm_algebra
module G = QCheck2.Gen

(* The class a reference ranges over. *)
type rclass = Doc | Sec | Para

let class_name = function Doc -> "Document" | Sec -> "Section" | Para -> "Paragraph"

type env = (string * rclass) list

let fresh_ref =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "v%d" !counter

(* A boolean condition over a reference of the given class. *)
let cond_gen (r, c) : Expr.t G.t =
  let open Expr in
  match c with
  | Doc ->
    G.oneof
      [
        G.return (Binop (Eq, Prop (Ref r, "title"), Const (Value.Str "Query Optimization")));
        G.map
          (fun i ->
            Binop (Eq, Prop (Ref r, "author"), Const (Value.Str (Printf.sprintf "Author %d" i))))
          (G.int_range 0 6);
      ]
  | Sec ->
    G.map
      (fun i -> Binop (Lt, Prop (Ref r, "number"), Const (Value.Int i)))
      (G.int_range 0 4)
  | Para ->
    G.oneof
      [
        G.map
          (fun i -> Binop (Le, Prop (Ref r, "number"), Const (Value.Int i)))
          (G.int_range 0 5);
        G.return
          (Call (Ref r, "contains_string", [ Const (Value.Str "Implementation") ]));
        G.return
          (Binop
             ( Eq,
               Prop (Prop (Prop (Ref r, "section"), "document"), "title"),
               Const (Value.Str "Query Optimization") ));
        G.return (Binop (Gt, Call (Ref r, "wordCount", []), Const (Value.Int 500)));
      ]

(* A scalar expression over a reference, with the class of the result if
   it is an object. *)
let map_expr_gen (r, c) : (Expr.t * rclass option) G.t =
  let open Expr in
  match c with
  | Doc ->
    G.oneofl
      [ (Prop (Ref r, "title"), None); (Prop (Ref r, "author"), None) ]
  | Sec ->
    G.oneofl
      [
        (Prop (Ref r, "document"), Some Doc);
        (Prop (Prop (Ref r, "document"), "title"), None);
        (Prop (Ref r, "number"), None);
      ]
  | Para ->
    G.oneofl
      [
        (Prop (Ref r, "section"), Some Sec);
        (Call (Ref r, "document", []), Some Doc);
        (Prop (Prop (Ref r, "section"), "document"), Some Doc);
        (Prop (Ref r, "number"), None);
        (Binop (Add, Prop (Ref r, "number"), Const (Value.Int 1)), None);
      ]

(* A set-valued expression over a reference, with the member class. *)
let flat_expr_gen (r, c) : (Expr.t * rclass) G.t =
  let open Expr in
  match c with
  | Doc ->
    G.oneofl
      [
        (Prop (Ref r, "sections"), Sec);
        (Call (Ref r, "paragraphs", []), Para);
        (Prop (Prop (Ref r, "sections"), "paragraphs"), Para);
      ]
  | Sec -> G.return (Prop (Ref r, "paragraphs"), Para)
  | Para -> G.oneofl [ (Prop (Prop (Ref r, "section"), "paragraphs"), Para) ]

let pick_ref (env : env) : (string * rclass) G.t = G.oneofl env

(* A pipeline of n unary operators over a base Get. *)
let rec pipeline n (term : General.t) (env : env) : (General.t * env) G.t =
  if n <= 0 then G.return (term, env)
  else
    let open G in
    let step =
      oneof
        [
          (* select *)
          (pick_ref env >>= fun rc ->
           cond_gen rc >|= fun cond -> (General.Select (cond, term), env));
          (* map *)
          (pick_ref env >>= fun rc ->
           map_expr_gen rc >|= fun (e, cls) ->
           let a = fresh_ref () in
           let env' = match cls with Some c -> (a, c) :: env | None -> env in
           (General.Map (a, e, term), env'));
          (* flat *)
          (pick_ref env >>= fun rc ->
           flat_expr_gen rc >|= fun (e, cls) ->
           let a = fresh_ref () in
           (General.Flat (a, e, term), (a, cls) :: env));
        ]
    in
    step >>= fun (term', env') -> pipeline (n - 1) term' env'

let base_gen : (General.t * env) G.t =
  G.oneofl [ Doc; Sec; Para ]
  |> G.map (fun c ->
         let r = fresh_ref () in
         (General.Get (r, class_name c), [ (r, c) ]))

(* A complete random term: a pipeline, optionally joined with a second
   pipeline (dependent join through a comparison of two references, or a
   plain product), and optionally projected. *)
let term_gen : General.t G.t =
  let open G in
  let small_pipeline =
    base_gen >>= fun (t, env) ->
    int_range 0 3 >>= fun n -> pipeline n t env
  in
  small_pipeline >>= fun (t1, env1) ->
  bool >>= fun add_join ->
  (if not add_join then return (t1, env1)
   else
     small_pipeline >>= fun (t2, env2) ->
     (* references are globally fresh, so the sides are disjoint *)
     let same_class =
       List.concat_map
         (fun (r1, c1) ->
           List.filter_map
             (fun (r2, c2) -> if c1 = c2 then Some (r1, r2) else None)
             env2)
         env1
     in
     match same_class with
     | [] -> return (General.Join (Expr.Const (Value.Bool true), t1, t2), env1 @ env2)
     | pairs ->
       oneofl pairs >|= fun (r1, r2) ->
       ( General.Join (Expr.Binop (Expr.Eq, Expr.Ref r1, Expr.Ref r2), t1, t2),
         env1 @ env2 ))
  >>= fun (t, env) ->
  bool >>= fun project ->
  if project && List.length env > 1 then
    let refs = List.map fst env in
    int_range 1 (List.length refs) >|= fun k ->
    General.Project (List.filteri (fun i _ -> i < k) refs, t)
  else return t

(* ------------------------------------------------------------------ *)
(* Random relations                                                    *)
(* ------------------------------------------------------------------ *)

(* Small relations over a tiny value domain (many collisions, so joins,
   unions and diffs all exercise non-trivial matches), for the property
   tests comparing the hash-based [Eval] operators against the
   retained list-based [Naive] ones.  Floats are excluded: [Naive.diff]
   dates from the seed and uses polymorphic equality, which disagrees
   with [Value.equal] on NaN / negative zero. *)
let small_value_gen : Value.t G.t =
  G.oneof
    [
      G.map (fun i -> Value.Int i) (G.int_range 0 3);
      G.oneofl [ Value.Str "x"; Value.Str "y"; Value.Null; Value.Bool true ];
      G.map
        (fun is -> Value.set (List.map (fun i -> Value.Int i) is))
        (G.list_size (G.int_range 0 2) (G.int_range 0 2));
    ]

let relation_gen refs : Relation.t G.t =
  let tuple_gen =
    G.map
      (fun vs -> Relation.tuple_make (List.combine refs vs))
      (G.flatten_l (List.map (fun _ -> small_value_gen) refs))
  in
  G.map
    (fun tuples -> Relation.make ~refs tuples)
    (G.list_size (G.int_range 0 12) tuple_gen)

(* Reference-list overlap between the two generated relations: disjoint
   (natural join degenerates to a cross product), partial (the common
   case), identical (natural join degenerates to intersection) and the
   zero-reference edge case (relations with at most one empty tuple). *)
type ref_overlap = Disjoint | Partial | Identical | Empty_refs

let relation_pair_gen : (Relation.t * Relation.t) G.t =
  let open G in
  oneofl [ Disjoint; Partial; Identical; Empty_refs ] >>= fun mode ->
  let refs1, refs2 =
    match mode with
    | Disjoint -> ([ "a"; "b" ], [ "c"; "d" ])
    | Partial -> ([ "a"; "b" ], [ "b"; "c" ])
    | Identical -> ([ "a"; "b" ], [ "a"; "b" ])
    | Empty_refs -> ([], [])
  in
  pair (relation_gen refs1) (relation_gen refs2)

(* Union/diff require identical reference lists. *)
let same_refs_relation_pair_gen : (Relation.t * Relation.t) G.t =
  let open G in
  oneofl [ []; [ "a" ]; [ "a"; "b" ] ] >>= fun refs ->
  pair (relation_gen refs) (relation_gen refs)

(* A selection-only paragraph query in the style of the paper's Q, for
   optimizer result-equivalence tests. *)
let para_query_gen : General.t G.t =
  let open G in
  let r = "p" in
  list_size (int_range 1 3) (cond_gen (r, Para)) >|= fun conds ->
  let cond =
    match conds with
    | [] -> Expr.Const (Value.Bool true)
    | c :: cs -> List.fold_left (fun acc c' -> Expr.Binop (Expr.And, acc, c')) c cs
  in
  General.Select (cond, General.Get (r, "Paragraph"))
