(* Tests for the query algebra: relations, the general-algebra evaluator
   against the set-comprehension definitions of Section 4.1, the
   restricted algebra of Section 6.1, and the equi-expressiveness of the
   two (Translate). *)

open Soqm_vml
open Soqm_algebra
open Soqm_oracle
module F = Soqm_testlib.Fixtures

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Relations                                                           *)
(* ------------------------------------------------------------------ *)

let test_relation_canonical () =
  let r1 =
    Relation.make ~refs:[ "b"; "a" ]
      [
        [ ("a", Value.Int 1); ("b", Value.Int 2) ];
        [ ("b", Value.Int 2); ("a", Value.Int 1) ];
      ]
  in
  check Alcotest.int "duplicates removed" 1 (Relation.cardinality r1);
  check (Alcotest.list Alcotest.string) "refs sorted" [ "a"; "b" ] (Relation.refs r1)

let test_relation_ref_mismatch () =
  Alcotest.match_raises "tuple refs must match"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore (Relation.make ~refs:[ "a" ] [ [ ("b", Value.Int 1) ] ]))

let test_relation_of_values () =
  let r = Relation.of_values "x" [ Value.Int 2; Value.Int 1; Value.Int 2 ] in
  check Alcotest.int "dedup" 2 (Relation.cardinality r);
  check (Alcotest.list F.value) "column" [ Value.Int 1; Value.Int 2 ]
    (Relation.column r "x")

(* ------------------------------------------------------------------ *)
(* General algebra: operator semantics                                 *)
(* ------------------------------------------------------------------ *)

let db = lazy (F.tiny_db ())
let store () = (Lazy.force db).Soqm_core.Db.store
let run t = Eval.run (store ()) t

let n_paras () = Object_store.extent_size (store ()) "Paragraph"
let n_docs () = Object_store.extent_size (store ()) "Document"

let test_get () =
  let r = run (General.Get ("p", "Paragraph")) in
  check Alcotest.int "all paragraphs" (n_paras ()) (Relation.cardinality r);
  check (Alcotest.list Alcotest.string) "single ref" [ "p" ] (Relation.refs r)

let test_select () =
  let cond = Expr.(Binop (Eq, Prop (Ref "d", "title"), Const (Value.Str "Query Optimization"))) in
  let r = run (General.Select (cond, General.Get ("d", "Document"))) in
  check Alcotest.int "one title match" 1 (Relation.cardinality r)

let test_select_def () =
  (* select keeps exactly the tuples whose condition evaluates to TRUE *)
  let cond = Expr.(Binop (Lt, Prop (Ref "s", "number"), Const (Value.Int 1))) in
  let all = run (General.Get ("s", "Section")) in
  let sel = run (General.Select (cond, General.Get ("s", "Section"))) in
  let expected =
    List.filter
      (fun tup -> Value.truthy (Eval.eval_expr (store ()) tup cond))
      (Relation.tuples all)
  in
  check F.relation "comprehension definition"
    (Relation.make ~refs:[ "s" ] expected)
    sel

let test_join_true_is_product () =
  let r =
    run
      (General.Join
         ( Expr.Const (Value.Bool true),
           General.Get ("d", "Document"),
           General.Get ("s", "Section") ))
  in
  check Alcotest.int "cartesian product"
    (n_docs () * Object_store.extent_size (store ()) "Section")
    (Relation.cardinality r)

let test_join_theta () =
  let r =
    run
      (General.Join
         ( Expr.(Binop (Eq, Prop (Ref "s", "document"), Ref "d")),
           General.Get ("s", "Section"),
           General.Get ("d", "Document") ))
  in
  check Alcotest.int "one document per section"
    (Object_store.extent_size (store ()) "Section")
    (Relation.cardinality r)

let test_natural_join_intersection () =
  (* with equal reference sets natural_join behaves like intersection
     (Section 4.2, implication rules) *)
  let c1 = Expr.(Binop (Le, Prop (Ref "s", "number"), Const (Value.Int 0))) in
  let c2 = Expr.(Binop (Ge, Prop (Ref "s", "number"), Const (Value.Int 0))) in
  let s1 = General.Select (c1, General.Get ("s", "Section")) in
  let s2 = General.Select (c2, General.Get ("s", "Section")) in
  let joined = run (General.NaturalJoin (s1, s2)) in
  let both =
    run (General.Select (Expr.(Binop (And, c1, c2)), General.Get ("s", "Section")))
  in
  check F.relation "intersection" both joined

let test_natural_join_shared_subset () =
  (* natural_join on a proper shared subset of references *)
  let left =
    General.Map ("t", Expr.(Prop (Ref "d", "title")), General.Get ("d", "Document"))
  in
  let right =
    General.Map ("a", Expr.(Prop (Ref "d", "author")), General.Get ("d", "Document"))
  in
  let r = run (General.NaturalJoin (left, right)) in
  (* d is shared, so each document contributes exactly one tuple *)
  check Alcotest.int "one tuple per document" (n_docs ()) (Relation.cardinality r);
  check (Alcotest.list Alcotest.string) "merged refs" [ "a"; "d"; "t" ]
    (Relation.refs r)

let test_union_diff () =
  let c1 = Expr.(Binop (Le, Prop (Ref "s", "number"), Const (Value.Int 0))) in
  let s1 = General.Select (c1, General.Get ("s", "Section")) in
  let all = General.Get ("s", "Section") in
  check F.relation "union with subset" (run all) (run (General.Union (s1, all)));
  let diff = run (General.Diff (all, s1)) in
  let c2 = Expr.(Binop (Gt, Prop (Ref "s", "number"), Const (Value.Int 0))) in
  check F.relation "diff is complement"
    (run (General.Select (c2, all)))
    diff

let test_union_ref_mismatch () =
  Alcotest.match_raises "union needs equal refs"
    (function Eval.Error _ -> true | _ -> false)
    (fun () ->
      ignore
        (run (General.Union (General.Get ("a", "Document"), General.Get ("b", "Document")))))

let test_map () =
  let r =
    run
      (General.Map
         ("t", Expr.(Prop (Ref "d", "title")), General.Get ("d", "Document")))
  in
  check Alcotest.int "map preserves cardinality" (n_docs ()) (Relation.cardinality r);
  check (Alcotest.list Alcotest.string) "extended refs" [ "d"; "t" ] (Relation.refs r)

let test_map_duplicate_ref_error () =
  Alcotest.match_raises "map target must be fresh"
    (function Eval.Error _ -> true | _ -> false)
    (fun () ->
      ignore
        (run (General.Map ("d", Expr.(Prop (Ref "d", "title")), General.Get ("d", "Document")))))

let test_flat () =
  let r =
    run
      (General.Flat
         ("s", Expr.(Prop (Ref "d", "sections")), General.Get ("d", "Document")))
  in
  check Alcotest.int "one tuple per (doc, section)"
    (n_docs () * F.tiny_params.Soqm_core.Datagen.sections_per_doc)
    (Relation.cardinality r)

let test_flat_on_scalar_errors () =
  Alcotest.match_raises "flat needs set-valued expression"
    (function Eval.Error _ -> true | _ -> false)
    (fun () ->
      ignore
        (run (General.Flat ("t", Expr.(Prop (Ref "d", "title")), General.Get ("d", "Document")))))

let test_project () =
  let term =
    General.Project
      ( [ "t" ],
        General.Map
          ("t", Expr.(Prop (Ref "d", "author")), General.Get ("d", "Document")) )
  in
  let r = run term in
  (* authors repeat (mod 7), so projection shrinks the set *)
  check Alcotest.int "distinct authors" (min 7 (n_docs ())) (Relation.cardinality r)

let test_method_source () =
  let r =
    run
      (General.MethodSource
         ( "p",
           Expr.(
             Call
               ( ClassObj "Paragraph",
                 "retrieve_by_string",
                 [ Const (Value.Str "Implementation") ] )) ))
  in
  let scan =
    run
      (General.Select
         ( Expr.(Call (Ref "p", "contains_string", [ Const (Value.Str "Implementation") ])),
           General.Get ("p", "Paragraph") ))
  in
  check F.relation "E5 as relations" scan r

let test_dual_map_flat () =
  (* flat over a singleton set equals map of its element *)
  let flat =
    run
      (General.Flat
         ( "x",
           Expr.(SetE [ Prop (Ref "d", "title") ]),
           General.Get ("d", "Document") ))
  in
  let map =
    run
      (General.Map
         ("x", Expr.(Prop (Ref "d", "title")), General.Get ("d", "Document")))
  in
  check F.relation "map/flat duality on singletons" map flat

let test_worked_example_equivalence () =
  (* The queries Q and PQ of Section 2.3 produce the same result set. *)
  let q =
    General.Select
      ( Expr.(
          Binop
            ( And,
              Call (Ref "p", "contains_string", [ Const (Value.Str "Implementation") ]),
              Binop
                ( Eq,
                  Prop (Call (Ref "p", "document", []), "title"),
                  Const (Value.Str "Query Optimization") ) )),
        General.Get ("p", "Paragraph") )
  in
  let pq =
    General.MethodSource
      ( "p",
        Expr.(
          Binop
            ( InterOp,
              Call
                ( ClassObj "Paragraph",
                  "retrieve_by_string",
                  [ Const (Value.Str "Implementation") ] ),
              Prop
                ( Prop
                    ( Call
                        ( ClassObj "Document",
                          "select_by_index",
                          [ Const (Value.Str "Query Optimization") ] ),
                      "sections" ),
                  "paragraphs" ) )) )
  in
  check F.relation "Q == PQ" (run q) (run pq)

(* ------------------------------------------------------------------ *)
(* General algebra: structural helpers                                 *)
(* ------------------------------------------------------------------ *)

let test_refs_and_well_formed () =
  let t =
    General.Map
      ("t", Expr.(Prop (Ref "d", "title")), General.Get ("d", "Document"))
  in
  check (Alcotest.list Alcotest.string) "refs" [ "d"; "t" ] (General.refs t);
  check Alcotest.bool "well formed" true (General.well_formed t = Ok ());
  let bad =
    General.Select (Expr.(Binop (Eq, Ref "zz", Const (Value.Int 1))), General.Get ("d", "Document"))
  in
  check Alcotest.bool "detects unavailable refs" true
    (match General.well_formed bad with Error _ -> true | Ok () -> false)

let test_rename_ref () =
  let t =
    General.Select
      ( Expr.(Binop (Eq, Prop (Ref "d", "title"), Const (Value.Str "x"))),
        General.Get ("d", "Document") )
  in
  let t' = General.rename_ref ~old_ref:"d" ~new_ref:"e" t in
  check (Alcotest.list Alcotest.string) "renamed" [ "e" ] (General.refs t');
  check F.relation "same semantics under renaming"
    (Relation.make ~refs:[ "e" ]
       (List.map
          (fun tup -> [ ("e", Relation.field tup "d") ])
          (Relation.tuples (run t))))
    (run t')

(* ------------------------------------------------------------------ *)
(* Restricted algebra                                                  *)
(* ------------------------------------------------------------------ *)

let test_restricted_to_general_roundtrip () =
  let t =
    Restricted.SelectCmp
      ( Restricted.CEq,
        Restricted.ORef "t",
        Restricted.OConst (Value.Str "Query Optimization"),
        Restricted.MapProperty ("t", "title", "d", Restricted.Get ("d", "Document"))
      )
  in
  let g = Restricted.to_general t in
  let expected =
    General.Select
      ( Expr.(Binop (Eq, Ref "t", Const (Value.Str "Query Optimization"))),
        General.Map ("t", Expr.(Prop (Ref "d", "title")), General.Get ("d", "Document"))
      )
  in
  check F.general "substitution table" expected g

let test_restricted_refs () =
  let t =
    Restricted.Project
      ( [ "p" ],
        Restricted.FlatProperty ("p", "paragraphs", "s", Restricted.Get ("s", "Section"))
      )
  in
  check (Alcotest.list Alcotest.string) "refs" [ "p" ] (Restricted.refs t)

let test_restricted_infer () =
  let schema = Soqm_core.Doc_schema.schema in
  let t =
    Restricted.MapProperty
      ( "doc",
        "document",
        "s",
        Restricted.MapProperty ("s", "section", "p", Restricted.Get ("p", "Paragraph"))
      )
  in
  let env = Restricted.infer schema t in
  check Alcotest.bool "p : Paragraph" true
    (List.assoc_opt "p" env = Some (Vtype.TObj "Paragraph"));
  check Alcotest.bool "s : Section" true
    (List.assoc_opt "s" env = Some (Vtype.TObj "Section"));
  check Alcotest.bool "doc : Document" true
    (List.assoc_opt "doc" env = Some (Vtype.TObj "Document"))

let test_restricted_infer_lifted () =
  let schema = Soqm_core.Doc_schema.schema in
  (* select_by_index returns {Document}; .sections over it unions into a
     set of sections *)
  let t =
    Restricted.MapProperty
      ( "secs",
        "sections",
        "ds",
        Restricted.MapMethod
          ( "ds",
            "select_by_index",
            Restricted.RClass "Document",
            [ Restricted.OConst (Value.Str "x") ],
            Restricted.Get ("p", "Paragraph") ) )
  in
  let env = Restricted.infer schema t in
  check Alcotest.bool "ds : {Document}" true
    (List.assoc_opt "ds" env = Some (Vtype.TSet (Vtype.TObj "Document")));
  check Alcotest.bool "secs : {Section}" true
    (List.assoc_opt "secs" env = Some (Vtype.TSet (Vtype.TObj "Section")))

let test_inputs_with_inputs () =
  let base = Restricted.Get ("p", "Paragraph") in
  let t =
    Restricted.SelectCmp (Restricted.CEq, Restricted.ORef "p", Restricted.ORef "p", base)
  in
  check F.restricted "with_inputs round trip" t
    (Restricted.with_inputs t (Restricted.inputs t));
  Alcotest.match_raises "arity mismatch"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Restricted.with_inputs t []))

(* ------------------------------------------------------------------ *)
(* Translation: general -> restricted preserves semantics              *)
(* ------------------------------------------------------------------ *)

let eval_restricted t = Eval.run (store ()) (Restricted.to_general t)

let translate_preserves name g () =
  let r = Translate.of_general g in
  check F.relation name (run g) (eval_restricted r)

let test_translate_select_method_cond =
  translate_preserves "select with method condition"
    (General.Select
       ( Expr.(Call (Ref "p", "contains_string", [ Const (Value.Str "Implementation") ])),
         General.Get ("p", "Paragraph") ))

let test_translate_path_select =
  translate_preserves "select over a path expression"
    (General.Select
       ( Expr.(
           Binop
             ( Eq,
               Prop (Prop (Prop (Ref "p", "section"), "document"), "title"),
               Const (Value.Str "Query Optimization") )),
         General.Get ("p", "Paragraph") ))

let test_translate_conjunction =
  translate_preserves "conjunction becomes select cascade"
    (General.Select
       ( Expr.(
           Binop
             ( And,
               Binop (Le, Prop (Ref "s", "number"), Const (Value.Int 1)),
               Binop (Gt, Prop (Ref "s", "number"), Const (Value.Int 0)) )),
         General.Get ("s", "Section") ))

let test_translate_disjunction =
  translate_preserves "disjunction computed then compared to TRUE"
    (General.Select
       ( Expr.(
           Binop
             ( Or,
               Binop (Eq, Prop (Ref "s", "number"), Const (Value.Int 0)),
               Binop (Eq, Prop (Ref "s", "number"), Const (Value.Int 1)) )),
         General.Get ("s", "Section") ))

let test_translate_map_tuple =
  translate_preserves "map with tuple construction (Example 3 output)"
    (General.Map
       ( "out",
         Expr.(
           TupleE
             [ ("doc", Prop (Ref "d", "title")); ("n", Prop (Ref "d", "author")) ]),
         General.Get ("d", "Document") ))

let test_translate_flat_method =
  translate_preserves "flat over a method call (Example 2 FROM clause)"
    (General.Flat
       ("p", Expr.(Call (Ref "d", "paragraphs", [])), General.Get ("d", "Document")))

let test_translate_join =
  translate_preserves "theta join splits into join<cmp>"
    (General.Join
       ( Expr.(Binop (Eq, Prop (Ref "s", "document"), Ref "d")),
         General.Get ("s", "Section"),
         General.Get ("d", "Document") ))

let test_translate_method_join =
  translate_preserves "method join predicate (Example 1)"
    (General.Project
       ( [ "p"; "q" ],
         General.Join
           ( Expr.(Call (Ref "p", "sameDocument", [ Ref "q" ])),
             General.Get ("p", "Paragraph"),
             General.Get ("q", "Paragraph") ) ))

let test_translate_refs_preserved () =
  let g =
    General.Select
      ( Expr.(
          Binop
            ( Eq,
              Prop (Prop (Ref "p", "section"), "number"),
              Const (Value.Int 0) )),
        General.Get ("p", "Paragraph") )
  in
  let r = Translate.of_general g in
  check (Alcotest.list Alcotest.string) "same refs" (General.refs g)
    (Restricted.refs r)

let test_translate_unsupported () =
  Alcotest.match_raises "SELF rejected"
    (function Translate.Unsupported _ -> true | _ -> false)
    (fun () ->
      ignore
        (Translate.of_general
           (General.Select (Expr.(Binop (Eq, Self, Self)), General.Get ("p", "Paragraph")))))

(* ------------------------------------------------------------------ *)
(* More evaluator edge cases                                           *)
(* ------------------------------------------------------------------ *)

let test_eval_unknown_class () =
  Alcotest.match_raises "unknown class"
    (function Eval.Error _ -> true | _ -> false)
    (fun () -> ignore (run (General.Get ("x", "Nowhere"))))

let test_eval_join_shared_refs_error () =
  Alcotest.match_raises "join arguments share references"
    (function Eval.Error _ -> true | _ -> false)
    (fun () ->
      ignore
        (run
           (General.Join
              ( Expr.Const (Value.Bool true),
                General.Get ("d", "Document"),
                General.Get ("d", "Document") ))))

let test_eval_project_missing_ref () =
  Alcotest.match_raises "missing projection reference"
    (function Eval.Error _ -> true | _ -> false)
    (fun () -> ignore (run (General.Project ([ "zz" ], General.Get ("d", "Document")))))

let test_eval_unit () =
  let r = run General.Unit in
  check Alcotest.int "one empty tuple" 1 (Relation.cardinality r);
  check (Alcotest.list Alcotest.string) "no refs" [] (Relation.refs r);
  (* unit is neutral for join<true> *)
  let joined =
    run (General.Join (Expr.Const (Value.Bool true), General.Unit, General.Get ("d", "Document")))
  in
  check Alcotest.int "neutral element" (n_docs ()) (Relation.cardinality joined)

let test_select_conjunction_equals_cascade () =
  let c1 = Expr.(Binop (Le, Prop (Ref "s", "number"), Const (Value.Int 1))) in
  let c2 = Expr.(Binop (Gt, Prop (Ref "s", "number"), Const (Value.Int 0))) in
  let conj =
    run (General.Select (Expr.Binop (Expr.And, c1, c2), General.Get ("s", "Section")))
  in
  let cascade =
    run (General.Select (c2, General.Select (c1, General.Get ("s", "Section"))))
  in
  check F.relation "AND = cascade" conj cascade

let test_project_idempotent () =
  let base =
    General.Map ("t", Expr.(Prop (Ref "d", "title")), General.Get ("d", "Document"))
  in
  check F.relation "project twice = once"
    (run (General.Project ([ "t" ], base)))
    (run (General.Project ([ "t" ], General.Project ([ "t" ], base))))

let test_restricted_infer_union_disagreement () =
  let schema = Soqm_core.Doc_schema.schema in
  (* refs typed differently on the two sides are dropped *)
  let t =
    Restricted.Union
      ( Restricted.MapProperty ("x", "title", "d", Restricted.Get ("d", "Document")),
        Restricted.MapProperty ("x", "author", "d", Restricted.Get ("d", "Document")) )
  in
  let env = Restricted.infer schema t in
  check Alcotest.bool "agreeing d kept" true
    (List.assoc_opt "d" env = Some (Vtype.TObj "Document"));
  (* x : STRING on both sides — kept *)
  check Alcotest.bool "agreeing x kept" true
    (List.assoc_opt "x" env = Some Vtype.TString)

let test_translate_flips_join_comparison () =
  (* d == s.document written with the sides swapped still becomes an
     equality join between the two inputs *)
  let g =
    General.Join
      ( Expr.(Binop (Eq, Ref "d", Prop (Ref "s", "document"))),
        General.Get ("s", "Section"),
        General.Get ("d", "Document") )
  in
  check F.relation "swapped equality join" (run g)
    (eval_restricted (Translate.of_general g))

let test_translate_lt_join_flip () =
  let g =
    General.Join
      ( Expr.(Binop (Lt, Ref "b", Ref "a")),
        General.Map ("a", Expr.(Prop (Ref "s", "number")), General.Get ("s", "Section")),
        General.Map ("b", Expr.(Prop (Ref "q", "number")), General.Get ("q", "Paragraph")) )
  in
  let r = Translate.of_general g in
  (* the comparison is flipped so the left reference comes from S1 *)
  check Alcotest.bool "becomes a comparison join" true
    (List.exists
       (function Restricted.JoinCmp (Restricted.CGt, "a", "b", _, _) -> true | _ -> false)
       (Restricted.subtrees r));
  check F.relation "still correct" (run g) (eval_restricted r)

(* ------------------------------------------------------------------ *)
(* Null semantics (see DESIGN.md, "Null semantics")                    *)
(* ------------------------------------------------------------------ *)

let test_flat_null_is_empty_set () =
  (* Flat-Null: a Null set expression is read as the empty set, so the
     input tuple contributes zero output tuples *)
  let r =
    run (General.Flat ("x", Expr.Const Value.Null, General.Get ("d", "Document")))
  in
  check Alcotest.int "null flattens to nothing" 0 (Relation.cardinality r)

let test_map_null_binds_value () =
  (* Map-Null: Null is an ordinary scalar; every input tuple survives
     with [x] bound to Null *)
  let r =
    run (General.Map ("x", Expr.Const Value.Null, General.Get ("d", "Document")))
  in
  check Alcotest.int "cardinality preserved" (n_docs ()) (Relation.cardinality r);
  List.iter
    (fun v -> check F.value "binds NULL" Value.Null v)
    (Relation.column r "x")

let test_equi_join_null_never_matches () =
  (* the hash equi-join fast path must preserve [eval_binop Eq]'s null
     semantics: NULL == NULL is FALSE, so Null keys join with nothing *)
  let source a vs = General.MethodSource (a, Expr.(SetE (List.map (fun v -> Const v) vs))) in
  let r =
    run
      (General.Join
         ( Expr.(Binop (Eq, Ref "a", Ref "b")),
           source "a" [ Value.Null; Value.Int 1; Value.Int 2 ],
           source "b" [ Value.Null; Value.Int 1; Value.Int 3 ] ))
  in
  check F.relation "only the non-null match survives"
    (Relation.make ~refs:[ "a"; "b" ]
       [ [ ("a", Value.Int 1); ("b", Value.Int 1) ] ])
    r

(* ------------------------------------------------------------------ *)
(* Hash-based relation operators vs the retained naive ones            *)
(* ------------------------------------------------------------------ *)

let test_natural_join_disjoint_is_product () =
  let r1 = Relation.of_values "a" [ Value.Int 1; Value.Int 2 ] in
  let r2 = Relation.of_values "b" [ Value.Str "x"; Value.Str "y"; Value.Str "z" ] in
  let j = Eval.natural_join r1 r2 in
  check Alcotest.int "no shared refs: cross product" 6 (Relation.cardinality j);
  check F.relation "agrees with naive" (Naive.natural_join r1 r2) j

let test_natural_join_empty_refs () =
  (* zero-reference relations are the algebra's booleans: {} and {[]} *)
  let unit_r = Relation.make ~refs:[] [ [] ] in
  let zero_r = Relation.empty ~refs:[] in
  check F.relation "unit * unit" unit_r (Eval.natural_join unit_r unit_r);
  check F.relation "unit * zero" zero_r (Eval.natural_join unit_r zero_r);
  check F.relation "agrees with naive" (Naive.natural_join unit_r zero_r)
    (Eval.natural_join unit_r zero_r)

let test_union_diff_ref_mismatch_raises () =
  let r1 = Relation.of_values "a" [ Value.Int 1 ] in
  let r2 = Relation.of_values "b" [ Value.Int 1 ] in
  Alcotest.match_raises "union rejects differing refs"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Eval.union r1 r2));
  Alcotest.match_raises "diff rejects differing refs"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Eval.diff r1 r2))

let prop_natural_join_agrees =
  QCheck2.Test.make ~count:300
    ~name:"hash natural_join agrees with naive (all ref overlaps)"
    Soqm_testlib.Gen.relation_pair_gen
    (fun (r1, r2) ->
      Relation.equal (Naive.natural_join r1 r2) (Eval.natural_join r1 r2))

let prop_union_agrees =
  QCheck2.Test.make ~count:300 ~name:"hash union agrees with naive"
    Soqm_testlib.Gen.same_refs_relation_pair_gen
    (fun (r1, r2) -> Relation.equal (Naive.union r1 r2) (Eval.union r1 r2))

let prop_diff_agrees =
  QCheck2.Test.make ~count:300 ~name:"hash diff agrees with naive"
    Soqm_testlib.Gen.same_refs_relation_pair_gen
    (fun (r1, r2) -> Relation.equal (Naive.diff r1 r2) (Eval.diff r1 r2))

let prop_natural_join_identical_refs_is_intersection =
  QCheck2.Test.make ~count:200
    ~name:"natural_join with all refs shared = set intersection"
    Soqm_testlib.Gen.same_refs_relation_pair_gen
    (fun (r1, r2) ->
      let j = Eval.natural_join r1 r2 in
      let inter =
        Relation.make ~refs:(Relation.refs r1)
          (let in2 = Eval.mem_set r2 in
           List.filter in2 (Relation.tuples r1))
      in
      Relation.equal inter j)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_translate_preserves =
  QCheck2.Test.make ~count:60
    ~name:"of_general preserves evaluation on random terms"
    Soqm_testlib.Gen.term_gen
    (fun g ->
      match General.well_formed g with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let expected = run g in
        let got = eval_restricted (Translate.of_general g) in
        Relation.equal expected got)

let prop_translate_refs =
  QCheck2.Test.make ~count:60 ~name:"of_general preserves Ref(S)"
    Soqm_testlib.Gen.term_gen
    (fun g ->
      match General.well_formed g with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () -> General.refs g = Restricted.refs (Translate.of_general g))

let prop_roundtrip_general =
  QCheck2.Test.make ~count:60
    ~name:"to_general of of_general evaluates like the original"
    Soqm_testlib.Gen.para_query_gen
    (fun g ->
      Relation.equal (run g)
        (run (Restricted.to_general (Translate.of_general g))))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_translate_preserves; prop_translate_refs; prop_roundtrip_general ]

let () =
  Alcotest.run "algebra"
    [
      ( "relation",
        [
          F.case "canonical form" test_relation_canonical;
          F.case "ref mismatch" test_relation_ref_mismatch;
          F.case "of_values" test_relation_of_values;
          F.case "disjoint natural_join" test_natural_join_disjoint_is_product;
          F.case "empty-refs natural_join" test_natural_join_empty_refs;
          F.case "union/diff ref mismatch" test_union_diff_ref_mismatch_raises;
          QCheck_alcotest.to_alcotest prop_natural_join_agrees;
          QCheck_alcotest.to_alcotest prop_union_agrees;
          QCheck_alcotest.to_alcotest prop_diff_agrees;
          QCheck_alcotest.to_alcotest prop_natural_join_identical_refs_is_intersection;
        ] );
      ( "general-eval",
        [
          F.case "get" test_get;
          F.case "select" test_select;
          F.case "select definition" test_select_def;
          F.case "join<true> is product" test_join_true_is_product;
          F.case "theta join" test_join_theta;
          F.case "natural_join as intersection" test_natural_join_intersection;
          F.case "natural_join shared subset" test_natural_join_shared_subset;
          F.case "union & diff" test_union_diff;
          F.case "union ref mismatch" test_union_ref_mismatch;
          F.case "map" test_map;
          F.case "map duplicate ref" test_map_duplicate_ref_error;
          F.case "flat" test_flat;
          F.case "flat on scalar" test_flat_on_scalar_errors;
          F.case "project" test_project;
          F.case "method source (E5)" test_method_source;
          F.case "map/flat duality" test_dual_map_flat;
          F.case "worked example Q == PQ" test_worked_example_equivalence;
        ] );
      ( "general-structure",
        [
          F.case "refs & well_formed" test_refs_and_well_formed;
          F.case "rename_ref" test_rename_ref;
        ] );
      ( "restricted",
        [
          F.case "to_general substitution" test_restricted_to_general_roundtrip;
          F.case "refs" test_restricted_refs;
          F.case "type inference" test_restricted_infer;
          F.case "set-lifted inference" test_restricted_infer_lifted;
          F.case "inputs/with_inputs" test_inputs_with_inputs;
        ] );
      ( "translate",
        [
          F.case "method condition" test_translate_select_method_cond;
          F.case "path select" test_translate_path_select;
          F.case "conjunction" test_translate_conjunction;
          F.case "disjunction" test_translate_disjunction;
          F.case "map tuple" test_translate_map_tuple;
          F.case "flat method" test_translate_flat_method;
          F.case "theta join" test_translate_join;
          F.case "method join" test_translate_method_join;
          F.case "refs preserved" test_translate_refs_preserved;
          F.case "unsupported constructs" test_translate_unsupported;
        ] );
      ( "edge-cases",
        [
          F.case "unknown class" test_eval_unknown_class;
          F.case "join shared refs" test_eval_join_shared_refs_error;
          F.case "project missing ref" test_eval_project_missing_ref;
          F.case "unit relation" test_eval_unit;
          F.case "AND = cascade" test_select_conjunction_equals_cascade;
          F.case "project idempotent" test_project_idempotent;
          F.case "union type disagreement" test_restricted_infer_union_disagreement;
          F.case "flat of NULL" test_flat_null_is_empty_set;
          F.case "map of NULL" test_map_null_binds_value;
          F.case "equi-join NULL keys" test_equi_join_null_never_matches;
          F.case "swapped equality join" test_translate_flips_join_comparison;
          F.case "ordering join flip" test_translate_lt_join_flip;
        ] );
      ("properties", qcheck_tests);
    ]
