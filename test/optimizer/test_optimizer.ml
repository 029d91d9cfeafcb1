(* Tests for the optimizer: pattern matching/instantiation, the builtin
   rule set, the saturation search and the cost-based implementation
   phase. *)

open Soqm_vml
open Soqm_algebra
open Soqm_oracle
open Soqm_optimizer
module F = Soqm_testlib.Fixtures
module R = Restricted

let check = Alcotest.check
let schema = Soqm_core.Doc_schema.schema

let db = lazy (F.tiny_db ())
let opt_ctx () = Soqm_core.Engine.opt_ctx_of (Lazy.force db)
let exec_ctx () = Soqm_core.Engine.exec_ctx (Lazy.force db)

let eval_restricted t =
  Eval.run (Lazy.force db).Soqm_core.Db.store (R.to_general t)

(* ------------------------------------------------------------------ *)
(* Pattern matching                                                    *)
(* ------------------------------------------------------------------ *)

let para_scan = R.Get ("p", "Paragraph")

let title_select =
  R.SelectCmp
    ( R.CEq,
      R.ORef "t",
      R.OConst (Value.Str "x"),
      R.MapProperty ("t", "title", "d", R.Get ("d", "Document")) )

let test_match_concrete () =
  let pat =
    Pattern.PSelectCmp
      ( Pattern.PCmp R.CEq,
        Pattern.PORefOf (Pattern.PRefVar "t"),
        Pattern.POperandVar "v",
        Pattern.PMapProperty
          ( Pattern.PRefVar "t",
            Pattern.PName "title",
            Pattern.PRefVar "d",
            Pattern.PAny "A" ) )
  in
  match Pattern.matches schema pat title_select with
  | [ b ] ->
    check Alcotest.string "t bound" "t" (List.assoc "t" b.Pattern.refs);
    check Alcotest.string "d bound" "d" (List.assoc "d" b.Pattern.refs);
    check Alcotest.bool "v bound to the constant" true
      (List.assoc "v" b.Pattern.operands = R.OConst (Value.Str "x"))
  | bs -> Alcotest.failf "expected 1 match, got %d" (List.length bs)

let test_match_rejects_wrong_name () =
  let pat =
    Pattern.PMapProperty
      (Pattern.PRefVar "t", Pattern.PName "author", Pattern.PRefVar "d", Pattern.PAny "A")
  in
  check Alcotest.int "no match" 0
    (List.length
       (Pattern.matches schema pat
          (R.MapProperty ("t", "title", "d", R.Get ("d", "Document")))))

let test_match_ranging_class () =
  let pat = Pattern.PAnyRanging ("A", Pattern.PRefVar "x", "Paragraph") in
  check Alcotest.int "paragraph scan matches" 1
    (List.length (Pattern.matches schema pat para_scan));
  check Alcotest.int "document scan does not" 0
    (List.length (Pattern.matches schema pat (R.Get ("d", "Document"))));
  (* deep input: the ranging variable is found through inference *)
  let deep = R.MapProperty ("s", "section", "p", para_scan) in
  check Alcotest.int "matches through map" 1
    (List.length (Pattern.matches schema pat deep))

let test_match_conflicting_binding () =
  (* same ref variable in two positions must bind consistently *)
  let pat =
    Pattern.PSelectCmp
      ( Pattern.PCmp R.CEq,
        Pattern.PORefOf (Pattern.PRefVar "x"),
        Pattern.PORefOf (Pattern.PRefVar "x"),
        Pattern.PAny "A" )
  in
  let same = R.SelectCmp (R.CEq, R.ORef "a", R.ORef "a", para_scan) in
  let diff = R.SelectCmp (R.CEq, R.ORef "a", R.ORef "b", para_scan) in
  check Alcotest.int "same ref matches" 1 (List.length (Pattern.matches schema pat same));
  check Alcotest.int "different refs rejected" 0
    (List.length (Pattern.matches schema pat diff))

let test_instantiate_fresh_refs () =
  let template =
    Pattern.PMapProperty
      (Pattern.PRefVar "new1", Pattern.PName "title", Pattern.PRefVar "d", Pattern.PAny "A")
  in
  let b = { Pattern.empty with plans = [ ("A", para_scan) ]; refs = [ ("d", "p") ] } in
  let t1 = Pattern.instantiate ~rule:"r" ~fresh_seed:7 b template in
  let t2 = Pattern.instantiate ~rule:"r" ~fresh_seed:7 b template in
  check F.restricted "deterministic" t1 t2;
  (match t1 with
  | R.MapProperty (fresh, "title", "p", R.Get ("p", "Paragraph")) ->
    check Alcotest.bool "fresh is a temp" true (R.is_temp_ref fresh)
  | _ -> Alcotest.fail "unexpected instantiation");
  Alcotest.match_raises "unbound plan"
    (function Pattern.Unbound _ -> true | _ -> false)
    (fun () ->
      ignore (Pattern.instantiate ~rule:"r" ~fresh_seed:0 Pattern.empty template))

(* ------------------------------------------------------------------ *)
(* Alpha canonicalization                                              *)
(* ------------------------------------------------------------------ *)

let test_alpha_canonical () =
  let mk temp =
    R.SelectCmp
      ( R.CEq,
        R.ORef temp,
        R.OConst (Value.Str "x"),
        R.MapProperty (temp, "title", "d", R.Get ("d", "Document")) )
  in
  check F.restricted "same modulo temp names"
    (R.alpha_canonical (mk "$17"))
    (R.alpha_canonical (mk "$4"));
  check F.restricted "user refs untouched"
    (R.alpha_canonical para_scan)
    para_scan

let test_alpha_preserves_semantics () =
  let t =
    R.SelectCmp
      ( R.CEq,
        R.ORef "$42",
        R.OConst (Value.Str "Query Optimization"),
        R.MapProperty ("$42", "title", "d", R.Get ("d", "Document")) )
  in
  let t' = R.alpha_canonical t in
  check Alcotest.int "same cardinality"
    (Relation.cardinality (eval_restricted t))
    (Relation.cardinality (eval_restricted t'))

(* ------------------------------------------------------------------ *)
(* Builtin rules: every rewrite preserves semantics                    *)
(* ------------------------------------------------------------------ *)

let semantics_preserved rule term =
  let rewrites = Rule.root_rewrites schema rule term in
  List.for_all
    (fun t' -> Relation.equal (eval_restricted term) (eval_restricted t'))
    rewrites

let chain_with_select =
  (* select over two maps over a scan; the select's operand comes from
     the lower map, so the root pair is independent and commutable *)
  R.SelectCmp
    ( R.CLe,
      R.ORef "n",
      R.OConst (Value.Int 0),
      R.MapProperty
        ( "s",
          "section",
          "p",
          R.MapProperty ("n", "number", "p", para_scan) ) )

let test_commute_unary_rewrites () =
  let rewrites = Rule.root_rewrites schema Builtin_rules.commute_unary chain_with_select in
  check Alcotest.bool "commutes independent ops" true (rewrites <> []);
  check Alcotest.bool "preserves semantics" true
    (semantics_preserved Builtin_rules.commute_unary chain_with_select)

let test_commute_unary_respects_dependency () =
  (* select uses n which the map below produces: no rewrite *)
  let dependent =
    R.SelectCmp
      ( R.CLe,
        R.ORef "n",
        R.OConst (Value.Int 0),
        R.MapProperty ("n", "number", "p", para_scan) )
  in
  check Alcotest.int "dependent not commuted" 0
    (List.length (Rule.root_rewrites schema Builtin_rules.commute_unary dependent))

let test_join_commute_preserves () =
  let join =
    R.JoinCmp
      ( R.CEq,
        "sd",
        "d",
        R.MapProperty ("sd", "document", "s", R.Get ("s", "Section")),
        R.Get ("d", "Document") )
  in
  check Alcotest.bool "join commute" true
    (semantics_preserved Builtin_rules.join_commute join);
  let lt =
    R.JoinCmp (R.CLt, "a", "b",
               R.MapProperty ("a", "number", "s", R.Get ("s", "Section")),
               R.MapProperty ("b", "number", "q", R.Get ("q", "Paragraph")))
  in
  check Alcotest.bool "ordering joins flip the comparison" true
    (semantics_preserved Builtin_rules.join_commute lt)

let test_select_join_interchange () =
  let term =
    R.SelectCmp
      ( R.CLe,
        R.ORef "n",
        R.OConst (Value.Int 0),
        R.Cross
          ( R.MapProperty ("n", "number", "s", R.Get ("s", "Section")),
            R.Get ("d", "Document") ) )
  in
  let rewrites = Rule.root_rewrites schema Builtin_rules.select_join_interchange term in
  check Alcotest.bool "pushes into left input" true
    (List.exists
       (function R.Cross (R.SelectCmp _, _) -> true | _ -> false)
       rewrites);
  check Alcotest.bool "preserves semantics" true
    (semantics_preserved Builtin_rules.select_join_interchange term)

let test_path_to_join () =
  let term =
    R.MapProperty
      ("doc", "document", "sec", R.MapProperty ("sec", "section", "p", para_scan))
  in
  let rewrites = Rule.root_rewrites schema Builtin_rules.path_to_join term in
  check Alcotest.int "one rewrite" 1 (List.length rewrites);
  (match rewrites with
  | [ R.Project (_, R.JoinCmp (R.CEq, _, _, _, _)) ] -> ()
  | _ -> Alcotest.fail "expected project over explicit join");
  check Alcotest.bool "preserves semantics" true
    (semantics_preserved Builtin_rules.path_to_join term)

let test_select_cross_to_join () =
  let term =
    R.SelectCmp
      ( R.CEq,
        R.ORef "sd",
        R.ORef "d",
        R.Cross
          ( R.MapProperty ("sd", "document", "s", R.Get ("s", "Section")),
            R.Get ("d", "Document") ) )
  in
  (match Rule.root_rewrites schema Builtin_rules.select_cross_to_join term with
  | [ R.JoinCmp (R.CEq, "sd", "d", _, _) ] -> ()
  | rs -> Alcotest.failf "expected one equality join, got %d rewrites" (List.length rs));
  check Alcotest.bool "preserves semantics" true
    (semantics_preserved Builtin_rules.select_cross_to_join term);
  (* swapped operands flip the comparison *)
  let swapped =
    R.SelectCmp
      ( R.CLt,
        R.ORef "d0",
        R.ORef "n",
        R.Cross
          ( R.MapProperty ("n", "number", "s", R.Get ("s", "Section")),
            R.MapProperty ("d0", "number", "q", R.Get ("q", "Paragraph")) ) )
  in
  (match Rule.root_rewrites schema Builtin_rules.select_cross_to_join swapped with
  | [ R.JoinCmp (R.CGt, "n", "d0", _, _) ] -> ()
  | _ -> Alcotest.fail "expected a flipped comparison join");
  check Alcotest.bool "flip preserves semantics" true
    (semantics_preserved Builtin_rules.select_cross_to_join swapped)

let test_natjoin_idempotent () =
  let t = R.NaturalJoin (para_scan, para_scan) in
  check Alcotest.bool "X nat-join X = X" true
    (Rule.root_rewrites schema Builtin_rules.natjoin_idempotent t = [ para_scan ])

let test_natjoin_to_cascade () =
  let c1 =
    R.SelectCmp (R.CLe, R.ORef "n", R.OConst (Value.Int 0),
                 R.MapProperty ("n", "number", "s", R.Get ("s", "Section")))
  in
  let c2 =
    R.SelectCmp (R.CGe, R.ORef "m", R.OConst (Value.Int 0),
                 R.MapProperty ("m", "number", "s", R.Get ("s", "Section")))
  in
  let t = R.NaturalJoin (c1, c2) in
  let rewrites = Rule.root_rewrites schema Builtin_rules.natjoin_to_cascade t in
  check Alcotest.bool "cascade produced" true (rewrites <> []);
  check Alcotest.bool "preserves semantics" true
    (semantics_preserved Builtin_rules.natjoin_to_cascade t)

let test_hoist_const_membership () =
  let term =
    R.SelectCmp
      ( R.CIsIn,
        R.ORef "p",
        R.ORef "w",
        R.FlatOperator
          ( "w0",
            R.OpSet,
            [],
            para_scan ) )
  in
  (* ill-typed chain: no rewrite expected *)
  check Alcotest.int "requires a proper constant chain" 0
    (List.length (Rule.root_rewrites schema Builtin_rules.hoist_const_membership term));
  let proper =
    R.SelectCmp
      ( R.CIsIn,
        R.ORef "p",
        R.ORef "w",
        R.MapMethod
          ( "w",
            "retrieve_by_string",
            R.RClass "Paragraph",
            [ R.OConst (Value.Str "Implementation") ],
            para_scan ) )
  in
  let rewrites =
    Rule.root_rewrites schema Builtin_rules.hoist_const_membership proper
  in
  check Alcotest.int "hoists" 1 (List.length rewrites);
  (match rewrites with
  | [ R.FlatOperator ("p", R.OpIdent, [ R.ORef "w" ], R.MapMethod (_, _, _, _, R.Unit)) ] -> ()
  | _ -> Alcotest.fail "unexpected hoist shape");
  check Alcotest.bool "preserves semantics" true
    (semantics_preserved Builtin_rules.hoist_const_membership proper)

(* ------------------------------------------------------------------ *)
(* Saturation                                                          *)
(* ------------------------------------------------------------------ *)

let test_saturate_contains_input () =
  let variants, truncated =
    Search.saturate schema Builtin_rules.transformations chain_with_select
  in
  check Alcotest.bool "not truncated" false truncated;
  check Alcotest.bool "input present" true
    (List.exists (R.equal (R.alpha_canonical chain_with_select)) variants);
  check Alcotest.bool "multiple variants" true (List.length variants > 1)

let test_saturate_all_equivalent () =
  let variants, _ =
    Search.saturate schema Builtin_rules.transformations chain_with_select
  in
  let reference = eval_restricted chain_with_select in
  List.iter
    (fun v ->
      if not (Relation.equal reference (eval_restricted v)) then
        Alcotest.failf "variant not equivalent:@.%s" (R.to_string v))
    variants

let test_saturate_respects_limits () =
  let config = { Search.max_variants = 2; max_size_slack = 14 } in
  let variants, truncated =
    Search.saturate ~config schema Builtin_rules.transformations chain_with_select
  in
  check Alcotest.int "at most 2" 2 (List.length variants);
  check Alcotest.bool "reported truncated" true truncated

let test_saturate_truncation_not_spurious () =
  (* [chain_with_select] saturates to exactly 3 unique variants, but the
     rules regenerate them many times over.  With the cap set exactly at
     the unique count every variant is kept and no genuinely new term is
     dropped, so [truncated] must be false — the seed reported true here
     because duplicates of already-seen terms tripped the limit check. *)
  let variants, truncated =
    Search.saturate schema Builtin_rules.transformations chain_with_select
  in
  check Alcotest.bool "unbounded run not truncated" false truncated;
  let unique = List.length variants in
  let config = { Search.max_variants = unique; max_size_slack = 14 } in
  let variants', truncated' =
    Search.saturate ~config schema Builtin_rules.transformations chain_with_select
  in
  check Alcotest.int "all unique variants kept" unique (List.length variants');
  check Alcotest.bool "duplicates do not report truncation" false truncated'

(* ------------------------------------------------------------------ *)
(* Implementation phase                                                *)
(* ------------------------------------------------------------------ *)

let test_implement_only_default () =
  let plan, cost = Search.implement_only (opt_ctx ()) [] para_scan in
  check Alcotest.bool "full scan chosen" true
    (plan = Soqm_physical.Plan.FullScan ("p", "Paragraph"));
  check Alcotest.bool "positive cost" true (cost > 0.);
  (* without implementation rules the search picks exactly the
     structural plan, for every operator kind *)
  let doc_scan = R.Get ("d", "Document") in
  let sections = R.MapProperty ("ps", "paragraphs", "s", R.Get ("s", "Section")) in
  let terms =
    [
      R.Unit;
      R.MethodSource
        ("p", "Paragraph", "retrieve_by_string", [ R.OConst (Value.Str "x") ]);
      R.NaturalJoin (para_scan, para_scan);
      R.Union (para_scan, para_scan);
      R.Diff (para_scan, para_scan);
      R.Cross (para_scan, doc_scan);
      title_select;
      R.JoinCmp (R.CEq, "d", "e", doc_scan, R.Get ("e", "Document"));
      R.JoinCmp (R.CLt, "d", "e", doc_scan, R.Get ("e", "Document"));
      R.MapMethod ("d", "document", R.RRef "p", [], para_scan);
      R.FlatProperty ("s", "sections", "d", doc_scan);
      R.FlatMethod ("q", "paragraphs", R.RRef "d", [], doc_scan);
      R.MapOperator ("n", R.OpNot, [ R.OConst (Value.Bool true) ], R.Unit);
      R.FlatOperator ("x", R.OpIdent, [ R.ORef "ps" ], sections);
      R.Project ([ "p" ], R.NaturalJoin (para_scan, para_scan));
    ]
  in
  List.iter
    (fun t ->
      let plan, _ = Search.implement_only (opt_ctx ()) [] t in
      if plan <> Soqm_physical.Plan.default_implementation t then
        Alcotest.failf "not the structural plan for:@.%s" (R.to_string t))
    terms

let test_implement_prefers_index () =
  let plan, _ =
    Search.implement_only (opt_ctx ())
      [ Builtin_rules.index_scan_impl ]
      (R.SelectCmp
         ( R.CEq,
           R.ORef "t",
           R.OConst (Value.Str "Query Optimization"),
           R.MapProperty ("t", "title", "d", R.Get ("d", "Document")) ))
  in
  match plan with
  | Soqm_physical.Plan.MapProp (_, _, _, Soqm_physical.Plan.IndexScan _) -> ()
  | p -> Alcotest.failf "expected index scan, got:@.%s" (Soqm_physical.Plan.to_string p)

let test_implement_no_index_no_rule () =
  (* no index on Section.title: the rule must not fire *)
  let plan, _ =
    Search.implement_only (opt_ctx ())
      [ Builtin_rules.index_scan_impl ]
      (R.SelectCmp
         ( R.CEq,
           R.ORef "t",
           R.OConst (Value.Str "x"),
           R.MapProperty ("t", "title", "s", R.Get ("s", "Section")) ))
  in
  match plan with
  | Soqm_physical.Plan.Filter (_, _, _, _) -> ()
  | p -> Alcotest.failf "expected filter, got:@.%s" (Soqm_physical.Plan.to_string p)

let test_optimized_plan_agrees_with_naive () =
  let eng = Soqm_core.Engine.generate (Lazy.force db) in
  let q =
    "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
     AND (p->document()).title == 'Query Optimization'"
  in
  let naive = Soqm_core.Engine.run_naive (Lazy.force db) q in
  let opt = Soqm_core.Engine.run_optimized eng q in
  check F.relation "same result" naive.Soqm_core.Engine.result
    opt.Soqm_core.Engine.result;
  check Alcotest.bool "nonempty" true
    (Relation.cardinality naive.Soqm_core.Engine.result > 0);
  check Alcotest.bool "cheaper" true
    (Counters.total_cost opt.Soqm_core.Engine.counters
    < Counters.total_cost naive.Soqm_core.Engine.counters /. 5.)

let test_worked_example_plan_shape () =
  (* the chosen plan must be the paper's PQ: an intersection of the
     retrieve_by_string method scan with the select_by_index-driven
     paragraph set, with no Paragraph extent scan.  On a very small
     database the optimizer correctly prefers skipping the title index
     (cost-based!), so this uses the larger shared fixture. *)
  let eng = Soqm_core.Engine.generate (F.shared_db ()) in
  let q =
    "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
     AND (p->document()).title == 'Query Optimization'"
  in
  let res = Soqm_core.Engine.optimize_query eng q in
  let plan = res.Search.best_plan in
  let rec has_full_scan = function
    | Soqm_physical.Plan.FullScan _ -> true
    | p -> List.exists has_full_scan (Soqm_physical.Plan.inputs p)
  in
  let rec uses_method m = function
    | Soqm_physical.Plan.MethodScan (_, _, m', _)
    | Soqm_physical.Plan.MapMeth (_, m', _, _, _)
    | Soqm_physical.Plan.FlatMeth (_, m', _, _, _)
      when String.equal m m' ->
      true
    | p -> List.exists (uses_method m) (Soqm_physical.Plan.inputs p)
  in
  check Alcotest.bool "no extent scan" false (has_full_scan plan);
  check Alcotest.bool "uses retrieve_by_string" true
    (uses_method "retrieve_by_string" plan);
  check Alcotest.bool "uses select_by_index" true
    (uses_method "select_by_index" plan)

let test_trace_derivation_rules () =
  (* the winning derivation must use the semantic knowledge: E2 and the
     inverse-link rules appear in the trace *)
  let eng = Soqm_core.Engine.generate (F.shared_db ()) in
  let q =
    "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
     AND (p->document()).title == 'Query Optimization'"
  in
  let res = Soqm_core.Engine.optimize_query eng q in
  let rules = List.map (fun (s : Search.step) -> s.Search.rule) res.Search.derivation in
  let used prefix = List.exists (fun r -> String.length r >= String.length prefix
                                          && String.sub r 0 (String.length prefix) = prefix) rules in
  check Alcotest.bool "E2 used" true (used "E2-title-index");
  check Alcotest.bool "E1 used" true (used "E1-document-path");
  check Alcotest.bool "inverse links used" true (used "inverse-");
  check Alcotest.bool "trace renders" true
    (String.length (Trace.render res) > 100);
  (* every kept variant but the input comes from exactly one counted
     rewrite, also when the closure is cut short *)
  let applications (res : Search.result) =
    List.fold_left (fun n (_, k) -> n + k) 0 res.Search.rule_applications
  in
  check Alcotest.int "rewrites = variants - 1" (res.Search.variants_explored - 1)
    (applications res);
  let config = { Search.default_config with max_variants = 5 } in
  let capped =
    Soqm_core.Engine.optimize_query
      (Soqm_core.Engine.generate ~config (F.shared_db ()))
      q
  in
  check Alcotest.bool "capped run truncated" true capped.Search.truncated;
  check Alcotest.int "capped: rewrites = variants - 1"
    (capped.Search.variants_explored - 1)
    (applications capped)

(* every builtin rule, applied anywhere in a random translated query,
   preserves the projected result set *)
let prop_builtin_rules_sound =
  QCheck2.Test.make ~count:25
    ~name:"builtin rules preserve semantics on random terms"
    Soqm_testlib.Gen.term_gen
    (fun g ->
      match General.well_formed g with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let logical =
          Translate.of_general (General.Project (General.refs g, g))
        in
        let reference = eval_restricted logical in
        List.for_all
          (fun rule ->
            let config = { Search.max_variants = 40; max_size_slack = 10 } in
            let variants, _ =
              Search.saturate ~config schema [ rule ] logical
            in
            List.for_all
              (fun v -> Relation.equal reference (eval_restricted v))
              variants)
          Builtin_rules.transformations)

let prop_alpha_idempotent =
  QCheck2.Test.make ~count:40 ~name:"alpha canonicalization is idempotent"
    Soqm_testlib.Gen.term_gen
    (fun g ->
      match General.well_formed g with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let r = Translate.of_general g in
        let once = R.alpha_canonical r in
        R.equal once (R.alpha_canonical once))

(* property: for random paragraph queries, the optimized plan computes
   the same result as the reference evaluator *)
let prop_optimizer_sound =
  QCheck2.Test.make ~count:25 ~name:"optimized plans compute the reference result"
    Soqm_testlib.Gen.para_query_gen
    (fun g ->
      let eng = Soqm_core.Engine.generate (Lazy.force db) in
      let logical = Translate.of_general (General.Project ([ "p" ], g)) in
      let res = Soqm_core.Engine.optimize eng logical in
      let reference =
        Eval.run (Lazy.force db).Soqm_core.Db.store (General.Project ([ "p" ], g))
      in
      let got = Soqm_physical.Exec.run (exec_ctx ()) res.Search.best_plan in
      (* variant 0 is the input itself: search never picks a plan worse
         than not rewriting at all *)
      let unrewritten =
        Soqm_physical.Cost.cost (opt_ctx ()).Rule.stats
          (Soqm_physical.Plan.default_implementation logical)
      in
      Relation.equal reference got && res.Search.best_cost <= unrewritten +. 1e-9)

let () =
  Alcotest.run "optimizer"
    [
      ( "patterns",
        [
          F.case "concrete match" test_match_concrete;
          F.case "wrong name rejected" test_match_rejects_wrong_name;
          F.case "class-ranging" test_match_ranging_class;
          F.case "conflicting bindings" test_match_conflicting_binding;
          F.case "instantiation & fresh refs" test_instantiate_fresh_refs;
        ] );
      ( "alpha",
        [
          F.case "canonicalization" test_alpha_canonical;
          F.case "preserves semantics" test_alpha_preserves_semantics;
        ] );
      ( "builtin-rules",
        [
          F.case "commute unary" test_commute_unary_rewrites;
          F.case "dependency respected" test_commute_unary_respects_dependency;
          F.case "join commute" test_join_commute_preserves;
          F.case "select/join interchange" test_select_join_interchange;
          F.case "path to join (Example 8)" test_path_to_join;
          F.case "select-cross to join" test_select_cross_to_join;
          F.case "natjoin idempotent" test_natjoin_idempotent;
          F.case "natjoin to cascade" test_natjoin_to_cascade;
          F.case "hoist const membership" test_hoist_const_membership;
        ] );
      ( "saturation",
        [
          F.case "contains input" test_saturate_contains_input;
          F.case "all variants equivalent" test_saturate_all_equivalent;
          F.case "limits respected" test_saturate_respects_limits;
          F.case "truncation not spurious" test_saturate_truncation_not_spurious;
          QCheck_alcotest.to_alcotest prop_builtin_rules_sound;
          QCheck_alcotest.to_alcotest prop_alpha_idempotent;
        ] );
      ( "implementation",
        [
          F.case "default structural" test_implement_only_default;
          F.case "prefers index" test_implement_prefers_index;
          F.case "no index, no rule" test_implement_no_index_no_rule;
          F.case "optimized agrees with naive" test_optimized_plan_agrees_with_naive;
          F.case "worked example yields PQ" test_worked_example_plan_shape;
          F.case "trace shows semantic rules" test_trace_derivation_rules;
          QCheck_alcotest.to_alcotest prop_optimizer_sound;
        ] );
    ]
