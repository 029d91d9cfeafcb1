(* Tests for the schema-specific knowledge layer: specification
   validation, inverse-link derivation, and the compilation of each of
   the four specification kinds into optimizer rules (Section 4.2). *)

open Soqm_vml
open Soqm_algebra
open Soqm_oracle
open Soqm_optimizer
open Soqm_semantics
module F = Soqm_testlib.Fixtures
module R = Restricted

let check = Alcotest.check
let schema = Soqm_core.Doc_schema.schema
let db = lazy (F.tiny_db ())
let eval_restricted t = Eval.run (Lazy.force db).Soqm_core.Db.store (R.to_general t)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let test_validate_good_specs () =
  List.iter
    (fun spec ->
      match Equivalence.validate schema spec with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s rejected: %s" (Equivalence.name spec) msg)
    (Soqm_core.Doc_knowledge.specs ())

let test_validate_unknown_class () =
  let spec =
    Equivalence.Expr_equiv
      { name = "bad"; cls = "Nowhere"; var = "x"; lhs = Expr.Ref "x"; rhs = Expr.Ref "x" }
  in
  check Alcotest.bool "rejected" true (Result.is_error (Equivalence.validate schema spec))

let test_validate_foreign_ref () =
  let spec =
    Equivalence.Cond_equiv
      {
        name = "bad";
        cls = "Paragraph";
        var = "p";
        lhs = Expr.Binop (Expr.Eq, Expr.Ref "q", Expr.Const (Value.Int 1));
        rhs = Expr.Const (Value.Bool true);
      }
  in
  check Alcotest.bool "rejected" true (Result.is_error (Equivalence.validate schema spec))

let test_validate_non_boolean_cond () =
  let spec =
    Equivalence.Cond_equiv
      {
        name = "bad";
        cls = "Paragraph";
        var = "p";
        lhs = Expr.Prop (Expr.Ref "p", "number");
        rhs = Expr.Const (Value.Bool true);
      }
  in
  check Alcotest.bool "rejected" true (Result.is_error (Equivalence.validate schema spec))

let test_validate_query_method_return () =
  let spec =
    Equivalence.Query_method
      {
        name = "bad";
        cls = "Document";
        var = "d";
        cond = Expr.Const (Value.Bool true);
        meth_cls = "Paragraph";
        meth = "retrieve_by_string";
        args = [ Equivalence.Arg_param "s" ];
      }
  in
  (* returns {Paragraph}, not {Document} *)
  check Alcotest.bool "rejected" true (Result.is_error (Equivalence.validate schema spec))

(* ------------------------------------------------------------------ *)
(* Inverse-link derivation                                             *)
(* ------------------------------------------------------------------ *)

let test_from_inverse_links () =
  let specs = Equivalence.from_inverse_links schema in
  let names = List.map Equivalence.name specs in
  check Alcotest.bool "Section.document link" true
    (List.mem "inverse-Section.document" names);
  check Alcotest.bool "Paragraph.section link" true
    (List.mem "inverse-Paragraph.section" names);
  (* only the scalar sides induce specs: exactly two *)
  check Alcotest.int "two links" 2 (List.length specs);
  List.iter
    (fun spec ->
      match Equivalence.validate schema spec with
      | Ok () -> ()
      | Error m -> Alcotest.failf "derived spec invalid: %s" m)
    specs

(* ------------------------------------------------------------------ *)
(* Rule derivation shapes                                              *)
(* ------------------------------------------------------------------ *)

let doc_spec name =
  List.find
    (fun s -> Equivalence.name s = name)
    (Soqm_core.Doc_knowledge.specs ())

let test_derive_counts () =
  (* E1 gives map+flat lifts; E2 one rule; E5 one implementation;
     implication one apply-once rule *)
  check Alcotest.int "E1 rules" 2
    (List.length (Derive.transformations schema (doc_spec "E1-document-path")));
  check Alcotest.int "E2 rules" 1
    (List.length (Derive.transformations schema (doc_spec "E2-title-index")));
  check Alcotest.int "E5 transformation rules" 0
    (List.length (Derive.transformations schema (doc_spec "E5-retrieve-by-string")));
  check Alcotest.int "E5 implementation rules" 1
    (List.length (Derive.implementations schema (doc_spec "E5-retrieve-by-string")));
  match Derive.transformations schema (doc_spec "large-paragraphs") with
  | [ rule ] -> check Alcotest.bool "apply once" true rule.Rule.t_apply_once
  | _ -> Alcotest.fail "implication yields one rule"

let test_derive_rejects_self () =
  let spec =
    Equivalence.Expr_equiv
      {
        name = "bad-self";
        cls = "Paragraph";
        var = "p";
        lhs = Expr.Self;
        rhs = Expr.Ref "p";
      }
  in
  Alcotest.match_raises "SELF underivable"
    (function Derive.Underivable _ -> true | _ -> false)
    (fun () -> ignore (Derive.transformations schema spec))

(* E1's derived rule must rewrite exactly the paper's Section 4.2 form:
   map<?a2, ?a1->document()>(?A<?a1, Paragraph>)
     <-> map<?a2, ?a1.section.document>(?A<?a1, Paragraph>) *)
let test_e1_rule_rewrites_both_ways () =
  let rules = Derive.transformations schema (doc_spec "E1-document-path") in
  let map_rule = List.find (fun r -> r.Rule.t_name = "E1-document-path/map") rules in
  let lhs_term =
    R.MapMethod ("d", "document", R.RRef "p", [], R.Get ("p", "Paragraph"))
  in
  let forward = Rule.root_rewrites schema map_rule lhs_term in
  (match forward with
  | [ R.MapProperty ("d", "document", sec, R.MapProperty (sec', "section", "p", R.Get ("p", "Paragraph"))) ]
    when String.equal sec sec' ->
    ()
  | _ -> Alcotest.failf "unexpected forward rewrite (%d results)" (List.length forward));
  (* reverse direction: starting from the path form *)
  let rhs_term =
    R.MapProperty ("d", "document", "s1", R.MapProperty ("s1", "section", "p", R.Get ("p", "Paragraph")))
  in
  let backward = Rule.root_rewrites schema map_rule rhs_term in
  check Alcotest.bool "reverse produces the method form" true
    (List.exists
       (function R.MapMethod ("d", "document", R.RRef "p", [], _) -> true | _ -> false)
       backward)

let test_e1_rule_requires_class () =
  (* the ranging constraint: a 'document' method on a Section-typed ref
     must not trigger the Paragraph rule *)
  let rules = Derive.transformations schema (doc_spec "E1-document-path") in
  let map_rule = List.find (fun r -> r.Rule.t_name = "E1-document-path/map") rules in
  let wrong_class =
    R.MapMethod ("d", "document", R.RRef "s", [], R.Get ("s", "Section"))
  in
  check Alcotest.int "no rewrite on Section" 0
    (List.length (Rule.root_rewrites schema map_rule wrong_class))

let test_e2_rule_parametrized () =
  let rules = Derive.transformations schema (doc_spec "E2-title-index") in
  let rule = List.hd rules in
  let term =
    R.SelectCmp
      ( R.CEq,
        R.ORef "t",
        R.OConst (Value.Str "Some Title"),
        R.MapProperty ("t", "title", "d", R.Get ("d", "Document")) )
  in
  let rewrites = Rule.root_rewrites schema rule term in
  check Alcotest.bool "rewrites" true (rewrites <> []);
  (* the parameter s must be carried into the method call *)
  check Alcotest.bool "parameter forwarded" true
    (List.exists
       (fun t ->
         List.exists
           (function
             | R.MapMethod (_, "select_by_index", R.RClass "Document",
                            [ R.OConst (Value.Str "Some Title") ], _) ->
               true
             | _ -> false)
           (R.subtrees t))
       rewrites)

(* every derived transformation rule preserves semantics on terms it
   matches, for the real database *)
let test_derived_rules_preserve_semantics () =
  let specs = Soqm_core.Doc_knowledge.specs () in
  let rules = List.concat_map (Derive.transformations schema) specs in
  let test_terms =
    [
      R.MapMethod ("d", "document", R.RRef "p", [], R.Get ("p", "Paragraph"));
      R.SelectCmp
        ( R.CEq,
          R.ORef "t",
          R.OConst (Value.Str "Query Optimization"),
          R.MapProperty ("t", "title", "d", R.Get ("d", "Document")) );
      R.Project
        ( [ "p" ],
          R.SelectCmp
            ( R.CGt,
              R.ORef "w",
              R.OConst (Value.Int 500),
              R.MapMethod ("w", "wordCount", R.RRef "p", [], R.Get ("p", "Paragraph"))
            ) );
      R.FlatMethod ("q", "paragraphs", R.RRef "d", [], R.Get ("d", "Document"));
    ]
  in
  List.iter
    (fun term ->
      List.iter
        (fun rule ->
          List.iter
            (fun t' ->
              (* rewrites may add references (consumed temps); compare on
                 the common projection *)
              let shared =
                List.filter
                  (fun r -> List.mem r (R.refs t'))
                  (R.refs term)
              in
              let project t = R.Project (shared, t) in
              if
                not
                  (Relation.equal
                     (eval_restricted (project term))
                     (eval_restricted (project t')))
              then
                Alcotest.failf "rule %s broke semantics on@.%s@.->@.%s"
                  rule.Rule.t_name (R.to_string term) (R.to_string t'))
            (Rule.root_rewrites schema rule term))
        rules)
    test_terms

(* the implication rule introduces the natural_join form and evaluates
   to the same set *)
let test_implication_shape () =
  let rules = Derive.transformations schema (doc_spec "large-paragraphs") in
  let rule = List.hd rules in
  let term =
    R.SelectCmp
      ( R.CGt,
        R.ORef "w",
        R.OConst (Value.Int 500),
        R.MapMethod ("w", "wordCount", R.RRef "p", [], R.Get ("p", "Paragraph")) )
  in
  let rewrites = Rule.root_rewrites schema rule term in
  check Alcotest.bool "rewrites to a natural join" true
    (List.exists (function R.NaturalJoin _ -> true | _ -> false) rewrites)

(* E5's implementation rule produces a method scan for a full-extent
   selection and an intersection for a restricted one *)
let test_e5_implementation () =
  let impls = Derive.implementations schema (doc_spec "E5-retrieve-by-string") in
  let impl = List.hd impls in
  let ctx = Soqm_core.Engine.opt_ctx_of (Lazy.force db) in
  let full_extent =
    R.SelectCmp
      ( R.CEq,
        R.ORef "c",
        R.OConst (Value.Bool true),
        R.MapMethod
          ( "c",
            "contains_string",
            R.RRef "p",
            [ R.OConst (Value.Str "Implementation") ],
            R.Get ("p", "Paragraph") ) )
  in
  let implement sub = Soqm_physical.Plan.default_implementation sub in
  (match Pattern.matches schema impl.Rule.i_lhs full_extent with
  | b :: _ -> (
    match impl.Rule.i_build ctx b implement with
    | Some (Soqm_physical.Plan.MethodScan (_, "Paragraph", "retrieve_by_string", _)) -> ()
    | Some p -> Alcotest.failf "expected method scan:@.%s" (Soqm_physical.Plan.to_string p)
    | None -> Alcotest.fail "rule did not build")
  | [] -> Alcotest.fail "pattern did not match");
  (* restricted input: intersection *)
  let restricted_input =
    R.SelectCmp
      ( R.CEq,
        R.ORef "c",
        R.OConst (Value.Bool true),
        R.MapMethod
          ( "c",
            "contains_string",
            R.RRef "p",
            [ R.OConst (Value.Str "Implementation") ],
            R.SelectCmp
              ( R.CLe,
                R.ORef "n",
                R.OConst (Value.Int 0),
                R.MapProperty ("n", "number", "p", R.Get ("p", "Paragraph")) ) ) )
  in
  match Pattern.matches schema impl.Rule.i_lhs restricted_input with
  | b :: _ -> (
    match impl.Rule.i_build ctx b implement with
    | Some (Soqm_physical.Plan.NaturalJoin (Soqm_physical.Plan.MethodScan _, _)) -> ()
    | Some p -> Alcotest.failf "expected intersection:@.%s" (Soqm_physical.Plan.to_string p)
    | None -> Alcotest.fail "rule did not build")
  | [] -> Alcotest.fail "pattern did not match restricted input"

(* the E5 rule must not fire when the argument is not constant *)
let test_e5_requires_constant_args () =
  let impls = Derive.implementations schema (doc_spec "E5-retrieve-by-string") in
  let impl = List.hd impls in
  let ctx = Soqm_core.Engine.opt_ctx_of (Lazy.force db) in
  let variable_arg =
    R.SelectCmp
      ( R.CEq,
        R.ORef "c",
        R.OConst (Value.Bool true),
        R.MapMethod
          ( "c",
            "contains_string",
            R.RRef "p",
            [ R.ORef "other" ],
            R.MapProperty ("other", "content", "p", R.Get ("p", "Paragraph")) ) )
  in
  let built =
    List.filter_map
      (fun b ->
        impl.Rule.i_build ctx b Soqm_physical.Plan.default_implementation)
      (Pattern.matches schema impl.Rule.i_lhs variable_arg)
  in
  check Alcotest.int "no plan for variable argument" 0 (List.length built)

(* ------------------------------------------------------------------ *)
(* The specification surface language                                   *)
(* ------------------------------------------------------------------ *)

let test_spec_lang_e1 () =
  let spec =
    Spec_lang.parse_spec schema
      "[E1] FORALL p IN Paragraph: p->document() == p.section.document"
  in
  match spec with
  | Equivalence.Expr_equiv { name = "E1"; cls = "Paragraph"; var = "p"; lhs; rhs } ->
    check Alcotest.bool "lhs" true (lhs = Expr.Call (Expr.Ref "p", "document", []));
    check Alcotest.bool "rhs" true
      (rhs = Expr.Prop (Expr.Prop (Expr.Ref "p", "section"), "document"))
  | _ -> Alcotest.fail "expected an expression equivalence"

let test_spec_lang_e2 () =
  let spec =
    Spec_lang.parse_spec schema
      "[E2] FORALL d IN Document (s: STRING): d.title == s <=> d IS-IN \
       Document->select_by_index(s)"
  in
  match spec with
  | Equivalence.Cond_equiv { name = "E2"; cls = "Document"; var = "d"; lhs; rhs } ->
    check Alcotest.bool "parameter became Param" true
      (lhs = Expr.Binop (Expr.Eq, Expr.Prop (Expr.Ref "d", "title"), Expr.Param "s"));
    check Alcotest.bool "rhs call carries Param" true
      (rhs
      = Expr.Binop
          ( Expr.IsIn,
            Expr.Ref "d",
            Expr.Call (Expr.ClassObj "Document", "select_by_index", [ Expr.Param "s" ])
          ))
  | _ -> Alcotest.fail "expected a condition equivalence"

let test_spec_lang_implication () =
  let spec =
    Spec_lang.parse_spec schema
      "FORALL p IN Paragraph: p->wordCount() > 500 => p IS-IN \
       p->document().largeParagraphs"
  in
  match spec with
  | Equivalence.Implication { cls = "Paragraph"; var = "p"; _ } -> ()
  | _ -> Alcotest.fail "expected an implication"

let test_spec_lang_query () =
  let spec =
    Spec_lang.parse_spec schema
      "[E5] QUERY p IN Paragraph (s: STRING): p->contains_string(s) == \
       Paragraph->retrieve_by_string(s)"
  in
  match spec with
  | Equivalence.Query_method
      { name = "E5"; cls = "Paragraph"; meth_cls = "Paragraph";
        meth = "retrieve_by_string"; args = [ Equivalence.Arg_param "s" ]; _ } ->
    ()
  | _ -> Alcotest.fail "expected a query/method equivalence"

let test_spec_lang_matches_builtin_knowledge () =
  (* the textual specs derive the same rules as the hand-built ones *)
  let text =
    "[E1] FORALL p IN Paragraph: p->document() == p.section.document\n\
     [E2] FORALL d IN Document (s: STRING): d.title == s <=> d IS-IN \
     Document->select_by_index(s)\n\
     [E5] QUERY p IN Paragraph (s: STRING): p->contains_string(s) == \
     Paragraph->retrieve_by_string(s)"
  in
  let specs = Spec_lang.parse_specs schema text in
  check Alcotest.int "three specs" 3 (List.length specs);
  let t_parsed, i_parsed = Derive.rules_of_specs schema specs in
  check Alcotest.bool "transformations derived" true (List.length t_parsed >= 3);
  check Alcotest.int "one implementation" 1 (List.length i_parsed);
  (* the E1 rule from the parsed spec rewrites exactly like the
     hand-built one *)
  let term =
    R.MapMethod ("d", "document", R.RRef "p", [], R.Get ("p", "Paragraph"))
  in
  let rewrites_of rules =
    List.concat_map (fun r -> Rule.root_rewrites schema r term) rules
    |> List.map R.alpha_canonical
    |> List.sort_uniq R.compare
  in
  let hand = Derive.transformations schema (doc_spec "E1-document-path") in
  let e1_parsed =
    List.filter
      (fun (r : Rule.transformation) ->
        String.length r.Rule.t_name >= 2 && String.sub r.Rule.t_name 0 2 = "E1")
      t_parsed
  in
  check Alcotest.bool "identical rewrites" true
    (rewrites_of hand = rewrites_of e1_parsed)

let test_spec_lang_errors () =
  let bad name src =
    Alcotest.match_raises name
      (function Spec_lang.Error _ -> true | _ -> false)
      (fun () -> ignore (Spec_lang.parse_spec schema src))
  in
  bad "unknown class" "FORALL x IN Nowhere: x == x";
  bad "missing connective" "FORALL p IN Paragraph: p.number";
  bad "non-boolean iff" "FORALL p IN Paragraph: p.number <=> p.number";
  bad "unknown property" "FORALL p IN Paragraph: p.nope == p.number";
  bad "query rhs not a call"
    "QUERY p IN Paragraph (s: STRING): p->contains_string(s) == s";
  bad "query arg not a parameter"
    "QUERY p IN Paragraph: p->contains_string('x') == \
     Paragraph->retrieve_by_string(p)";
  bad "bad type" "FORALL p IN Paragraph (s: NOPE): p.number == s"

let test_spec_lang_end_to_end () =
  (* an engine generated from textual knowledge optimizes Q like the
     builtin one *)
  let db = F.tiny_db () in
  let text =
    "[E1] FORALL p IN Paragraph: p->document() == p.section.document\n\
     [E2] FORALL d IN Document (s: STRING): d.title == s <=> d IS-IN \
     Document->select_by_index(s)\n\
     [E5] QUERY p IN Paragraph (s: STRING): p->contains_string(s) == \
     Paragraph->retrieve_by_string(s)"
  in
  let specs = Spec_lang.parse_specs schema text in
  let eng =
    Soqm_core.Engine.generate
      ~classes:[ Soqm_core.Doc_knowledge.Inverse_links ]
      ~extra_specs:specs db
  in
  let q =
    "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
     AND (p->document()).title == 'Query Optimization'"
  in
  let opt = Soqm_core.Engine.run_optimized eng q in
  let naive = Soqm_core.Engine.run_naive db q in
  check F.relation "same result" naive.Soqm_core.Engine.result
    opt.Soqm_core.Engine.result;
  check Alcotest.bool "cheaper" true
    (Soqm_vml.Counters.total_cost opt.Soqm_core.Engine.counters
    < Soqm_vml.Counters.total_cost naive.Soqm_core.Engine.counters)

(* ------------------------------------------------------------------ *)
(* The path method generator (Section 5.2 / [21])                       *)
(* ------------------------------------------------------------------ *)

let test_pmg_generates_document () =
  let g = Pmg.generate schema ~cls:"Paragraph" ~name:"doc2" ~path:[ "section"; "document" ] in
  check Alcotest.bool "return type" true
    (g.Pmg.meth_sig.Schema.returns = Vtype.TObj "Document");
  check Alcotest.bool "body navigates from SELF" true
    (g.Pmg.body = Expr.Prop (Expr.Prop (Expr.Self, "section"), "document"));
  (* the generated equivalence is the hand-written E1 (up to names) *)
  match g.Pmg.equivalence with
  | Equivalence.Expr_equiv { cls = "Paragraph"; lhs = Expr.Call (_, "doc2", []); rhs; _ } ->
    check Alcotest.bool "rhs is the path" true
      (rhs = Expr.Prop (Expr.Prop (Expr.Ref "x", "section"), "document"))
  | _ -> Alcotest.fail "expected an expression equivalence"

let test_pmg_set_lifted_path () =
  let g =
    Pmg.generate schema ~cls:"Document" ~name:"paras2"
      ~path:[ "sections"; "paragraphs" ]
  in
  check Alcotest.bool "lifted set return" true
    (g.Pmg.meth_sig.Schema.returns = Vtype.TSet (Vtype.TObj "Paragraph"))

let test_pmg_errors () =
  let bad name f =
    Alcotest.match_raises name
      (function Pmg.Error _ -> true | _ -> false)
      (fun () -> ignore (f ()))
  in
  bad "empty path" (fun () -> Pmg.generate schema ~cls:"Paragraph" ~name:"m" ~path:[]);
  bad "unknown class" (fun () ->
      Pmg.generate schema ~cls:"Nope" ~name:"m" ~path:[ "x" ]);
  bad "unknown property" (fun () ->
      Pmg.generate schema ~cls:"Paragraph" ~name:"m" ~path:[ "nope" ]);
  bad "navigating a scalar" (fun () ->
      Pmg.generate schema ~cls:"Paragraph" ~name:"m" ~path:[ "number"; "x" ]);
  bad "name clash on declare" (fun () ->
      let g = Pmg.generate schema ~cls:"Paragraph" ~name:"document" ~path:[ "section"; "document" ] in
      Pmg.add_to_schema schema ~cls:"Paragraph" g)

let test_pmg_end_to_end () =
  (* generate a brand-new path method on a fresh schema, install it, and
     watch the optimizer treat it like E1 *)
  let g =
    Pmg.generate Soqm_core.Doc_schema.schema ~cls:"Paragraph" ~name:"docTitle"
      ~path:[ "section"; "document"; "title" ]
  in
  let schema' =
    Pmg.add_to_schema Soqm_core.Doc_schema.schema ~cls:"Paragraph" g
  in
  let d = Soqm_core.Db.create ~schema:schema' ~params:F.small_params () in
  Pmg.register d.Soqm_core.Db.store ~cls:"Paragraph" g;
  let eng =
    Soqm_core.Engine.generate ~extra_specs:[ g.Pmg.equivalence ] d
  in
  let q =
    "ACCESS p FROM p IN Paragraph WHERE p->docTitle() == 'Query Optimization'"
  in
  let naive = Soqm_core.Engine.run_naive d q in
  let opt = Soqm_core.Engine.run_optimized eng q in
  check F.relation "generated method optimized soundly"
    naive.Soqm_core.Engine.result opt.Soqm_core.Engine.result;
  check Alcotest.bool "nonempty" true
    (Relation.cardinality opt.Soqm_core.Engine.result > 0);
  (* the equivalence opens the index path: far cheaper than calling the
     method per paragraph *)
  check Alcotest.bool "equivalence exploited" true
    (Soqm_vml.Counters.total_cost opt.Soqm_core.Engine.counters
    < Soqm_vml.Counters.total_cost naive.Soqm_core.Engine.counters /. 3.)

let () =
  Alcotest.run "semantics"
    [
      ( "validation",
        [
          F.case "document knowledge valid" test_validate_good_specs;
          F.case "unknown class" test_validate_unknown_class;
          F.case "foreign reference" test_validate_foreign_ref;
          F.case "non-boolean condition" test_validate_non_boolean_cond;
          F.case "query/method return type" test_validate_query_method_return;
        ] );
      ("inverse-links", [ F.case "derivation" test_from_inverse_links ]);
      ( "derivation",
        [
          F.case "rule counts" test_derive_counts;
          F.case "SELF rejected" test_derive_rejects_self;
          F.case "E1 both directions" test_e1_rule_rewrites_both_ways;
          F.case "E1 class constraint" test_e1_rule_requires_class;
          F.case "E2 parameter forwarding" test_e2_rule_parametrized;
          F.case "semantics preservation" test_derived_rules_preserve_semantics;
          F.case "implication shape" test_implication_shape;
          F.case "E5 implementation" test_e5_implementation;
          F.case "E5 constant arguments" test_e5_requires_constant_args;
        ] );
      ( "path-method-generator",
        [
          F.case "generates document()" test_pmg_generates_document;
          F.case "set-lifted paths" test_pmg_set_lifted_path;
          F.case "errors" test_pmg_errors;
          F.case "end to end" test_pmg_end_to_end;
        ] );
      ( "spec-language",
        [
          F.case "E1 form" test_spec_lang_e1;
          F.case "E2 form with parameter" test_spec_lang_e2;
          F.case "implication form" test_spec_lang_implication;
          F.case "query form" test_spec_lang_query;
          F.case "matches hand-built knowledge" test_spec_lang_matches_builtin_knowledge;
          F.case "errors" test_spec_lang_errors;
          F.case "end to end" test_spec_lang_end_to_end;
        ] );
    ]
