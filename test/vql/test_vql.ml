(* Tests for the VQL front-end: lexer, parser, typechecker and the
   canonical translation to the general algebra, exercised on the
   paper's example queries. *)

open Soqm_vml
open Soqm_algebra
open Soqm_oracle
open Soqm_vql
module Vml_schema = Soqm_vml.Schema
module F = Soqm_testlib.Fixtures

let check = Alcotest.check
let schema = Soqm_core.Doc_schema.schema

let db = lazy (F.tiny_db ())
let store () = (Lazy.force db).Soqm_core.Db.store

let run_query src =
  Eval.run (store ()) (To_algebra.query_to_algebra schema src)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let token_list = Alcotest.testable (Fmt.Dump.list Token.pp) ( = )

let test_lex_basics () =
  check token_list "keywords and operators"
    [ Token.ACCESS; Token.IDENT "p"; Token.FROM; Token.IDENT "p"; Token.IN;
      Token.IDENT "Paragraph"; Token.EOF ]
    (Lexer.tokenize "ACCESS p FROM p IN Paragraph")

let test_lex_is_in () =
  check token_list "IS-IN is one token"
    [ Token.IDENT "x"; Token.IS_IN; Token.IDENT "S"; Token.EOF ]
    (Lexer.tokenize "x IS-IN S");
  check token_list "IS-SUBSET is one token"
    [ Token.IDENT "x"; Token.IS_SUBSET; Token.IDENT "S"; Token.EOF ]
    (Lexer.tokenize "x IS-SUBSET S")

let test_lex_strings () =
  check token_list "single quotes"
    [ Token.STRING_LIT "Implementation"; Token.EOF ]
    (Lexer.tokenize "'Implementation'");
  check token_list "double quotes and escape"
    [ Token.STRING_LIT "a'b\n"; Token.EOF ]
    (Lexer.tokenize "\"a'b\\n\"")

let test_lex_numbers_arrows () =
  check token_list "numbers, arrow, comparisons"
    [ Token.INT_LIT 42; Token.REAL_LIT 2.5; Token.ARROW; Token.EQ; Token.NEQ;
      Token.LE; Token.GE; Token.MINUS; Token.EOF ]
    (Lexer.tokenize "42 2.5 -> == != <= >= -")

let test_lex_comment () =
  check token_list "comments skipped"
    [ Token.INT_LIT 1; Token.INT_LIT 2; Token.EOF ]
    (Lexer.tokenize "1 // note\n2")

let test_lex_error () =
  Alcotest.match_raises "bad char"
    (function Lexer.Error _ -> true | _ -> false)
    (fun () -> ignore (Lexer.tokenize "a # b"));
  Alcotest.match_raises "unterminated string"
    (function Lexer.Error _ -> true | _ -> false)
    (fun () -> ignore (Lexer.tokenize "'abc"))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_example1 () =
  (* Example 1: method call as join predicate, tuple-valued ACCESS *)
  let q =
    Parser.parse_query
      "ACCESS [p: p.number, q: q.number] FROM p IN Paragraph, q IN Paragraph \
       WHERE p->sameDocument(q)"
  in
  check Alcotest.int "two ranges" 2 (List.length q.Ast.ranges);
  (match q.Ast.access with
  | Ast.Tuple_lit [ ("p", _); ("q", _) ] -> ()
  | _ -> Alcotest.fail "expected tuple access");
  match q.Ast.where with
  | Some (Ast.Method_call (Ast.Var "p", "sameDocument", [ Ast.Var "q" ])) -> ()
  | _ -> Alcotest.fail "expected method-call predicate"

let test_parse_example2 () =
  (* Example 2: dependent range through a method call *)
  let q =
    Parser.parse_query
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE \
       p->contains_string('Implementation')"
  in
  (match (List.nth q.Ast.ranges 1).Ast.source with
  | Ast.Method_call (Ast.Var "d", "paragraphs", []) -> ()
  | _ -> Alcotest.fail "expected dependent method range");
  check Alcotest.bool "where present" true (Option.is_some q.Ast.where)

let test_parse_example3 () =
  (* Example 3: methods in the ACCESS clause, no WHERE *)
  let q =
    Parser.parse_query
      "ACCESS [doc: d.title, paras: d->paragraphs()] FROM d IN Document"
  in
  check Alcotest.bool "no where" true (Option.is_none q.Ast.where)

let test_parse_precedence () =
  let e = Parser.parse_expr "a OR b AND NOT c == 1" in
  (* OR(a, AND(b, NOT (c == 1))) *)
  match e with
  | Ast.Binop (Expr.Or, Ast.Var "a", Ast.Binop (Expr.And, Ast.Var "b", Ast.Not _)) -> ()
  | _ -> Alcotest.fail "precedence mismatch"

let test_parse_path () =
  match Parser.parse_expr "p.section.document.title" with
  | Ast.Prop_access (Ast.Prop_access (Ast.Prop_access (Ast.Var "p", "section"), "document"), "title") -> ()
  | _ -> Alcotest.fail "path parse mismatch"

let test_parse_set_ops () =
  match Parser.parse_expr "A UNION B INTERSECTION C" with
  (* INTERSECTION binds tighter than UNION *)
  | Ast.Binop (Expr.UnionOp, Ast.Var "A", Ast.Binop (Expr.InterOp, Ast.Var "B", Ast.Var "C")) -> ()
  | _ -> Alcotest.fail "set-operator precedence mismatch"

let test_parse_errors () =
  let bad s =
    Alcotest.match_raises s
      (function Parser.Error _ -> true | _ -> false)
      (fun () -> ignore (Parser.parse_query s))
  in
  bad "ACCESS FROM p IN Paragraph";
  bad "ACCESS p FROM p Paragraph";
  bad "ACCESS p FROM p IN Paragraph WHERE";
  bad "ACCESS p FROM p IN Paragraph trailing"

(* ------------------------------------------------------------------ *)
(* Typechecker                                                         *)
(* ------------------------------------------------------------------ *)

let tc src = Typecheck.check_query schema (Parser.parse_query src)

let test_typecheck_q () =
  let q =
    tc
      "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
       AND (p->document()).title == 'Query Optimization'"
  in
  check Alcotest.bool "range over class" true
    (match (List.hd q.Typecheck.ranges).Typecheck.source with
    | Typecheck.Class_extent "Paragraph" -> true
    | _ -> false);
  check Alcotest.bool "access typed as paragraph" true
    (q.Typecheck.access_type = Vtype.TObj "Paragraph")

let test_typecheck_set_lifting () =
  (* D.sections.paragraphs over the class object: {Document}.sections ->
     {Section}, .paragraphs -> {Paragraph} *)
  let _, ty =
    Typecheck.check_expr schema ~env:[]
      (Parser.parse_expr "Document.sections.paragraphs")
  in
  check Alcotest.string "lifted path type" "{Paragraph}" (Vtype.to_string ty)

let test_typecheck_class_method () =
  let _, ty =
    Typecheck.check_expr schema ~env:[]
      (Parser.parse_expr "Document->select_by_index('x')")
  in
  check Alcotest.string "own method type" "{Document}" (Vtype.to_string ty)

let test_typecheck_errors () =
  let bad name src =
    Alcotest.match_raises name
      (function Typecheck.Error _ -> true | _ -> false)
      (fun () -> ignore (tc src))
  in
  bad "unknown class" "ACCESS x FROM x IN Nowhere";
  bad "unknown property" "ACCESS p.nope FROM p IN Paragraph";
  bad "unknown method" "ACCESS p FROM p IN Paragraph WHERE p->nope()";
  bad "arity" "ACCESS p FROM p IN Paragraph WHERE p->contains_string()";
  bad "argument type" "ACCESS p FROM p IN Paragraph WHERE p->contains_string(3)";
  bad "non-boolean where" "ACCESS p FROM p IN Paragraph WHERE p.number";
  bad "non-set range" "ACCESS x FROM p IN Paragraph, x IN p.number";
  bad "duplicate variable" "ACCESS p FROM p IN Paragraph, p IN Section";
  bad "ordering on objects" "ACCESS p FROM p IN Paragraph WHERE p < p";
  bad "is-in mismatch" "ACCESS p FROM p IN Paragraph WHERE p IS-IN Document"

let test_typecheck_dependent_range () =
  let q = tc "ACCESS p FROM d IN Document, p IN d->paragraphs()" in
  match (List.nth q.Typecheck.ranges 1).Typecheck.source with
  | Typecheck.Set_expr (Expr.Call (Expr.Ref "d", "paragraphs", [])) -> ()
  | _ -> Alcotest.fail "dependent range not resolved"

(* ------------------------------------------------------------------ *)
(* Translation                                                         *)
(* ------------------------------------------------------------------ *)

let test_translate_canonical_shape () =
  let g =
    To_algebra.query_to_algebra schema
      "ACCESS [a: p.number] FROM p IN Paragraph, q IN Paragraph WHERE \
       p->sameDocument(q)"
  in
  match g with
  | General.Project
      ( [ "result" ],
        General.Map
          ( "result",
            _,
            General.Select
              ( Expr.Call (Expr.Ref "p", "sameDocument", [ Expr.Ref "q" ]),
                General.Join
                  ( Expr.Const (Value.Bool true),
                    General.Get ("p", "Paragraph"),
                    General.Get ("q", "Paragraph") ) ) ) ) ->
    ()
  | _ ->
    Alcotest.failf "unexpected canonical shape:@.%s" (General.to_string g)

let test_translate_simple_access_projects () =
  let g = To_algebra.query_to_algebra schema "ACCESS p FROM p IN Paragraph" in
  check F.general "direct projection"
    (General.Project ([ "p" ], General.Get ("p", "Paragraph")))
    g

let test_translate_dependent_range_is_flat () =
  let g =
    To_algebra.query_to_algebra schema
      "ACCESS p FROM d IN Document, p IN d->paragraphs()"
  in
  match g with
  | General.Project
      ([ "p" ], General.Flat ("p", Expr.Call (Expr.Ref "d", "paragraphs", []),
                              General.Get ("d", "Document"))) ->
    ()
  | _ -> Alcotest.failf "expected flat:@.%s" (General.to_string g)

let test_translate_method_source () =
  let g =
    To_algebra.query_to_algebra schema
      "ACCESS p FROM p IN Paragraph->retrieve_by_string('Implementation')"
  in
  match g with
  | General.Project ([ "p" ], General.MethodSource ("p", _)) -> ()
  | _ -> Alcotest.failf "expected method source:@.%s" (General.to_string g)

(* ------------------------------------------------------------------ *)
(* End-to-end evaluation of the paper's queries                        *)
(* ------------------------------------------------------------------ *)

let test_eval_query_q () =
  (* Q from Section 2.3, straightforwardly evaluated *)
  let r =
    run_query
      "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
       AND (p->document()).title == 'Query Optimization'"
  in
  (* oracle: manual filter over the extent *)
  let store = store () in
  let expected =
    List.filter
      (fun p ->
        Value.truthy
          (Runtime.invoke store (Value.Obj p) "contains_string"
             [ Value.Str "Implementation" ])
        &&
        let d = Runtime.invoke store (Value.Obj p) "document" [] in
        match d with
        | Value.Obj doid ->
          Object_store.peek_prop store doid "title" = Value.Str "Query Optimization"
        | _ -> false)
      (Object_store.extent store "Paragraph")
  in
  check F.relation "Q against oracle"
    (Relation.of_values "p" (List.map (fun p -> Value.Obj p) expected))
    r

let test_eval_example2 () =
  let r =
    run_query
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE \
       p->contains_string('Implementation')"
  in
  check Alcotest.bool "some documents found" true (Relation.cardinality r > 0)

let test_eval_q_equals_pq_via_vql () =
  (* The paper's final plan PQ written directly in VQL evaluates to the
     same set as Q. *)
  let q =
    run_query
      "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
       AND (p->document()).title == 'Query Optimization'"
  in
  let pq =
    run_query
      "ACCESS p FROM p IN Paragraph->retrieve_by_string('Implementation') \
       INTERSECTION (Document->select_by_index('Query \
       Optimization')).sections.paragraphs"
  in
  check F.relation "Q == PQ via VQL" q pq

let test_eval_intermediate_transforms () =
  (* Q' ... Q'''' of Section 2.3 are all equivalent to Q. *)
  let q =
    run_query
      "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
       AND (p->document()).title == 'Query Optimization'"
  in
  let variants =
    [
      (* Q' : E2 applied *)
      "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
       AND p->document() IS-IN Document->select_by_index('Query Optimization')";
      (* Q'' : E1 applied *)
      "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
       AND p.section.document IS-IN Document->select_by_index('Query \
       Optimization')";
      (* Q''' : E3 applied *)
      "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
       AND p.section IS-IN (Document->select_by_index('Query \
       Optimization')).sections";
      (* Q'''' : E4 applied *)
      "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
       AND p IS-IN (Document->select_by_index('Query \
       Optimization')).sections.paragraphs";
    ]
  in
  List.iteri
    (fun i src -> check F.relation (Printf.sprintf "Q%d" (i + 1)) q (run_query src))
    variants

(* ------------------------------------------------------------------ *)
(* Nested queries (the future work of Section 8)                       *)
(* ------------------------------------------------------------------ *)

let test_nested_from_source () =
  (* sections of the documents found by a nested query *)
  let r =
    run_query
      "ACCESS s FROM d IN (ACCESS d2 FROM d2 IN Document WHERE d2.title == \
       'Query Optimization'), s IN d.sections"
  in
  check Alcotest.int "sections of the matching document"
    F.tiny_params.Soqm_core.Datagen.sections_per_doc
    (Relation.cardinality r)

let test_nested_isin_conjunct () =
  (* Q with the document restriction phrased as a nested query *)
  let nested =
    run_query
      "ACCESS p FROM p IN Paragraph WHERE \
       p->contains_string('Implementation') AND p->document() IS-IN (ACCESS d \
       FROM d IN Document WHERE d.title == 'Query Optimization')"
  in
  let flat =
    run_query
      "ACCESS p FROM p IN Paragraph WHERE \
       p->contains_string('Implementation') AND (p->document()).title == \
       'Query Optimization'"
  in
  check F.relation "nested IS-IN equals the flat formulation" flat nested

let test_nested_no_capture () =
  (* inner and outer range variables may share names *)
  let r =
    run_query
      "ACCESS p.number FROM p IN (ACCESS p FROM p IN Paragraph WHERE p.number \
       < 1), q IN Paragraph WHERE q.number == p.number"
  in
  check Alcotest.bool "shared names do not capture" true
    (Relation.cardinality r > 0)

let test_nested_optimizes () =
  (* the optimizer still improves a query containing a nested source *)
  let db = F.shared_db () in
  let eng = Soqm_core.Engine.generate db in
  let q =
    "ACCESS p FROM p IN Paragraph WHERE p->contains_string('Implementation') \
     AND p->document() IS-IN (ACCESS d FROM d IN Document WHERE d.title == \
     'Query Optimization')"
  in
  let naive = Soqm_core.Engine.run_naive db q in
  let opt = Soqm_core.Engine.run_optimized eng q in
  check F.relation "nested query optimized soundly" naive.Soqm_core.Engine.result
    opt.Soqm_core.Engine.result;
  check Alcotest.bool "and profitably" true
    (Soqm_vml.Counters.total_cost opt.Soqm_core.Engine.counters
    < Soqm_vml.Counters.total_cost naive.Soqm_core.Engine.counters)

let test_nested_rejected_positions () =
  let bad name src =
    Alcotest.match_raises name
      (function Typecheck.Error _ -> true | _ -> false)
      (fun () -> ignore (tc src))
  in
  bad "subquery in ACCESS"
    "ACCESS (ACCESS d FROM d IN Document) FROM p IN Paragraph";
  bad "subquery under OR"
    "ACCESS p FROM p IN Paragraph WHERE p.number == 0 OR p IS-IN (ACCESS q \
     FROM q IN Paragraph)";
  bad "correlated subquery"
    "ACCESS p FROM p IN Paragraph WHERE p IS-IN (ACCESS q FROM q IN Paragraph \
     WHERE q.number == p.number)"

(* ------------------------------------------------------------------ *)
(* ARRAY / DICTIONARY subscription                                     *)
(* ------------------------------------------------------------------ *)

let array_schema_text =
  {|
CLASS Measurement
  INSTTYPE OBJECTTYPE
    PROPERTIES:
      samples: ARRAY<INT>;
      labels: DICTIONARY<STRING, INT>;
    METHODS:
      first_sample(): INT { RETURN samples[0]; };
  END;
END;
|}

let measurement_store () =
  let store = Schema_parser.load array_schema_text in
  let m =
    Object_store.create_object store ~cls:"Measurement"
      [
        ("samples", Value.Arr [| Value.Int 7; Value.Int 8; Value.Int 9 |]);
        ("labels", Value.dict [ (Value.Str "hi", Value.Int 2) ]);
      ]
  in
  (store, m)

let test_index_array () =
  let store, m = measurement_store () in
  check F.value "samples[1]" (Value.Int 8)
    (Runtime.eval (Runtime.env store)
       Expr.(Binop (IndexOp, Prop (Const (Value.Obj m), "samples"), Const (Value.Int 1))));
  check F.value "method body subscription" (Value.Int 7)
    (Runtime.invoke store (Value.Obj m) "first_sample" []);
  Alcotest.match_raises "out of bounds"
    (function Runtime.Error _ -> true | _ -> false)
    (fun () ->
      ignore
        (Runtime.eval (Runtime.env store)
           Expr.(
             Binop (IndexOp, Prop (Const (Value.Obj m), "samples"), Const (Value.Int 9)))))

let test_index_dict () =
  let store, m = measurement_store () in
  check F.value "present key" (Value.Int 2)
    (Runtime.eval (Runtime.env store)
       Expr.(
         Binop (IndexOp, Prop (Const (Value.Obj m), "labels"), Const (Value.Str "hi"))));
  check F.value "missing key is NULL" Value.Null
    (Runtime.eval (Runtime.env store)
       Expr.(
         Binop (IndexOp, Prop (Const (Value.Obj m), "labels"), Const (Value.Str "no"))))

let test_index_in_query () =
  let store, _ = measurement_store () in
  let r =
    Eval.run store
      (To_algebra.query_to_algebra (Object_store.schema store)
         "ACCESS m.samples[2] FROM m IN Measurement WHERE m.samples[0] == 7")
  in
  check (Alcotest.list F.value) "subscription in query" [ Value.Int 9 ]
    (Relation.column r "result")

let test_index_typecheck_errors () =
  let store, _ = measurement_store () in
  let schema' = Object_store.schema store in
  let bad name src =
    Alcotest.match_raises name
      (function Typecheck.Error _ -> true | _ -> false)
      (fun () -> ignore (Typecheck.check_query schema' (Parser.parse_query src)))
  in
  bad "array index must be int"
    "ACCESS m FROM m IN Measurement WHERE m.samples['x'] == 1";
  bad "dict key type"
    "ACCESS m FROM m IN Measurement WHERE m.labels[1] == 1";
  bad "scalar not indexable"
    "ACCESS m FROM m IN Measurement WHERE m.samples[0][0] == 1"

(* ------------------------------------------------------------------ *)
(* The schema definition language (Section 2.1)                        *)
(* ------------------------------------------------------------------ *)

(* the paper's schema, written as in its Section 2.1 figure (plus the
   cost/selectivity annotations our signatures carry) *)
let paper_schema_text =
  {|
CLASS Document
  OWNTYPE OBJECTTYPE
    METHODS:
      select_by_index(t: STRING): {Document} EXTERNAL COST 5.0 SELECTIVITY 0.01;
  END;
  INSTTYPE OBJECTTYPE
    PROPERTIES:
      title: STRING;
      author: STRING;
      sections: {Section} INVERSE Section.document;
    METHODS:
      paragraphs(): {Paragraph} { RETURN sections.paragraphs; };
  END;
END;

CLASS Section
  INSTTYPE OBJECTTYPE
    PROPERTIES:
      number: INT;
      title: STRING;
      document: Document INVERSE Document.sections;
      paragraphs: {Paragraph} INVERSE Paragraph.section;
  END;
END;

CLASS Paragraph
  OWNTYPE OBJECTTYPE
    METHODS:
      retrieve_by_string(s: STRING): {Paragraph} EXTERNAL COST 25.0 SELECTIVITY 0.05;
  END;
  INSTTYPE OBJECTTYPE
    PROPERTIES:
      number: INT;
      section: Section INVERSE Section.paragraphs;
      content: STRING;
    METHODS:
      document(): Document { RETURN section.document; };
      contains_string(s: STRING): BOOL EXTERNAL COST 10.0 SELECTIVITY 0.05;
      sameDocument(p: Paragraph): BOOL
        { RETURN SELF->document() == p->document(); };
  END;
END;
|}

let test_schema_parse_paper () =
  let parsed_schema, bodies = Schema_parser.parse paper_schema_text in
  check (Alcotest.list Alcotest.string) "classes"
    [ "Document"; "Paragraph"; "Section" ]
    (List.sort String.compare (Vml_schema.class_names parsed_schema));
  check Alcotest.int "three internal bodies" 3 (List.length bodies);
  (* metadata round-trips *)
  check (Alcotest.float 0.01) "retrieve cost" 25.0
    (Vml_schema.method_cost parsed_schema ~cls:"Paragraph" ~meth:"retrieve_by_string");
  (match Vml_schema.inverse_of parsed_schema ~cls:"Section" ~prop:"document" with
  | Some ("Document", "sections") -> ()
  | _ -> Alcotest.fail "inverse link lost");
  match Vml_schema.inst_method parsed_schema ~cls:"Paragraph" ~meth:"contains_string" with
  | Some m ->
    check Alcotest.bool "external" true (m.Vml_schema.kind = Vml_schema.External)
  | None -> Alcotest.fail "contains_string missing"

let test_schema_parse_bodies_run () =
  (* the parsed bodies execute: build a store from the text, add two
     documents, and call the path methods *)
  let store = Schema_parser.load paper_schema_text in
  let d = Object_store.create_object store ~cls:"Document" [ ("title", Value.Str "T") ] in
  let s = Object_store.create_object store ~cls:"Section" [ ("document", Value.Obj d) ] in
  let p = Object_store.create_object store ~cls:"Paragraph" [ ("section", Value.Obj s) ] in
  check F.value "document() navigates" (Value.Obj d)
    (Runtime.invoke store (Value.Obj p) "document" []);
  check F.value "sameDocument" (Value.Bool true)
    (Runtime.invoke store (Value.Obj p) "sameDocument" [ Value.Obj p ]);
  check F.value "paragraphs() unions" (Value.set [ Value.Obj p ])
    (Runtime.invoke store (Value.Obj d) "paragraphs" [])

let test_schema_parse_impure_annotation () =
  let src =
    {|
CLASS C
  INSTTYPE OBJECTTYPE
    PROPERTIES: x: INT;
    METHODS: bump(): INT EXTERNAL UPDATES COST 2.0;
  END;
END;
|}
  in
  let parsed, _ = Schema_parser.parse src in
  check Alcotest.bool "impure recorded" false
    (Vml_schema.method_is_pure parsed ~meth:"bump")

let test_schema_parse_errors () =
  let bad name src =
    Alcotest.match_raises name
      (function Schema_parser.Error _ -> true | _ -> false)
      (fun () -> ignore (Schema_parser.parse src))
  in
  bad "internal without body"
    "CLASS C INSTTYPE OBJECTTYPE METHODS: m(): INT; END; END;";
  bad "external with body"
    "CLASS C INSTTYPE OBJECTTYPE METHODS: m(): INT EXTERNAL { RETURN 1; }; END; END;";
  bad "ill-typed body"
    "CLASS C INSTTYPE OBJECTTYPE PROPERTIES: x: INT; METHODS: m(): STRING { \
     RETURN x; }; END; END;";
  bad "undeclared class in property"
    "CLASS C INSTTYPE OBJECTTYPE PROPERTIES: y: Nowhere; END; END;";
  bad "non-mutual inverse"
    "CLASS C INSTTYPE OBJECTTYPE PROPERTIES: y: D INVERSE D.cs; END; END; \
     CLASS D INSTTYPE OBJECTTYPE PROPERTIES: cs: {C}; END; END;";
  bad "truncated" "CLASS C INSTTYPE OBJECTTYPE"

(* ------------------------------------------------------------------ *)
(* Property: parse . print = parse                                     *)
(* ------------------------------------------------------------------ *)

let query_src_gen =
  QCheck2.Gen.oneofl
    [
      "ACCESS p FROM p IN Paragraph";
      "ACCESS p.number FROM p IN Paragraph WHERE p.number < 3";
      "ACCESS [a: d.title, b: d.author] FROM d IN Document";
      "ACCESS d.title FROM d IN Document, p IN d->paragraphs() WHERE \
       p->contains_string('x')";
      "ACCESS p FROM p IN Paragraph WHERE p IS-IN \
       (Document->select_by_index('t')).sections.paragraphs";
      "ACCESS s FROM s IN Section WHERE s.number < 2 AND s.number > 0 OR NOT \
       (s.title == 'x')";
    ]

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~count:30 ~name:"printing then reparsing is stable"
    query_src_gen
    (fun src ->
      let q1 = Parser.parse_query src in
      let q2 = Parser.parse_query (Ast.to_string q1) in
      q1 = q2)

let () =
  Alcotest.run "vql"
    [
      ( "lexer",
        [
          F.case "basics" test_lex_basics;
          F.case "IS-IN / IS-SUBSET" test_lex_is_in;
          F.case "strings" test_lex_strings;
          F.case "numbers & arrows" test_lex_numbers_arrows;
          F.case "comments" test_lex_comment;
          F.case "errors" test_lex_error;
        ] );
      ( "parser",
        [
          F.case "example 1" test_parse_example1;
          F.case "example 2" test_parse_example2;
          F.case "example 3" test_parse_example3;
          F.case "precedence" test_parse_precedence;
          F.case "path expressions" test_parse_path;
          F.case "set operators" test_parse_set_ops;
          F.case "errors" test_parse_errors;
        ] );
      ( "typecheck",
        [
          F.case "query Q" test_typecheck_q;
          F.case "set lifting" test_typecheck_set_lifting;
          F.case "class method" test_typecheck_class_method;
          F.case "errors" test_typecheck_errors;
          F.case "dependent range" test_typecheck_dependent_range;
        ] );
      ( "translate",
        [
          F.case "canonical shape" test_translate_canonical_shape;
          F.case "simple access" test_translate_simple_access_projects;
          F.case "dependent range" test_translate_dependent_range_is_flat;
          F.case "method source" test_translate_method_source;
        ] );
      ( "nested-queries",
        [
          F.case "FROM source" test_nested_from_source;
          F.case "IS-IN conjunct" test_nested_isin_conjunct;
          F.case "no variable capture" test_nested_no_capture;
          F.case "optimized soundly" test_nested_optimizes;
          F.case "rejected positions" test_nested_rejected_positions;
        ] );
      ( "subscription",
        [
          F.case "array indexing" test_index_array;
          F.case "dictionary lookup" test_index_dict;
          F.case "in a query" test_index_in_query;
          F.case "type errors" test_index_typecheck_errors;
        ] );
      ( "schema-language",
        [
          F.case "paper schema parses" test_schema_parse_paper;
          F.case "parsed bodies run" test_schema_parse_bodies_run;
          F.case "UPDATES annotation" test_schema_parse_impure_annotation;
          F.case "errors" test_schema_parse_errors;
        ] );
      ( "end-to-end",
        [
          F.case "query Q" test_eval_query_q;
          F.case "example 2" test_eval_example2;
          F.case "Q == PQ" test_eval_q_equals_pq_via_vql;
          F.case "intermediate transforms" test_eval_intermediate_transforms;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_print_parse_roundtrip ] );
    ]
