(* Unit and property tests for the VML data-model substrate. *)

open Soqm_vml

let check = Alcotest.check
let tbool = Alcotest.bool
let tint = Alcotest.int
let tstr = Alcotest.string

let value_testable = Alcotest.testable Value.pp Value.equal

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

let test_set_canonical () =
  let s1 = Value.set [ Value.Int 3; Value.Int 1; Value.Int 3; Value.Int 2 ] in
  let s2 = Value.set [ Value.Int 1; Value.Int 2; Value.Int 3 ] in
  check value_testable "sets canonicalize" s1 s2

let test_tuple_canonical () =
  let t1 = Value.tuple [ ("b", Value.Int 2); ("a", Value.Int 1) ] in
  let t2 = Value.tuple [ ("a", Value.Int 1); ("b", Value.Int 2) ] in
  check value_testable "tuple labels are unordered" t1 t2

let test_tuple_duplicate_label () =
  Alcotest.check_raises "duplicate label rejected"
    (Invalid_argument "Value.tuple: duplicate label a") (fun () ->
      ignore (Value.tuple [ ("a", Value.Int 1); ("a", Value.Int 2) ]))

let test_is_in () =
  let s = Value.set [ Value.Int 1; Value.Int 2 ] in
  check tbool "1 in {1,2}" true (Value.is_in (Value.Int 1) s);
  check tbool "3 not in {1,2}" false (Value.is_in (Value.Int 3) s)

let test_is_subset () =
  let s12 = Value.set [ Value.Int 1; Value.Int 2 ] in
  let s123 = Value.set [ Value.Int 1; Value.Int 2; Value.Int 3 ] in
  check tbool "subset" true (Value.is_subset s12 s123);
  check tbool "not subset" false (Value.is_subset s123 s12)

let test_set_ops () =
  let a = Value.set [ Value.Int 1; Value.Int 2 ] in
  let b = Value.set [ Value.Int 2; Value.Int 3 ] in
  check value_testable "union"
    (Value.set [ Value.Int 1; Value.Int 2; Value.Int 3 ])
    (Value.set_union a b);
  check value_testable "inter" (Value.set [ Value.Int 2 ]) (Value.set_inter a b);
  check value_testable "diff" (Value.set [ Value.Int 1 ]) (Value.set_diff a b)

let test_tuple_get () =
  let t = Value.tuple [ ("x", Value.Int 1); ("y", Value.Str "s") ] in
  check value_testable "get x" (Value.Int 1) (Value.tuple_get t "x");
  check value_testable "get y" (Value.Str "s") (Value.tuple_get t "y")

let test_value_order_total () =
  let vs =
    [
      Value.Null;
      Value.Bool true;
      Value.Int 1;
      Value.Real 2.5;
      Value.Str "x";
      Value.Obj (Oid.make ~cls:"C" ~id:1);
      Value.Cls "C";
      Value.tuple [ ("a", Value.Int 1) ];
      Value.set [ Value.Int 1 ];
      Value.Arr [| Value.Int 1 |];
      Value.dict [ (Value.Int 1, Value.Str "a") ];
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          check tbool "antisymmetric" true
            ((c1 = 0 && c2 = 0) || (c1 > 0 && c2 < 0) || (c1 < 0 && c2 > 0)))
        vs)
    vs

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let test_check_primitives () =
  check tbool "int" true (Vtype.check Vtype.TInt (Value.Int 3));
  check tbool "int not string" false (Vtype.check Vtype.TInt (Value.Str "x"));
  check tbool "int widens to real" true (Vtype.check Vtype.TReal (Value.Int 3));
  check tbool "null anywhere" true (Vtype.check Vtype.TString Value.Null)

let test_check_obj () =
  let o = Value.Obj (Oid.make ~cls:"Document" ~id:0) in
  check tbool "exact class" true (Vtype.check (Vtype.TObj "Document") o);
  check tbool "wrong class" false (Vtype.check (Vtype.TObj "Section") o);
  check tbool "any obj" true (Vtype.check Vtype.TAnyObj o)

let test_check_complex () =
  let v = Value.set [ Value.Int 1; Value.Int 2 ] in
  check tbool "set of int" true (Vtype.check (Vtype.TSet Vtype.TInt) v);
  check tbool "set of string" false (Vtype.check (Vtype.TSet Vtype.TString) v);
  let tup = Value.tuple [ ("a", Value.Int 1); ("b", Value.Str "x") ] in
  check tbool "tuple type" true
    (Vtype.check (Vtype.ttuple [ ("b", Vtype.TString); ("a", Vtype.TInt) ]) tup)

let test_subtype () =
  check tbool "obj <= anyobj" true (Vtype.subtype (Vtype.TObj "C") Vtype.TAnyObj);
  check tbool "int <= real" true (Vtype.subtype Vtype.TInt Vtype.TReal);
  check tbool "covariant sets" true
    (Vtype.subtype (Vtype.TSet (Vtype.TObj "C")) (Vtype.TSet Vtype.TAnyObj));
  check tbool "not reflexively wrong" false
    (Vtype.subtype Vtype.TAnyObj (Vtype.TObj "C"))

let test_of_value () =
  let some_ty = Alcotest.testable
      (Fmt.option Vtype.pp)
      (Option.equal Vtype.equal)
  in
  check some_ty "int" (Some Vtype.TInt) (Vtype.of_value (Value.Int 1));
  check some_ty "obj"
    (Some (Vtype.TObj "Document"))
    (Vtype.of_value (Value.Obj (Oid.make ~cls:"Document" ~id:3)));
  check some_ty "set"
    (Some (Vtype.TSet Vtype.TInt))
    (Vtype.of_value (Value.set [ Value.Int 1 ]));
  check some_ty "null" None (Vtype.of_value Value.Null)

(* ------------------------------------------------------------------ *)
(* Schema validation                                                   *)
(* ------------------------------------------------------------------ *)

let test_schema_duplicate_class () =
  Alcotest.match_raises "duplicate class"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> ignore (Schema.make [ Schema.cls "C"; Schema.cls "C" ]))

let test_schema_unknown_class_in_type () =
  Alcotest.match_raises "undeclared class"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore
        (Schema.make
           [ Schema.cls "C" ~properties:[ Schema.prop "x" (Vtype.TObj "D") ] ]))

let test_schema_inverse_must_be_mutual () =
  Alcotest.match_raises "non-mutual inverse"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore
        (Schema.make
           [
             Schema.cls "C"
               ~properties:
                 [ Schema.prop "d" (Vtype.TObj "D") ~inverse:("D", "cs") ];
             Schema.cls "D"
               ~properties:[ Schema.prop "cs" (Vtype.TSet (Vtype.TObj "C")) ];
           ]))

let test_schema_property_method_clash () =
  Alcotest.match_raises "property/method clash"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () ->
      ignore
        (Schema.make
           [
             Schema.cls "C"
               ~properties:[ Schema.prop "x" Vtype.TInt ]
               ~inst_methods:[ Schema.meth "x" [] Vtype.TInt ];
           ]))

let test_schema_lookups () =
  let s = Soqm_core.Doc_schema.schema in
  check tbool "find Document" true (Option.is_some (Schema.find_class s "Document"));
  check tbool "property title" true
    (Option.is_some (Schema.property s ~cls:"Document" ~prop:"title"));
  check tbool "own method select_by_index" true
    (Option.is_some (Schema.own_method s ~cls:"Document" ~meth:"select_by_index"));
  check tbool "inst method contains_string" true
    (Option.is_some (Schema.inst_method s ~cls:"Paragraph" ~meth:"contains_string"));
  check (Alcotest.float 0.001) "declared cost"
    Soqm_core.Doc_schema.cost_contains_string
    (Schema.method_cost s ~cls:"Paragraph" ~meth:"contains_string");
  match Schema.inverse_of s ~cls:"Section" ~prop:"document" with
  | Some (c, p) ->
    check tstr "inverse class" "Document" c;
    check tstr "inverse prop" "sections" p
  | None -> Alcotest.fail "Section.document should declare an inverse"

(* ------------------------------------------------------------------ *)
(* Object store                                                        *)
(* ------------------------------------------------------------------ *)

let small_schema =
  Schema.make
    [
      Schema.cls "Doc"
        ~properties:
          [
            Schema.prop "title" Vtype.TString;
            Schema.prop "secs" (Vtype.TSet (Vtype.TObj "Sec"))
              ~inverse:("Sec", "doc");
          ];
      Schema.cls "Sec"
        ~properties:
          [ Schema.prop "doc" (Vtype.TObj "Doc") ~inverse:("Doc", "secs") ];
    ]

let test_store_create_extent () =
  let store = Object_store.create small_schema in
  let d1 = Object_store.create_object store ~cls:"Doc" [ ("title", Value.Str "a") ] in
  let d2 = Object_store.create_object store ~cls:"Doc" [ ("title", Value.Str "b") ] in
  check tint "extent size" 2 (Object_store.extent_size store "Doc");
  check tbool "extent contains both" true
    (List.mem d1 (Object_store.extent store "Doc")
    && List.mem d2 (Object_store.extent store "Doc"))

let test_store_typecheck_on_write () =
  let store = Object_store.create small_schema in
  let d = Object_store.create_object store ~cls:"Doc" [] in
  Alcotest.match_raises "ill-typed write"
    (function Invalid_argument _ -> true | _ -> false)
    (fun () -> Object_store.set_prop store d "title" (Value.Int 3))

let test_store_missing_prop_is_null () =
  let store = Object_store.create small_schema in
  let d = Object_store.create_object store ~cls:"Doc" [] in
  check value_testable "unset property" Value.Null
    (Object_store.get_prop store d "title")

let test_inverse_maintained_on_set () =
  let store = Object_store.create small_schema in
  let d = Object_store.create_object store ~cls:"Doc" [] in
  let s = Object_store.create_object store ~cls:"Sec" [ ("doc", Value.Obj d) ] in
  check value_testable "doc.secs contains sec"
    (Value.set [ Value.Obj s ])
    (Object_store.get_prop store d "secs")

let test_inverse_maintained_on_move () =
  let store = Object_store.create small_schema in
  let d1 = Object_store.create_object store ~cls:"Doc" [] in
  let d2 = Object_store.create_object store ~cls:"Doc" [] in
  let s = Object_store.create_object store ~cls:"Sec" [ ("doc", Value.Obj d1) ] in
  Object_store.set_prop store s "doc" (Value.Obj d2);
  check value_testable "old doc loses sec" (Value.Set [])
    (Object_store.get_prop store d1 "secs");
  check value_testable "new doc gains sec"
    (Value.set [ Value.Obj s ])
    (Object_store.get_prop store d2 "secs")

let test_inverse_maintained_on_delete () =
  let store = Object_store.create small_schema in
  let d = Object_store.create_object store ~cls:"Doc" [] in
  let s = Object_store.create_object store ~cls:"Sec" [ ("doc", Value.Obj d) ] in
  Object_store.delete_object store s;
  check value_testable "doc.secs emptied" (Value.Set [])
    (Object_store.get_prop store d "secs");
  check tbool "sec gone" false (Object_store.exists store s);
  check tint "extent shrunk" 0 (Object_store.extent_size store "Sec")

let test_counters_charged () =
  let store = Object_store.create small_schema in
  let d = Object_store.create_object store ~cls:"Doc" [ ("title", Value.Str "t") ] in
  let c = Object_store.counters store in
  Counters.reset c Query;
  ignore (Object_store.get_prop store d "title");
  check tint "one fetch" 1 (Counters.get c Objects_fetched);
  check tint "one read" 1 (Counters.get c Property_reads);
  ignore (Object_store.peek_prop store d "title");
  check tint "peek is free" 1 (Counters.get c Objects_fetched)

(* The parallel executor charges counters from several domains at once:
   hammer one counter set from two domains and check no increment is
   lost (the tallies are atomics, the method-call table is
   mutex-guarded). *)
let test_counters_domain_safe () =
  let c = Counters.create () in
  let rounds = 50_000 in
  let hammer () =
    for i = 1 to rounds do
      Counters.incr c Tuples_produced;
      Counters.add c Tuples_produced 2;
      Counters.incr c Objects_fetched;
      Counters.incr c Index_probes;
      Counters.incr c Blocks_produced;
      Counters.add c Postings_touched 1;
      if i mod 100 = 0 then
        Counters.charge_method_call c ~meth:"m" ~cost:1.0
    done
  in
  let other = Domain.spawn hammer in
  hammer ();
  Domain.join other;
  check tint "no lost tuple increments" (2 * 3 * rounds)
    (Counters.get c Tuples_produced);
  check tint "no lost fetches" (2 * rounds) (Counters.get c Objects_fetched);
  check tint "no lost probes" (2 * rounds) (Counters.get c Index_probes);
  check tint "no lost blocks" (2 * rounds) (Counters.get c Blocks_produced);
  check tint "no lost maintenance charges" (2 * rounds)
    (Counters.get c Postings_touched);
  check tint "no lost method calls" (2 * rounds / 100)
    (Counters.method_call_count c "m");
  (* reset semantics survive the rewrite: query counters zero, the
     maintenance side accumulates until its own family is reset *)
  Counters.reset c Query;
  check tint "reset zeroes query counters" 0 (Counters.get c Tuples_produced);
  check tint "reset keeps maintenance counters" (2 * rounds)
    (Counters.get c Postings_touched);
  Counters.reset c Maintenance;
  check tint "maintenance reset zeroes them" 0
    (Counters.get c Postings_touched)

(* Resetting a family zeroes exactly its counters: charge every counter a
   distinct amount plus one method call, reset each family on its own
   snapshot, and check every other counter (and the original) keeps its
   value. *)
let test_counters_family_reset () =
  let c = Counters.create () in
  List.iteri
    (fun i k ->
      Counters.incr c k;
      Counters.add c k i)
    Counters.all;
  Counters.charge_method_call c ~meth:"m" ~cost:2.5;
  List.iter
    (fun (name, fam) ->
      let s = Counters.snapshot c in
      Counters.reset s fam;
      List.iteri
        (fun i k ->
          let kept = Counters.family k <> fam in
          check tint
            (Printf.sprintf "reset %s: counter %d" name i)
            (if kept then i + 1 else 0)
            (Counters.get s k))
        Counters.all;
      let query = fam = Counters.Query in
      check tint (name ^ ": method calls")
        (if query then 0 else 1)
        (Counters.method_call_count s "m");
      check (Alcotest.float 1e-9) (name ^ ": charged cost")
        (if query then 0. else 2.5)
        (Counters.charged_cost s);
      List.iter (fun k -> Counters.add s k 100) Counters.all;
      Counters.charge_method_call s ~meth:"m" ~cost:1.0)
    [
      ("query", Counters.Query);
      ("maintenance", Maintenance);
      ("storage", Storage);
      ("txn", Txn);
      ("knowledge", Knowledge);
    ];
  List.iteri
    (fun i k ->
      check tint (Printf.sprintf "original counter %d" i) (i + 1)
        (Counters.get c k))
    Counters.all;
  check tint "original method calls" 1 (Counters.method_call_count c "m");
  check (Alcotest.float 1e-9) "original charged cost" 2.5
    (Counters.charged_cost c)

(* Server-style concurrency: N session domains, each issuing a mix of
   query-side charges (tuples, fetches, probes) and DML-side charges
   (postings, stats deltas, transaction lifecycle).  Every domain runs a
   different number of rounds so a lost increment cannot hide behind a
   symmetric miscount; the totals must equal the serial sum. *)
let test_counters_n_sessions () =
  let c = Counters.create () in
  let sessions = 6 in
  let rounds s = 5_000 + (1_000 * s) in
  let session s () =
    for i = 1 to rounds s do
      if i mod 3 = 0 then begin
        (* a DML round: txn lifecycle + maintenance charges *)
        Counters.incr c Txn_begins;
        if i mod 9 = 0 then begin
          Counters.incr c Txn_conflicts;
          Counters.incr c Txn_aborts
        end
        else Counters.incr c Txn_commits;
        Counters.add c Postings_touched 2;
        Counters.incr c Stats_deltas
      end
      else begin
        (* a query round: executor-side charges *)
        Counters.incr c Blocks_produced;
        Counters.add c Tuples_produced 4;
        Counters.incr c Objects_fetched;
        Counters.incr c Index_probes;
        if i mod 50 = 0 then Counters.charge_method_call c ~meth:"q" ~cost:0.5
      end
    done
  in
  let doms =
    List.init (sessions - 1) (fun s -> Domain.spawn (session (s + 1)))
  in
  session 0 ();
  List.iter Domain.join doms;
  (* the serial sums, computed the boring way *)
  let total = ref 0
  and dml = ref 0
  and conflicts = ref 0
  and queries = ref 0
  and methods_ = ref 0 in
  for s = 0 to sessions - 1 do
    for i = 1 to rounds s do
      incr total;
      if i mod 3 = 0 then begin
        incr dml;
        if i mod 9 = 0 then incr conflicts
      end
      else begin
        incr queries;
        if i mod 50 = 0 then incr methods_
      end
    done
  done;
  check tint "txn begins" !dml (Counters.get c Txn_begins);
  check tint "txn conflicts" !conflicts (Counters.get c Txn_conflicts);
  check tint "txn aborts" !conflicts (Counters.get c Txn_aborts);
  check tint "txn commits" (!dml - !conflicts) (Counters.get c Txn_commits);
  check tint "postings" (2 * !dml) (Counters.get c Postings_touched);
  check tint "stats deltas" !dml (Counters.get c Stats_deltas);
  check tint "blocks" !queries (Counters.get c Blocks_produced);
  check tint "tuples" (4 * !queries) (Counters.get c Tuples_produced);
  check tint "fetches" !queries (Counters.get c Objects_fetched);
  check tint "probes" !queries (Counters.get c Index_probes);
  check tint "method calls" !methods_ (Counters.method_call_count c "q")

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

let doc_db () = Soqm_core.Db.create ~params:Soqm_core.Datagen.default ()

let test_runtime_path_method () =
  let db = doc_db () in
  let store = db.Soqm_core.Db.store in
  let p = List.hd (Object_store.extent store "Paragraph") in
  let via_method = Runtime.invoke store (Value.Obj p) "document" [] in
  let env = Runtime.env store in
  let via_path =
    Runtime.eval env
      Expr.(Prop (Prop (Const (Value.Obj p), "section"), "document"))
  in
  check value_testable "E1: document() == section.document" via_path via_method

let test_runtime_same_document () =
  let db = doc_db () in
  let store = db.Soqm_core.Db.store in
  let paras = Object_store.extent store "Paragraph" in
  let p1 = List.nth paras 0 and p2 = List.nth paras 1 in
  let same a b =
    Runtime.invoke store (Value.Obj a) "sameDocument" [ Value.Obj b ]
  in
  (* first two generated paragraphs share the first section *)
  check value_testable "same doc" (Value.Bool true) (same p1 p2);
  let last = List.nth paras (List.length paras - 1) in
  check value_testable "different docs" (Value.Bool false) (same p1 last)

let test_runtime_set_lifted_access () =
  let db = doc_db () in
  let store = db.Soqm_core.Db.store in
  let d = List.hd (Object_store.extent store "Document") in
  let env = Runtime.env store in
  (* D.sections.paragraphs = union of paragraph sets *)
  let v =
    Runtime.eval env
      Expr.(Prop (Prop (Const (Value.Obj d), "sections"), "paragraphs"))
  in
  let via_method = Runtime.invoke store (Value.Obj d) "paragraphs" [] in
  check value_testable "paragraphs() == sections.paragraphs" v via_method;
  let n = Soqm_core.Datagen.(default.sections_per_doc * default.paras_per_section) in
  check tint "fanout" n (List.length (Value.set_elements v))

let test_runtime_class_method () =
  let db = doc_db () in
  let store = db.Soqm_core.Db.store in
  let v =
    Runtime.invoke store (Value.Cls "Document") "select_by_index"
      [ Value.Str Soqm_core.Datagen.query_title ]
  in
  check tint "exactly one matching document" 1 (List.length (Value.set_elements v))

let test_runtime_contains_vs_retrieve () =
  (* E5 at the runtime level: the set retrieved by the class method equals
     the set of paragraphs whose contains_string is true. *)
  let db = doc_db () in
  let store = db.Soqm_core.Db.store in
  let word = Value.Str Soqm_core.Datagen.query_word in
  let by_scan =
    List.filter
      (fun p ->
        Value.truthy (Runtime.invoke store (Value.Obj p) "contains_string" [ word ]))
      (Object_store.extent store "Paragraph")
  in
  let by_index =
    Runtime.invoke store (Value.Cls "Paragraph") "retrieve_by_string" [ word ]
  in
  check value_testable "E5 holds on the generated corpus"
    (Value.set (List.map (fun p -> Value.Obj p) by_scan))
    by_index;
  check tbool "some paragraphs match" true (by_scan <> [])

let test_runtime_errors () =
  let db = doc_db () in
  let store = db.Soqm_core.Db.store in
  let p = List.hd (Object_store.extent store "Paragraph") in
  Alcotest.match_raises "unknown method"
    (function Runtime.Error _ -> true | _ -> false)
    (fun () -> ignore (Runtime.invoke store (Value.Obj p) "nope" []));
  Alcotest.match_raises "arity"
    (function Runtime.Error _ -> true | _ -> false)
    (fun () -> ignore (Runtime.invoke store (Value.Obj p) "contains_string" []));
  Alcotest.match_raises "unbound ref"
    (function Runtime.Error _ -> true | _ -> false)
    (fun () -> ignore (Runtime.eval (Runtime.env store) (Expr.Ref "x")))

let test_runtime_binops () =
  let v = Runtime.eval_binop Expr.Add (Value.Int 2) (Value.Int 3) in
  check value_testable "2+3" (Value.Int 5) v;
  check value_testable "mixed arith" (Value.Real 3.5)
    (Runtime.eval_binop Expr.Add (Value.Int 3) (Value.Real 0.5));
  check value_testable "concat" (Value.Str "ab")
    (Runtime.eval_binop Expr.Concat (Value.Str "a") (Value.Str "b"));
  check value_testable "null eq is false" (Value.Bool false)
    (Runtime.eval_binop Expr.Eq Value.Null (Value.Int 1));
  Alcotest.match_raises "div by zero"
    (function Runtime.Error _ -> true | _ -> false)
    (fun () -> ignore (Runtime.eval_binop Expr.Div (Value.Int 1) (Value.Int 0)))

let test_expr_helpers () =
  let e =
    Expr.(
      Binop
        ( And,
          Binop (Eq, Prop (Ref "p", "title"), Const (Value.Str "x")),
          Call (Ref "q", "contains_string", [ Const (Value.Str "y") ]) ))
  in
  check (Alcotest.list tstr) "refs" [ "p"; "q" ] (Expr.refs e);
  check (Alcotest.list tstr) "methods" [ "contains_string" ]
    (Expr.methods_called e);
  check tbool "boolean shape" true (Expr.is_boolean_shape e);
  let renamed = Expr.rename_ref ~old_ref:"p" ~new_ref:"z" e in
  check (Alcotest.list tstr) "renamed refs" [ "q"; "z" ] (Expr.refs renamed)

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let value_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let base =
        oneof
          [
            return Value.Null;
            map (fun b -> Value.Bool b) bool;
            map (fun i -> Value.Int i) (int_range (-1000) 1000);
            map (fun f -> Value.Real (Float.of_int f /. 8.)) (int_range (-800) 800);
            map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 8));
            map2
              (fun c i -> Value.Obj (Oid.make ~cls:(if c then "A" else "B") ~id:i))
              bool (int_range 0 50);
          ]
      in
      if n <= 1 then base
      else
        oneof
          [
            base;
            map Value.set (list_size (int_range 0 4) (self (n / 2)));
            map
              (fun vs ->
                Value.tuple (List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) vs))
              (list_size (int_range 0 4) (self (n / 2)));
          ])

let prop_compare_total =
  QCheck2.Test.make ~count:300 ~name:"Value.compare is a total order"
    QCheck2.Gen.(triple value_gen value_gen value_gen)
    (fun (a, b, c) ->
      let sign x = Stdlib.compare x 0 in
      (* antisymmetry *)
      sign (Value.compare a b) = -sign (Value.compare b a)
      (* transitivity on the <= relation *)
      && (not (Value.compare a b <= 0 && Value.compare b c <= 0)
         || Value.compare a c <= 0))

let prop_set_idempotent =
  QCheck2.Test.make ~count:300 ~name:"set construction is idempotent"
    QCheck2.Gen.(list_size (int_range 0 10) value_gen)
    (fun vs ->
      let s = Value.set vs in
      Value.equal s (Value.set (Value.set_elements s)))

let prop_union_commutative =
  QCheck2.Test.make ~count:300 ~name:"set union is commutative & associative"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 8) value_gen)
        (list_size (int_range 0 8) value_gen)
        (list_size (int_range 0 8) value_gen))
    (fun (a, b, c) ->
      let sa = Value.set a and sb = Value.set b and sc = Value.set c in
      Value.equal (Value.set_union sa sb) (Value.set_union sb sa)
      && Value.equal
           (Value.set_union sa (Value.set_union sb sc))
           (Value.set_union (Value.set_union sa sb) sc))

let prop_inter_subset =
  QCheck2.Test.make ~count:300 ~name:"intersection is a subset of both"
    QCheck2.Gen.(
      pair (list_size (int_range 0 8) value_gen) (list_size (int_range 0 8) value_gen))
    (fun (a, b) ->
      let sa = Value.set a and sb = Value.set b in
      let i = Value.set_inter sa sb in
      Value.is_subset i sa && Value.is_subset i sb)

let prop_typecheck_of_value =
  QCheck2.Test.make ~count:300 ~name:"of_value produces an inhabited type"
    value_gen (fun v ->
      match Vtype.of_value v with None -> true | Some t -> Vtype.check t v)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compare_total;
      prop_set_idempotent;
      prop_union_commutative;
      prop_inter_subset;
      prop_typecheck_of_value;
    ]

let () =
  Alcotest.run "vml"
    [
      ( "values",
        [
          Alcotest.test_case "set canonical" `Quick test_set_canonical;
          Alcotest.test_case "tuple canonical" `Quick test_tuple_canonical;
          Alcotest.test_case "tuple duplicate label" `Quick test_tuple_duplicate_label;
          Alcotest.test_case "is_in" `Quick test_is_in;
          Alcotest.test_case "is_subset" `Quick test_is_subset;
          Alcotest.test_case "set ops" `Quick test_set_ops;
          Alcotest.test_case "tuple get" `Quick test_tuple_get;
          Alcotest.test_case "order total on samples" `Quick test_value_order_total;
        ] );
      ( "types",
        [
          Alcotest.test_case "primitives" `Quick test_check_primitives;
          Alcotest.test_case "objects" `Quick test_check_obj;
          Alcotest.test_case "complex" `Quick test_check_complex;
          Alcotest.test_case "subtype" `Quick test_subtype;
          Alcotest.test_case "of_value" `Quick test_of_value;
        ] );
      ( "schema",
        [
          Alcotest.test_case "duplicate class" `Quick test_schema_duplicate_class;
          Alcotest.test_case "unknown class in type" `Quick
            test_schema_unknown_class_in_type;
          Alcotest.test_case "inverse must be mutual" `Quick
            test_schema_inverse_must_be_mutual;
          Alcotest.test_case "property/method clash" `Quick
            test_schema_property_method_clash;
          Alcotest.test_case "doc schema lookups" `Quick test_schema_lookups;
        ] );
      ( "store",
        [
          Alcotest.test_case "create & extent" `Quick test_store_create_extent;
          Alcotest.test_case "typecheck on write" `Quick test_store_typecheck_on_write;
          Alcotest.test_case "missing prop is null" `Quick
            test_store_missing_prop_is_null;
          Alcotest.test_case "inverse on set" `Quick test_inverse_maintained_on_set;
          Alcotest.test_case "inverse on move" `Quick test_inverse_maintained_on_move;
          Alcotest.test_case "inverse on delete" `Quick
            test_inverse_maintained_on_delete;
          Alcotest.test_case "counters charged" `Quick test_counters_charged;
          Alcotest.test_case "counters domain-safe" `Quick
            test_counters_domain_safe;
          Alcotest.test_case "counters family reset" `Quick
            test_counters_family_reset;
          Alcotest.test_case "counters across N sessions" `Quick
            test_counters_n_sessions;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "path method E1" `Quick test_runtime_path_method;
          Alcotest.test_case "sameDocument" `Quick test_runtime_same_document;
          Alcotest.test_case "set-lifted access" `Quick test_runtime_set_lifted_access;
          Alcotest.test_case "class method" `Quick test_runtime_class_method;
          Alcotest.test_case "contains vs retrieve (E5)" `Quick
            test_runtime_contains_vs_retrieve;
          Alcotest.test_case "dynamic errors" `Quick test_runtime_errors;
          Alcotest.test_case "binops" `Quick test_runtime_binops;
          Alcotest.test_case "expr helpers" `Quick test_expr_helpers;
        ] );
      ("properties", qcheck_tests);
    ]
