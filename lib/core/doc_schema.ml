open Soqm_vml

(* Cost weights, in object-fetch units.  External operations dominate:
   [contains_string] stands for a per-paragraph IR scan, the two
   class-level access paths are single probes of prebuilt indexes. *)
let cost_contains_string = 10.0
let cost_retrieve_by_string = 25.0
let cost_select_by_index = 5.0
let cost_word_count = 8.0
let selectivity_contains_string = 0.05
let selectivity_select_by_index = 0.01

let make ?(cost_contains_string = cost_contains_string)
    ?(pure_word_count = true) () =
  let open Schema in
  let document =
    cls "Document"
      ~own_methods:
        [
          meth "select_by_index"
            [ ("t", Vtype.TString) ]
            (Vtype.TSet (Vtype.TObj "Document"))
            ~kind:External ~cost:cost_select_by_index
            ~selectivity:selectivity_select_by_index;
        ]
      ~properties:
        [
          prop "title" Vtype.TString;
          prop "author" Vtype.TString;
          prop "sections"
            (Vtype.TSet (Vtype.TObj "Section"))
            ~inverse:("Section", "document");
          prop "largeParagraphs" (Vtype.TSet (Vtype.TObj "Paragraph"));
        ]
      ~inst_methods:
        [ meth "paragraphs" [] (Vtype.TSet (Vtype.TObj "Paragraph")) ~cost:1.0 ]
  in
  let section =
    cls "Section"
      ~properties:
        [
          prop "number" Vtype.TInt;
          prop "title" Vtype.TString;
          prop "document" (Vtype.TObj "Document") ~inverse:("Document", "sections");
          prop "paragraphs"
            (Vtype.TSet (Vtype.TObj "Paragraph"))
            ~inverse:("Paragraph", "section");
        ]
  in
  let paragraph =
    cls "Paragraph"
      ~own_methods:
        [
          meth "retrieve_by_string"
            [ ("s", Vtype.TString) ]
            (Vtype.TSet (Vtype.TObj "Paragraph"))
            ~kind:External ~cost:cost_retrieve_by_string
            ~selectivity:selectivity_contains_string;
        ]
      ~properties:
        [
          prop "number" Vtype.TInt;
          prop "section" (Vtype.TObj "Section") ~inverse:("Section", "paragraphs");
          prop "content" Vtype.TString;
          prop "word_count" Vtype.TInt;
        ]
      ~inst_methods:
        [
          meth "document" [] (Vtype.TObj "Document") ~cost:1.0;
          meth "contains_string"
            [ ("s", Vtype.TString) ]
            Vtype.TBool ~kind:External ~cost:cost_contains_string
            ~selectivity:selectivity_contains_string;
          meth "sameDocument"
            [ ("p", Vtype.TObj "Paragraph") ]
            Vtype.TBool ~cost:2.0 ~selectivity:0.01;
          meth "wordCount" [] Vtype.TInt ~kind:External ~cost:cost_word_count
            ~side_effect_free:pure_word_count;
        ]
  in
  Schema.make [ document; section; paragraph ]

let schema = make ()

let install_internal_methods store =
  let open Expr in
  (* document() { RETURN section.document; } *)
  Object_store.register_inst_method store ~cls:"Paragraph" ~meth:"document"
    (Object_store.Body (Prop (Prop (Self, "section"), "document")));
  (* sameDocument(p) { RETURN (SELF->document() == p->document()); } *)
  Object_store.register_inst_method store ~cls:"Paragraph" ~meth:"sameDocument"
    (Object_store.Body
       (Binop (Eq, Call (Self, "document", []), Call (Param "p", "document", []))));
  (* paragraphs() — union of the paragraphs of all of the document's
     sections (set-lifted property access). *)
  Object_store.register_inst_method store ~cls:"Document" ~meth:"paragraphs"
    (Object_store.Body (Prop (Prop (Self, "sections"), "paragraphs")))

(* Index-free variants of the external methods, with the same semantics
   as the index-backed natives {!Db} registers.  The knowledge checker's
   candidate stores have no indexes, so they get these scans. *)
let install_scan_methods store =
  let contains content s =
    let words = Soqm_ir.Tokenizer.vocabulary s in
    words <> [] && List.for_all (Soqm_ir.Tokenizer.contains_word content) words
  in
  Object_store.register_own_method store ~cls:"Document" ~meth:"select_by_index"
    (Object_store.Native
       (fun store _recv args ->
         match args with
         | [ (Value.Str _ as title) ] ->
           let oids =
             List.filter
               (fun oid ->
                 Value.equal (Object_store.peek_prop store oid "title") title)
               (Object_store.extent store "Document")
           in
           Value.set (List.map (fun o -> Value.Obj o) oids)
         | _ -> raise (Runtime.Error "select_by_index expects one string")));
  Object_store.register_own_method store ~cls:"Paragraph"
    ~meth:"retrieve_by_string"
    (Object_store.Native
       (fun store _recv args ->
         match args with
         | [ Value.Str s ] ->
           let oids =
             List.filter
               (fun oid ->
                 match Object_store.peek_prop store oid "content" with
                 | Value.Str content -> contains content s
                 | _ -> false)
               (Object_store.extent store "Paragraph")
           in
           Value.set (List.map (fun o -> Value.Obj o) oids)
         | _ -> raise (Runtime.Error "retrieve_by_string expects one string")));
  Object_store.register_inst_method store ~cls:"Paragraph"
    ~meth:"contains_string"
    (Object_store.Native
       (fun store recv args ->
         match (recv, args) with
         | Value.Obj oid, [ Value.Str s ] -> (
           match Object_store.peek_prop store oid "content" with
           | Value.Str content -> Value.Bool (contains content s)
           | _ -> Value.Bool false)
         | _ -> raise (Runtime.Error "contains_string expects one string")));
  Object_store.register_inst_method store ~cls:"Paragraph" ~meth:"wordCount"
    (Object_store.Native
       (fun store recv args ->
         match (recv, args) with
         | Value.Obj oid, [] -> Object_store.peek_prop store oid "word_count"
         | _ -> raise (Runtime.Error "wordCount expects no arguments")))
