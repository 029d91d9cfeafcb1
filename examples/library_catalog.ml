(* A complete custom application domain, end to end: schema written in
   the VML surface syntax, method knowledge written in the specification
   language, external access paths registered as natives, and a
   per-schema optimizer generated for it — nothing here mentions the
   paper's document schema.

   Run with: dune exec examples/library_catalog.exe *)

open Soqm_vml
open Soqm_storage

let schema_text =
  {|
CLASS Author
  INSTTYPE OBJECTTYPE
    PROPERTIES:
      name: STRING;
      books: {Book} INVERSE Book.author;
  END;
END;

CLASS Book
  OWNTYPE OBJECTTYPE
    METHODS:
      by_author_name(n: STRING): {Book} EXTERNAL COST 3.0 SELECTIVITY 0.02;
  END;
  INSTTYPE OBJECTTYPE
    PROPERTIES:
      isbn: STRING;
      title: STRING;
      year: INT;
      author: Author INVERSE Author.books;
      loans: {Loan} INVERSE Loan.book;
    METHODS:
      author_name(): STRING { RETURN author.name; };
      is_available(): BOOL EXTERNAL COST 6.0 SELECTIVITY 0.7;
  END;
END;

CLASS Loan
  INSTTYPE OBJECTTYPE
    PROPERTIES:
      book: Book INVERSE Book.loans;
      member: STRING;
      returned: BOOL;
  END;
END;
|}

let knowledge_text =
  {|
[AuthorIndex] FORALL b IN Book (n: STRING):
  b.author.name == n <=> b IS-IN Book->by_author_name(n)
[AuthorPath] FORALL b IN Book: b->author_name() == b.author.name
|}

let () =
  (* 1. schema + internal method bodies from the surface syntax *)
  let store = Soqm_vql.Schema_parser.load schema_text in
  let schema = Object_store.schema store in

  (* 2. external access paths: a value index on the author name behind
     Book->by_author_name, and availability from the loans *)
  let author_index = Hash_index.create ~cls:"Book" ~prop:"author" in
  Object_store.register_own_method store ~cls:"Book" ~meth:"by_author_name"
    (Object_store.Native
       (fun store _recv args ->
         match args with
         | [ (Value.Str _ as name) ] ->
           Value.set
             (List.map
                (fun o -> Value.Obj o)
                (Hash_index.probe author_index (Object_store.counters store) name))
         | _ -> raise (Runtime.Error "by_author_name expects a string")));
  Object_store.register_inst_method store ~cls:"Book" ~meth:"is_available"
    (Object_store.Native
       (fun store recv _args ->
         match recv with
         | Value.Obj b ->
           let loans =
             match Object_store.get_prop store b "loans" with
             | Value.Set xs -> xs
             | _ -> []
           in
           Value.Bool
             (List.for_all
                (fun l ->
                  match l with
                  | Value.Obj loan ->
                    Object_store.get_prop store loan "returned" = Value.Bool true
                  | _ -> true)
                loans)
         | _ -> raise (Runtime.Error "is_available on non-book")));

  (* 3. data *)
  let authors =
    List.map
      (fun name -> Object_store.create_object store ~cls:"Author" [ ("name", Value.Str name) ])
      [ "Knuth"; "Liskov"; "Dijkstra"; "Hopper"; "Lovelace" ]
  in
  List.iteri
    (fun i author ->
      for k = 0 to 19 do
        let b =
          Object_store.create_object store ~cls:"Book"
            [
              ("isbn", Value.Str (Printf.sprintf "isbn-%d-%d" i k));
              ("title", Value.Str (Printf.sprintf "Volume %d" k));
              ("year", Value.Int (1965 + ((i + k) mod 50)));
              ("author", Value.Obj author);
            ]
        in
        if k mod 3 = 0 then
          ignore
            (Object_store.create_object store ~cls:"Loan"
               [
                 ("book", Value.Obj b);
                 ("member", Value.Str "m1");
                 ("returned", Value.Bool (k mod 6 = 0));
               ])
      done)
    authors;
  (* index the books under their author's *name* (what by_author_name probes) *)
  List.iter
    (fun b ->
      match Object_store.peek_prop store b "author" with
      | Value.Obj a -> Hash_index.insert author_index (Object_store.peek_prop store a "name") b
      | _ -> ())
    (Object_store.extent store "Book");

  (* 4. knowledge + a generated optimizer for this schema *)
  let specs = Soqm_semantics.Spec_lang.parse_specs schema knowledge_text in
  Printf.printf "knowledge for the library schema:\n";
  List.iter (fun s -> Format.printf "  %a@." Soqm_semantics.Equivalence.pp s) specs;
  let exec_ctx = Soqm_physical.Exec.basic_ctx store in
  let engine =
    Soqm_core.Engine.generate_custom ~specs ~store ~exec_ctx
      ()
  in
  Printf.printf "\ngenerated optimizer: %d rules\n\n" (Soqm_core.Engine.rule_count engine);

  (* 5. a natural query: available books by Knuth *)
  let query =
    "ACCESS [title: b.title, year: b.year] FROM b IN Book WHERE \
     b->author_name() == 'Knuth' AND b->is_available()"
  in
  Printf.printf "query:\n  %s\n\n" query;
  let naive = Soqm_core.Engine.run_query engine query in
  let optimized = Soqm_core.Engine.run_optimized engine query in
  assert (
    Soqm_algebra.Relation.equal naive.Soqm_core.Engine.result
      optimized.Soqm_core.Engine.result);
  Printf.printf "%d matching book(s)\n"
    (Soqm_algebra.Relation.cardinality optimized.Soqm_core.Engine.result);
  Printf.printf "naive:     cost %8.1f\n"
    (Counters.total_cost naive.Soqm_core.Engine.counters);
  Printf.printf "optimized: cost %8.1f\n"
    (Counters.total_cost optimized.Soqm_core.Engine.counters);
  match optimized.Soqm_core.Engine.opt with
  | Some o ->
    Format.printf "\nchosen plan:@.%a@." Soqm_physical.Plan.pp
      o.Soqm_optimizer.Search.best_plan
  | None -> ()
