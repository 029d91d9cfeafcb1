(* Methods as algebraic operators (Section 3.2, Example 7): a
   system-defined class Set_object whose instances store sets of object
   identifiers and whose methods select/map are bulk algebra operators —
   "methods like select and map may be used as physical implementations
   of query algebra expressions".

   The paper parametrizes them with VML_Method values; here the method to
   apply is named by a string and dispatched through the regular method
   runtime.

   Run with: dune exec examples/extensible_operators.exe *)

open Soqm_vml

let schema =
  let open Schema in
  Schema.make
    [
      cls "Employee"
        ~properties:
          [ prop "name" Vtype.TString; prop "salary" Vtype.TInt ]
        ~inst_methods:
          [
            meth "well_paid" [] Vtype.TBool ~selectivity:0.3;
            meth "boss" [] (Vtype.TObj "Employee");
          ];
      cls "Set_object"
        ~properties:[ prop "elements" (Vtype.TSet Vtype.TAnyObj) ]
        ~inst_methods:
          [
            meth "select" [ ("m1", Vtype.TString) ] (Vtype.TObj "Set_object");
            meth "map" [ ("m2", Vtype.TString) ] (Vtype.TObj "Set_object");
            meth "contents" [] (Vtype.TSet Vtype.TAnyObj);
          ];
    ]

let install store =
  (* well_paid() { RETURN salary > 1000; } *)
  Object_store.register_inst_method store ~cls:"Employee" ~meth:"well_paid"
    (Object_store.Body
       Expr.(Binop (Gt, Prop (Self, "salary"), Const (Value.Int 1000))));
  (* boss() — everyone reports to employee #0 *)
  Object_store.register_inst_method store ~cls:"Employee" ~meth:"boss"
    (Object_store.Native
       (fun store _self _args ->
         match Object_store.extent store "Employee" with
         | boss :: _ -> Value.Obj boss
         | [] -> Value.Null));
  let elements store self =
    match self with
    | Value.Obj oid -> Value.set_elements (Object_store.get_prop store oid "elements")
    | _ -> raise (Runtime.Error "Set_object method on non-object")
  in
  let fresh store members =
    Value.Obj
      (Object_store.create_object store ~cls:"Set_object"
         [ ("elements", Value.set members) ])
  in
  (* select(m1) keeps the elements for which method m1 yields TRUE... *)
  Object_store.register_inst_method store ~cls:"Set_object" ~meth:"select"
    (Object_store.Native
       (fun store self args ->
         match args with
         | [ Value.Str m1 ] ->
           fresh store
             (List.filter
                (fun e -> Value.truthy (Runtime.invoke store e m1 []))
                (elements store self))
         | _ -> raise (Runtime.Error "select expects a method name")));
  (* ... and map(m2) applies m2 to every element. *)
  Object_store.register_inst_method store ~cls:"Set_object" ~meth:"map"
    (Object_store.Native
       (fun store self args ->
         match args with
         | [ Value.Str m2 ] ->
           fresh store (List.map (fun e -> Runtime.invoke store e m2 []) (elements store self))
         | _ -> raise (Runtime.Error "map expects a method name")));
  Object_store.register_inst_method store ~cls:"Set_object" ~meth:"contents"
    (Object_store.Native
       (fun store self _args -> Value.set (elements store self)))

let () =
  let store = Object_store.create schema in
  install store;
  let names = [ "ada"; "grace"; "edsger"; "barbara"; "donald" ] in
  List.iteri
    (fun i name ->
      ignore
        (Object_store.create_object store ~cls:"Employee"
           [ ("name", Value.Str name); ("salary", Value.Int (600 + (i * 300))) ]))
    names;
  let everyone =
    Object_store.create_object store ~cls:"Set_object"
      [
        ( "elements",
          Value.set
            (List.map (fun o -> Value.Obj o) (Object_store.extent store "Employee"))
        );
      ]
  in
  (* select<well_paid> then map<boss>: an algebra expression evaluated
     entirely through methods of Set_object *)
  let result =
    Runtime.eval
      (Runtime.env store)
      Expr.(
        Call
          ( Call
              ( Call (Const (Value.Obj everyone), "select", [ Const (Value.Str "well_paid") ]),
                "map",
                [ Const (Value.Str "boss") ] ),
            "contents",
            [] ))
  in
  Format.printf
    "everyone -> select(well_paid) -> map(boss) -> contents():@.  %a@."
    Value.pp result;
  (* the same computation through the query algebra, as a check *)
  let algebra =
    Soqm_algebra.General.Map
      ( "b",
        Expr.(Call (Ref "e", "boss", [])),
        Soqm_algebra.General.Select
          ( Expr.(Call (Ref "e", "well_paid", [])),
            Soqm_algebra.General.Get ("e", "Employee") ) )
  in
  let rel = Soqm_oracle.Eval.run store algebra in
  Format.printf "via the query algebra: %d qualifying employee(s)@."
    (Soqm_algebra.Relation.cardinality rel);
  assert (
    Value.equal result
      (Value.set (Soqm_algebra.Relation.column rel "b")));
  Printf.printf "method-level and algebra-level evaluation agree.\n"
