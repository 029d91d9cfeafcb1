(* Tests for the physical algebra: iterator execution against the logical
   evaluator, operator behaviour, memoization of tuple-independent
   operator chains, and the cost model's orderings. *)

open Soqm_vml
open Soqm_algebra
open Soqm_physical
module F = Soqm_testlib.Fixtures

let check = Alcotest.check

let db = lazy (F.tiny_db ())
let store () = (Lazy.force db).Soqm_core.Db.store
let stats () = (Lazy.force db).Soqm_core.Db.stats

let ctx () = Soqm_core.Engine.exec_ctx (Lazy.force db)

let run_phys p = Exec.run (ctx ()) p
let run_interp p = Exec.Interpreted.run (ctx ()) p
let run_logical g = Eval.run (store ()) g

(* A restricted term executed via its default physical implementation
   must agree with the logical evaluator. *)
let phys_agrees name (g : General.t) () =
  let r = Translate.of_general g in
  let plan = Plan.default_implementation r in
  check F.relation name (run_logical g) (run_phys plan)

(* ------------------------------------------------------------------ *)
(* Operator-level tests                                                *)
(* ------------------------------------------------------------------ *)

let test_full_scan () =
  let r = run_phys (Plan.FullScan ("p", "Paragraph")) in
  check Alcotest.int "cardinality"
    (Object_store.extent_size (store ()) "Paragraph")
    (Relation.cardinality r)

let test_index_scan () =
  let r =
    run_phys
      (Plan.IndexScan ("d", "Document", "title", Value.Str "Query Optimization"))
  in
  check Alcotest.int "one document" 1 (Relation.cardinality r);
  Alcotest.match_raises "missing index"
    (function Exec.Error _ -> true | _ -> false)
    (fun () ->
      ignore (run_phys (Plan.IndexScan ("s", "Section", "title", Value.Str "x"))))

let test_method_scan () =
  let r =
    run_phys
      (Plan.MethodScan
         ("p", "Paragraph", "retrieve_by_string", [ Value.Str "Implementation" ]))
  in
  let logical =
    run_logical
      (General.Select
         ( Expr.(Call (Ref "p", "contains_string", [ Const (Value.Str "Implementation") ])),
           General.Get ("p", "Paragraph") ))
  in
  check F.relation "method scan = filtered scan" logical r

let test_hash_join_vs_nested_loop () =
  let left = Plan.MapProp ("d2", "document", "s", Plan.FullScan ("s", "Section")) in
  let right = Plan.FullScan ("d", "Document") in
  let hj = Plan.HashJoin ("d2", "d", left, right) in
  let nl = Plan.NestedLoop (Some (Restricted.CEq, "d2", "d"), left, right) in
  check F.relation "hash join = nested loop" (run_phys nl) (run_phys hj)

let test_natural_join_intersection () =
  let lo = Plan.Filter (Restricted.CLe, Restricted.ORef "n", Restricted.OConst (Value.Int 0),
                        Plan.MapProp ("n", "number", "s", Plan.FullScan ("s", "Section"))) in
  let hi = Plan.Filter (Restricted.CGe, Restricted.ORef "n", Restricted.OConst (Value.Int 0),
                        Plan.MapProp ("n", "number", "s", Plan.FullScan ("s", "Section"))) in
  let r = run_phys (Plan.Project ([ "s" ], Plan.NaturalJoin (lo, hi))) in
  let expected =
    run_logical
      (General.Select
         ( Expr.(Binop (Eq, Prop (Ref "s", "number"), Const (Value.Int 0))),
           General.Get ("s", "Section") ))
  in
  check F.relation "natural join as intersection" expected r

let test_union_diff () =
  let lo = Plan.Filter (Restricted.CLe, Restricted.ORef "n", Restricted.OConst (Value.Int 0),
                        Plan.MapProp ("n", "number", "s", Plan.FullScan ("s", "Section"))) in
  let all = Plan.MapProp ("n", "number", "s", Plan.FullScan ("s", "Section")) in
  check F.relation "union with subset" (run_phys all) (run_phys (Plan.Union (lo, all)));
  let diff = run_phys (Plan.Project ([ "s" ], Plan.Diff (all, lo))) in
  let expected =
    run_logical
      (General.Select
         ( Expr.(Binop (Gt, Prop (Ref "s", "number"), Const (Value.Int 0))),
           General.Get ("s", "Section") ))
  in
  check F.relation "diff" expected diff

let test_flat_prop () =
  let r = run_phys (Plan.FlatProp ("s", "sections", "d", Plan.FullScan ("d", "Document"))) in
  check Alcotest.int "one tuple per (doc, section)"
    (Object_store.extent_size (store ()) "Section")
    (Relation.cardinality r)

let test_project_dedups () =
  let r =
    run_phys
      (Plan.Project ([ "a" ], Plan.MapProp ("a", "author", "d", Plan.FullScan ("d", "Document"))))
  in
  check Alcotest.bool "fewer authors than documents" true
    (Relation.cardinality r <= min 7 (Object_store.extent_size (store ()) "Document"))

(* The distinctness analysis behind the projection fast path: a
   projection keeping a key of its input provably needs no dedup; one
   dropping it must keep the dedup table — and in every case each
   executor agrees with the interpreted oracle.  Checked on projections
   topping a map chain (the scan binding is the key; authors repeat)
   and on lone projections over a join (the key is both sides' keys;
   documents repeat across their sections). *)
let test_keyed_projection () =
  let authors =
    Plan.MapProp ("a", "author", "d", Plan.FullScan ("d", "Document"))
  in
  let keyed = Plan.Project ([ "d"; "a" ], authors) in
  let unkeyed = Plan.Project ([ "a" ], authors) in
  let join =
    Plan.HashJoin
      ( "d2",
        "d",
        Plan.MapProp ("d2", "document", "s", Plan.FullScan ("s", "Section")),
        Plan.FullScan ("d", "Document") )
  in
  let lone_keyed = Plan.Project ([ "d"; "s" ], join) in
  let lone_unkeyed = Plan.Project ([ "d" ], join) in
  let fkeyed plan =
    match (Exec.compile (ctx ()) plan).Plan.cop with
    | Plan.CFused (f, _) -> f.Plan.fkeyed
    | _ -> Alcotest.fail "expected a fused kernel"
  in
  check Alcotest.bool "fused chain marks keyed" true (fkeyed keyed);
  check Alcotest.bool "fused chain keeps dedup" false (fkeyed unkeyed);
  check Alcotest.bool "join key kept -> lone projection keyed" true
    (fkeyed lone_keyed);
  check Alcotest.bool "join key dropped -> lone projection keeps dedup" false
    (fkeyed lone_unkeyed);
  List.iter
    (fun plan ->
      let reference = Exec.Interpreted.run (ctx ()) plan in
      check F.relation "serial = interpreted" reference
        (Exec.run (ctx ()) plan);
      check F.relation "parallel = interpreted" reference
        (Exec.run ~jobs:3 ~clamp:false (ctx ()) plan))
    [ keyed; unkeyed; lone_keyed; lone_unkeyed ]

(* A lone filter, map or projection is a fused chain of length one (or
   zero): one kernel node over its input, whose actual rows are the
   result, serially and under the morsel scheduler.  The property map's
   target sorts before the scan binding, so its register file is
   permuted into the output row rather than passed through. *)
let test_lone_operators_fuse () =
  let docs = Plan.FullScan ("d", "Document") in
  let first_doc = List.hd (Object_store.extent (store ()) "Document") in
  let plans =
    [
      ( "filter",
        Plan.Filter
          (Restricted.CEq, Restricted.ORef "d",
           Restricted.OConst (Value.Obj first_doc), docs) );
      ("map property before its input", Plan.MapProp ("a", "author", "d", docs));
      ( "map method",
        Plan.MapMeth
          ( "z",
            "contains_string",
            Restricted.RRef "p",
            [ Restricted.OConst (Value.Str "Implementation") ],
            Plan.FullScan ("p", "Paragraph") ) );
      ("keyed projection", Plan.Project ([ "d" ], docs));
      ( "unkeyed projection",
        Plan.Project ([ "d" ], Plan.FlatProp ("s", "sections", "d", docs)) );
    ]
  in
  List.iter
    (fun (name, plan) ->
      let compiled = Exec.compile (ctx ()) plan in
      (match compiled.Plan.cop with
      | Plan.CFused (_, input) ->
        check Alcotest.int (name ^ ": input is the plan's input") 1
          input.Plan.cid
      | _ -> Alcotest.failf "%s: expected a fused root" name);
      check Alcotest.int (name ^ ": one node per operator") (Plan.size plan)
        (Plan.node_count compiled);
      let reference = run_interp plan in
      List.iter
        (fun jobs ->
          let stats = Exec.make_stats compiled in
          let r =
            Exec.run_compiled ~stats ~jobs ~clamp:false (ctx ()) compiled
          in
          let label = Printf.sprintf "%s (jobs=%d)" name jobs in
          check F.relation (label ^ ": = interpreted") reference r;
          check Alcotest.int (label ^ ": root rows = result")
            (Relation.cardinality r) stats.Exec.node_rows.(0))
        [ 1; 2; 3; 4 ])
    plans

(* ------------------------------------------------------------------ *)
(* Memoization of tuple-independent chains                             *)
(* ------------------------------------------------------------------ *)

let test_const_chain_memoized () =
  let d = Lazy.force db in
  let plan =
    (* select_by_index called with constant args over a full paragraph
       scan: must be invoked exactly once despite many input tuples *)
    Plan.MapMeth
      ( "ds",
        "select_by_index",
        Restricted.RClass "Document",
        [ Restricted.OConst (Value.Str "Query Optimization") ],
        Plan.FullScan ("p", "Paragraph") )
  in
  let _, counters = Soqm_core.Db.with_fresh_counters d (fun () -> run_phys plan) in
  check Alcotest.int "select_by_index invoked once" 1
    (Counters.method_call_count counters "Document->select_by_index")

let test_repeated_receiver_memoized () =
  let d = Lazy.force db in
  (* section.document per paragraph: distinct sections, not paragraphs,
     drive the number of property evaluations (memo on receiver value) *)
  let plan =
    Plan.MapProp ("doc", "document", "s",
                  Plan.MapProp ("s", "section", "p", Plan.FullScan ("p", "Paragraph")))
  in
  let _, counters = Soqm_core.Db.with_fresh_counters d (fun () -> run_phys plan) in
  let n_paras = Object_store.extent_size d.Soqm_core.Db.store "Paragraph" in
  let n_secs = Object_store.extent_size d.Soqm_core.Db.store "Section" in
  (* p.section: one read per paragraph; s.document: one per distinct section *)
  check Alcotest.int "property reads bounded by memo" (n_paras + n_secs)
    (Counters.get counters Property_reads)

(* ------------------------------------------------------------------ *)
(* Iterator protocol                                                   *)
(* ------------------------------------------------------------------ *)

let test_iterator_streams () =
  let iter = Exec.Interpreted.open_plan (ctx ()) (Plan.FullScan ("p", "Paragraph")) in
  let first = iter.Exec.next () in
  check Alcotest.bool "first tuple" true (Option.is_some first);
  let rec drain n =
    match iter.Exec.next () with Some _ -> drain (n + 1) | None -> n
  in
  let rest = drain 0 in
  check Alcotest.int "all tuples seen"
    (Object_store.extent_size (store ()) "Paragraph")
    (1 + rest);
  check Alcotest.bool "exhausted stays exhausted" true (iter.Exec.next () = None)

let test_iterator_close_stops () =
  let iter = Exec.Interpreted.open_plan (ctx ()) (Plan.FullScan ("p", "Paragraph")) in
  ignore (iter.Exec.next ());
  iter.Exec.close ();
  check Alcotest.bool "closed iterator yields nothing" true (iter.Exec.next () = None)

let test_filter_streams_lazily () =
  (* a filter pulls from its input only as far as needed *)
  let d = Lazy.force db in
  let plan =
    Plan.Filter
      ( Restricted.CEq,
        Restricted.ORef "n",
        Restricted.OConst (Value.Int 0),
        Plan.MapProp ("n", "number", "p", Plan.FullScan ("p", "Paragraph")) )
  in
  let _, counters =
    Soqm_core.Db.with_fresh_counters d (fun () ->
        let iter = Exec.Interpreted.open_plan (ctx ()) plan in
        let r = iter.Exec.next () in
        iter.Exec.close ();
        r)
  in
  (* scanning charges the whole extent up front (materialized source),
     but property reads happen per pulled tuple: far fewer than the
     extent when we stop after the first match *)
  check Alcotest.bool "did not evaluate the whole map" true
    (Counters.get counters Property_reads
    < Object_store.extent_size d.Soqm_core.Db.store "Paragraph")

(* ------------------------------------------------------------------ *)
(* Failure injection                                                   *)
(* ------------------------------------------------------------------ *)

let test_stale_index_dangling_oid () =
  (* deleting an object in an UNMAINTAINED database (maintenance off)
     leaves a dangling OID in the text index; dereferencing it is a clean
     dynamic error, and Db.refresh repairs the access path.  With
     maintenance attached (the default) the delete would have removed the
     postings — see test/maintenance. *)
  let d = Soqm_core.Db.create ~params:F.tiny_params ~maintain:false () in
  let victim_store = d.Soqm_core.Db.store in
  let victim_ctx = Soqm_core.Engine.exec_ctx d in
  let scan =
    Plan.MethodScan
      ("p", "Paragraph", "retrieve_by_string", [ Value.Str "Implementation" ])
  in
  let with_content = Plan.MapProp ("c", "content", "p", scan) in
  let victim =
    match Relation.tuples (Exec.run victim_ctx scan) with
    | ((_, Value.Obj oid) :: _) :: _ -> oid
    | _ -> Alcotest.fail "expected a hit"
  in
  Object_store.delete_object victim_store victim;
  Alcotest.match_raises "dangling OID surfaces as an error"
    (function Exec.Error _ -> true | _ -> false)
    (fun () -> ignore (Exec.run victim_ctx with_content));
  Soqm_core.Db.refresh d;
  let r = Exec.run victim_ctx with_content in
  check Alcotest.bool "refresh repairs the index" true
    (not
       (List.exists
          (fun tup -> Relation.field tup "p" = Value.Obj victim)
          (Relation.tuples r)))

let test_unbound_ref_is_error () =
  Alcotest.match_raises "unbound reference"
    (function Exec.Error _ -> true | _ -> false)
    (fun () ->
      ignore
        (run_phys
           (Plan.Filter
              ( Restricted.CEq,
                Restricted.ORef "nope",
                Restricted.OConst (Value.Int 1),
                Plan.FullScan ("p", "Paragraph") ))))

let test_param_operand_is_error () =
  Alcotest.match_raises "unresolved parameter"
    (function Exec.Error _ -> true | _ -> false)
    (fun () ->
      ignore
        (run_phys
           (Plan.Filter
              ( Restricted.CEq,
                Restricted.OParam "s",
                Restricted.OConst (Value.Int 1),
                Plan.FullScan ("p", "Paragraph") ))))

(* ------------------------------------------------------------------ *)
(* Agreement with the logical evaluator                                *)
(* ------------------------------------------------------------------ *)

let q_general =
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

let test_exec_q = phys_agrees "query Q" q_general

let test_exec_dependent =
  phys_agrees "dependent flat"
    (General.Project
       ( [ "d" ],
         General.Select
           ( Expr.(Call (Ref "p", "contains_string", [ Const (Value.Str "Implementation") ])),
             General.Flat
               ("p", Expr.(Call (Ref "d", "paragraphs", [])), General.Get ("d", "Document"))
           ) ))

let test_exec_join =
  phys_agrees "theta join"
    (General.Join
       ( Expr.(Binop (Eq, Prop (Ref "s", "document"), Ref "d")),
         General.Get ("s", "Section"),
         General.Get ("d", "Document") ))

let prop_exec_agrees =
  QCheck2.Test.make ~count:40
    ~name:"default physical implementation agrees with logical evaluator"
    Soqm_testlib.Gen.term_gen
    (fun g ->
      match General.well_formed g with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let plan = Plan.default_implementation (Translate.of_general g) in
        Relation.equal (run_logical g) (run_phys plan))

(* Three-way parity on random plans: the slot-compiled batch executor,
   the tuple-at-a-time interpreter and the logical evaluator must agree
   on every well-formed term. *)
let prop_compiled_parity =
  QCheck2.Test.make ~count:40
    ~name:"compiled batch executor = interpreted = logical evaluator"
    Soqm_testlib.Gen.term_gen
    (fun g ->
      match General.well_formed g with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let plan = Plan.default_implementation (Translate.of_general g) in
        let reference = run_logical g in
        Relation.equal reference (run_interp plan)
        && Relation.equal reference (run_phys plan))

(* Fusion parity: fused select/map/project kernels must agree with the
   tuple interpreter, serially and across worker counts. *)
let prop_fusion_parity =
  QCheck2.Test.make ~count:40
    ~name:"fused kernels = interpreted (jobs in {1,2,3,4})"
    Soqm_testlib.Gen.term_gen
    (fun g ->
      match General.well_formed g with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let plan = Plan.default_implementation (Translate.of_general g) in
        let fused = Exec.compile (ctx ()) plan in
        let reference = run_interp plan in
        List.for_all
          (fun jobs ->
            Relation.equal reference
              (Exec.run_compiled ~jobs ~clamp:false (ctx ()) fused))
          [ 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* Batch executor: compilation, Null-key joins, block accounting       *)
(* ------------------------------------------------------------------ *)

(* Joins checked against the list-based Naive oracle on both executors. *)
let test_joins_match_naive_oracle () =
  let lo =
    Plan.Filter (Restricted.CLe, Restricted.ORef "n", Restricted.OConst (Value.Int 0),
                 Plan.MapProp ("n", "number", "s", Plan.FullScan ("s", "Section")))
  in
  let hi =
    Plan.Filter (Restricted.CGe, Restricted.ORef "n", Restricted.OConst (Value.Int 0),
                 Plan.MapProp ("n", "number", "s", Plan.FullScan ("s", "Section")))
  in
  let r_lo = run_phys lo and r_hi = run_phys hi in
  check F.relation "natural join = naive"
    (Naive.natural_join r_lo r_hi)
    (run_phys (Plan.NaturalJoin (lo, hi)));
  check F.relation "union = naive" (Naive.union r_lo r_hi)
    (run_phys (Plan.Union (lo, hi)));
  check F.relation "diff = naive" (Naive.diff r_lo r_hi)
    (run_phys (Plan.Diff (lo, hi)));
  check F.relation "interpreted natural join = naive"
    (Naive.natural_join r_lo r_hi)
    (run_interp (Plan.NaturalJoin (lo, hi)))

(* DESIGN.md §7: NULL == NULL is FALSE, so equi-joins (hash join and
   CEq nested loop) never match Null keys — on either executor — while
   the natural join's structural matching does unify shared Null
   columns. *)
let test_null_keys_pin () =
  let with_null a base =
    Plan.MapOp (a, Restricted.OpIdent, [ Restricted.OConst Value.Null ], base)
  in
  let left = with_null "k1" (Plan.FullScan ("d", "Document")) in
  let right = with_null "k2" (Plan.FullScan ("e", "Document")) in
  let hj = Plan.HashJoin ("k1", "k2", left, right) in
  let nl = Plan.NestedLoop (Some (Restricted.CEq, "k1", "k2"), left, right) in
  check Alcotest.int "hash join skips Null keys" 0 (Relation.cardinality (run_phys hj));
  check Alcotest.int "interpreted hash join agrees" 0
    (Relation.cardinality (run_interp hj));
  check Alcotest.int "CEq nested loop agrees" 0 (Relation.cardinality (run_phys nl));
  check Alcotest.int "interpreted nested loop agrees" 0
    (Relation.cardinality (run_interp nl));
  (* shared column [k], Null on both sides: intersection keeps them *)
  let l = with_null "k" (Plan.FullScan ("d", "Document")) in
  let nj = Plan.NaturalJoin (l, l) in
  let n_docs = Object_store.extent_size (store ()) "Document" in
  check Alcotest.int "natural join matches Nulls structurally" n_docs
    (Relation.cardinality (run_phys nj));
  check F.relation "both executors agree on Null natural join"
    (run_interp nj) (run_phys nj)

(* DESIGN.md §7 Null semantics inside a fused kernel: comparisons with
   Null registers are FALSE, and the fused projection dedup treats Null
   columns structurally — both exactly as the interpreter does. *)
let test_fused_null_semantics () =
  let with_null a base =
    Plan.MapOp (a, Restricted.OpIdent, [ Restricted.OConst Value.Null ], base)
  in
  let filt =
    Plan.Filter
      ( Restricted.CEq,
        Restricted.ORef "k",
        Restricted.OConst Value.Null,
        with_null "k" (Plan.FullScan ("d", "Document")) )
  in
  let fused = Exec.compile (ctx ()) filt in
  check Alcotest.bool "filter chain fused" true (Plan.fused_count fused > 0);
  check Alcotest.int "NULL == NULL is FALSE inside the kernel" 0
    (Relation.cardinality (Exec.run_compiled (ctx ()) fused));
  let proj =
    Plan.Project ([ "k" ], with_null "k" (Plan.FullScan ("d", "Document")))
  in
  let pf = Exec.compile (ctx ()) proj in
  check Alcotest.bool "projection fused" true (Plan.fused_count pf > 0);
  check F.relation "fused dedup = interpreted dedup" (run_interp proj)
    (Exec.run_compiled (ctx ()) pf);
  check Alcotest.int "Null rows dedup to one" 1
    (Relation.cardinality (Exec.run_compiled (ctx ()) pf));
  List.iter
    (fun jobs ->
      check F.relation
        (Printf.sprintf "parallel fused dedup agrees (jobs=%d)" jobs)
        (Exec.run_compiled (ctx ()) pf)
        (Exec.run_compiled ~jobs ~clamp:false (ctx ()) pf))
    [ 2; 3; 4 ]

(* A fused selection chain over a zero-width row (the [Unit] relation)
   passes the row itself through as its register file: the kernel's
   rejection marker must never be mistaken for it. *)
let test_fused_zero_width_row () =
  let one = Restricted.OConst (Value.Int 1) in
  let plan =
    Plan.Filter
      (Restricted.CEq, one, one, Plan.Filter (Restricted.CEq, one, one, Plan.Unit))
  in
  let fused = Exec.compile (ctx ()) plan in
  check Alcotest.bool "filter chain fused" true (Plan.fused_count fused > 0);
  check F.relation "fused = interpreted" (run_interp plan)
    (Exec.run_compiled (ctx ()) fused);
  check Alcotest.int "the unit row survives" 1
    (Relation.cardinality (Exec.run_compiled (ctx ()) fused))

(* A map whose register nothing reads is not compiled; one a later step
   reads stays, and so does a method call, which may have effects. *)
let test_fused_dead_steps () =
  let scan = Plan.FullScan ("d", "Document") in
  let fused_steps plan =
    let c = Exec.compile (ctx ()) plan in
    check F.relation "fused = interpreted" (run_interp plan)
      (Exec.run_compiled (ctx ()) c);
    Plan.fused_count c
  in
  check Alcotest.int "dead property maps dropped: projection only" 1
    (fused_steps
       (Plan.Project
          ( [ "d" ],
            Plan.MapProp ("t", "title", "d", Plan.MapProp ("a", "author", "d", scan)) )));
  check Alcotest.int "a map the filter reads stays" 3
    (fused_steps
       (Plan.Project
          ( [ "d" ],
            Plan.Filter
              ( Restricted.CEq,
                Restricted.ORef "a",
                Restricted.OConst (Value.Str "Author 0"),
                Plan.MapProp ("a", "author", "d", scan) ) )));
  check Alcotest.int "a dead method call stays" 2
    (fused_steps
       (Plan.Project
          ([ "d" ], Plan.MapMeth ("ps", "paragraphs", Restricted.RRef "d", [], scan))))

let test_block_accounting () =
  let d = Lazy.force db in
  let plan = Plan.FullScan ("p", "Paragraph") in
  let _, counters = Soqm_core.Db.with_fresh_counters d (fun () -> run_phys plan) in
  let n = Object_store.extent_size (store ()) "Paragraph" in
  let expected = (n + Exec.block_size - 1) / Exec.block_size in
  check Alcotest.int "one block per block_size rows" expected
    (Counters.get counters Blocks_produced);
  check Alcotest.int "well-typed plan has no slot misses" 0
    (Counters.get counters Slot_misses);
  let _, interp_counters =
    Soqm_core.Db.with_fresh_counters d (fun () -> run_interp plan)
  in
  check Alcotest.int "interpreted path emits no blocks" 0
    (Counters.get interp_counters Blocks_produced)

let test_slot_miss_charged () =
  let d = Lazy.force db in
  let bad =
    Plan.Filter
      ( Restricted.CEq,
        Restricted.ORef "nope",
        Restricted.OConst (Value.Int 1),
        Plan.FullScan ("p", "Paragraph") )
  in
  let _, counters =
    Soqm_core.Db.with_fresh_counters d (fun () ->
        try ignore (run_phys bad) with Exec.Error _ -> ())
  in
  check Alcotest.int "failed compilation charges a slot miss" 1
    (Counters.get counters Slot_misses)

let test_analyze_stats () =
  let plan =
    Plan.Project
      ([ "a" ], Plan.MapProp ("a", "author", "d", Plan.FullScan ("d", "Document")))
  in
  (* project + map fuse into one kernel over the scan *)
  let compiled = Exec.compile (ctx ()) plan in
  check Alcotest.int "fused: two operators" 2 (Plan.node_count compiled);
  check Alcotest.int "fused: root fuses map + project" 2
    (Plan.fused_count compiled);
  let stats = Exec.make_stats compiled in
  let r = Exec.run_compiled ~stats (ctx ()) compiled in
  (* node 0 is the root (preorder ids): its actual rows are the result *)
  check Alcotest.int "root actual rows = result cardinality"
    (Relation.cardinality r) stats.Exec.node_rows.(0);
  let n_docs = Object_store.extent_size (store ()) "Document" in
  check Alcotest.int "scan actual rows = extent" n_docs
    stats.Exec.node_rows.(1);
  check F.relation "fused = interpreted result" (run_interp plan) r

let test_compile_layouts () =
  let plan =
    Plan.MapProp ("d2", "document", "s", Plan.FullScan ("s", "Section"))
  in
  let compiled = Exec.compile (ctx ()) plan in
  check (Alcotest.list Alcotest.string) "layout is sorted refs"
    [ "d2"; "s" ]
    (Relation.Layout.names compiled.Plan.layout);
  Alcotest.match_raises "union layout mismatch is a compile error"
    (function Plan.Compile_error _ -> true | _ -> false)
    (fun () ->
      ignore
        (Plan.compile
           (Plan.Union (Plan.FullScan ("a", "Document"), Plan.FullScan ("b", "Document")))))

(* ------------------------------------------------------------------ *)
(* Morsel-driven parallel execution                                    *)
(* ------------------------------------------------------------------ *)

let test_pool_protocol () =
  let pool = Pool.create () in
  check Alcotest.int "no helpers before first run" 0 (Pool.helpers pool);
  let hits = Array.make 8 0 in
  Pool.run pool ~jobs:8 (fun w -> hits.(w) <- hits.(w) + 1);
  Array.iteri
    (fun w h -> check Alcotest.int (Printf.sprintf "index %d ran once" w) 1 h)
    hits;
  check Alcotest.bool "helpers were spawned" true (Pool.helpers pool > 0);
  (* a worker exception is re-raised on the caller, after the join *)
  Alcotest.match_raises "worker failure propagates"
    (function Failure msg -> String.equal msg "boom" | _ -> false)
    (fun () -> Pool.run pool ~jobs:4 (fun w -> if w = 3 then failwith "boom"));
  (* the pool is reusable after a failed run *)
  let n = Atomic.make 0 in
  Pool.run pool ~jobs:4 (fun _ -> Atomic.incr n);
  check Alcotest.int "reusable after failure" 4 (Atomic.get n);
  Pool.shutdown pool;
  check Alcotest.int "shutdown joins all helpers" 0 (Pool.helpers pool)

(* jobs = 1 must be exactly the serial executor: no pool machinery, no
   domain ever spawned. *)
let test_serial_spawns_no_domains () =
  let plan =
    Plan.Project
      ([ "a" ], Plan.MapProp ("a", "author", "d", Plan.FullScan ("d", "Document")))
  in
  let before = Pool.total_spawned () in
  ignore (Exec.run ~jobs:1 (ctx ()) plan);
  ignore (Exec.run (ctx ()) plan);
  check Alcotest.int "jobs=1 spawns no helper domains" before
    (Pool.total_spawned ())

(* Parallel execution must equal the serial compiled executor on random
   well-formed plans, for several worker counts — including
   oversubscription (8 workers on any host, [recommended_domain_count]
   is 1 in CI). *)
let prop_parallel_parity =
  QCheck2.Test.make ~count:30
    ~name:"parallel executor (jobs in {2,3,4}) = serial compiled"
    Soqm_testlib.Gen.term_gen
    (fun g ->
      match General.well_formed g with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let plan = Plan.default_implementation (Translate.of_general g) in
        let serial = run_phys plan in
        List.for_all
          (fun jobs ->
            Relation.equal serial (Exec.run ~jobs ~clamp:false (ctx ()) plan))
          [ 2; 3; 4 ])

(* Both schedulers account through one [record] path: per-node actual
   rows and the produced-tuple total must not depend on the worker
   count. *)
let prop_parallel_node_accounting =
  QCheck2.Test.make ~count:30
    ~name:"per-node rows and tuples: jobs=1 = jobs in {2,4}"
    Soqm_testlib.Gen.term_gen
    (fun g ->
      match General.well_formed g with
      | Error _ -> QCheck2.assume_fail ()
      | Ok () ->
        let plan = Plan.default_implementation (Translate.of_general g) in
        let compiled = Exec.compile (ctx ()) plan in
        let actuals jobs =
          let stats = Exec.make_stats compiled in
          let _, counters =
            Soqm_core.Db.with_fresh_counters (Lazy.force db) (fun () ->
                Exec.run_compiled ~stats ~jobs ~clamp:false (ctx ()) compiled)
          in
          (stats.Exec.node_rows, Counters.get counters Tuples_produced)
        in
        let serial = actuals 1 in
        List.for_all (fun jobs -> actuals jobs = serial) [ 2; 4 ])

let test_parallel_oversubscribed () =
  let plan =
    Plan.HashJoin
      ( "d2", "d",
        Plan.MapProp ("d2", "document", "s", Plan.FullScan ("s", "Section")),
        Plan.FullScan ("d", "Document") )
  in
  check F.relation "jobs=8 (> cores) matches serial" (run_phys plan)
    (Exec.run ~jobs:8 ~clamp:false (ctx ()) plan)

(* The partitioned parallel joins must keep DESIGN.md §7 Null-key
   semantics: equi-joins drop Null keys while bucketing, natural joins
   match them structurally. *)
let test_parallel_null_keys () =
  let with_null a base =
    Plan.MapOp (a, Restricted.OpIdent, [ Restricted.OConst Value.Null ], base)
  in
  let left = with_null "k1" (Plan.FullScan ("d", "Document")) in
  let right = with_null "k2" (Plan.FullScan ("e", "Document")) in
  let hj = Plan.HashJoin ("k1", "k2", left, right) in
  check Alcotest.int "parallel hash join skips Null keys" 0
    (Relation.cardinality (Exec.run ~jobs:3 ~clamp:false (ctx ()) hj));
  let l = with_null "k" (Plan.FullScan ("d", "Document")) in
  let nj = Plan.NaturalJoin (l, l) in
  let n_docs = Object_store.extent_size (store ()) "Document" in
  check Alcotest.int "parallel natural join matches Nulls structurally"
    n_docs
    (Relation.cardinality (Exec.run ~jobs:3 ~clamp:false (ctx ()) nj));
  check F.relation "parallel = serial on Null natural join" (run_phys nj)
    (Exec.run ~jobs:3 ~clamp:false (ctx ()) nj)

(* Stronger than set equality: the materialized parallel output must be
   row-for-row identical to the serial executor's block stream (morsel
   results concatenate in morsel order, partitioned joins preserve
   build-input match order). *)
let test_parallel_row_order () =
  (* paragraph pairs: 36 x 36 rows on the tiny database, two morsels *)
  let pairs =
    Plan.NestedLoop
      (None, Plan.FullScan ("p", "Paragraph"), Plan.FullScan ("q", "Paragraph"))
  in
  let authored =
    Plan.MapProp ("a", "author", "d", Plan.FullScan ("d", "Document"))
  in
  let plans =
    [
      Plan.FullScan ("p", "Paragraph");
      Plan.HashJoin
        ( "d2", "d",
          Plan.MapProp ("d2", "document", "s", Plan.FullScan ("s", "Section")),
          Plan.FullScan ("d", "Document") );
      Plan.NestedLoop
        (None, Plan.FullScan ("p", "Paragraph"), Plan.FullScan ("s", "Section"));
      Plan.Union
        ( Plan.FullScan ("p", "Paragraph"),
          Plan.FullScan ("p", "Paragraph") );
      Plan.FlatProp ("s", "sections", "d", Plan.FullScan ("d", "Document"));
      (* single-column dedup projection over a two-morsel input *)
      Plan.Project (["q"], pairs);
      (* multi-column dedup projection *)
      Plan.Project
        ( [ "d"; "s" ],
          Plan.NestedLoop
            ( None,
              Plan.FullScan ("p", "Paragraph"),
              Plan.NestedLoop
                (None, Plan.FullScan ("d", "Document"), Plan.FullScan ("s", "Section"))
            ) );
      (* fused filter -> map -> map -> project chain with dedup *)
      Plan.Project
        ( [ "n" ],
          Plan.MapProp
            ( "n", "number", "s",
              Plan.MapProp
                ( "s", "section", "q",
                  Plan.Filter
                    (Restricted.CNeq, Restricted.ORef "p", Restricted.ORef "q", pairs) ) ) );
      (* diff with a non-empty exclusion side (the diagonal) *)
      Plan.Diff
        ( pairs,
          Plan.Filter (Restricted.CEq, Restricted.ORef "p", Restricted.ORef "q", pairs) );
      Plan.FlatMeth
        ("q", "paragraphs", Restricted.RRef "d", [], Plan.FullScan ("d", "Document"));
      (* two shared columns, two build matches per key *)
      Plan.NaturalJoin
        ( authored,
          Plan.FlatProp ("s", "sections", "d", authored) );
    ]
  in
  List.iter
    (fun plan ->
      let compiled = Exec.compile (ctx ()) plan in
      let serial =
        Array.concat (Exec.drain_blocks (Exec.open_compiled (ctx ()) compiled))
      in
      List.iter
        (fun jobs ->
          let par = Exec.eval_parallel (ctx ()) ~jobs compiled in
          check Alcotest.int "same row count" (Array.length serial)
            (Array.length par);
          Array.iteri
            (fun i row ->
              if not (Relation.Row.equal row par.(i)) then
                Alcotest.failf "row %d differs under jobs=%d" i jobs)
            serial)
        [ 2; 4 ])
    plans

let test_parallel_analyze_stats () =
  let d = Lazy.force db in
  let plan =
    Plan.Project
      ([ "a" ], Plan.MapProp ("a", "author", "d", Plan.FullScan ("d", "Document")))
  in
  let compiled = Exec.compile (ctx ()) plan in
  let _, serial_counters =
    Soqm_core.Db.with_fresh_counters d (fun () ->
        Exec.run_compiled (ctx ()) compiled)
  in
  let stats = Exec.make_stats compiled in
  let (r, _), par_counters =
    Soqm_core.Db.with_fresh_counters d (fun () ->
        (Exec.run_compiled ~stats ~jobs:4 ~clamp:false (ctx ()) compiled, ()))
  in
  check Alcotest.int "root actual rows = result cardinality"
    (Relation.cardinality r) stats.Exec.node_rows.(0);
  (* map + project fused: the scan is the root's direct input (cid 1) *)
  let n_docs = Object_store.extent_size (store ()) "Document" in
  check Alcotest.int "scan actual rows = extent" n_docs
    stats.Exec.node_rows.(1);
  check Alcotest.bool "scan processed at least one morsel" true
    (stats.Exec.node_morsels.(1) >= 1);
  (* bulk charges from worker domains must not lose increments and must
     match the serial per-row accounting *)
  check Alcotest.int "tuples charged = serial"
    (Counters.get serial_counters Tuples_produced)
    (Counters.get par_counters Tuples_produced)

(* A build side under one morsel skips the two-phase partitioning: one
   shared table, reported as a single partition — and the output must
   stay row-for-row identical to the serial executor. *)
let test_parallel_tiny_build_bypass () =
  let join =
    Plan.HashJoin
      ( "d2", "d",
        Plan.MapProp ("d2", "document", "s", Plan.FullScan ("s", "Section")),
        Plan.FullScan ("d", "Document") )
  in
  let compiled = Exec.compile (ctx ()) join in
  check Alcotest.bool "build side is tiny" true
    (Object_store.extent_size (store ()) "Document" <= Exec.morsel_size);
  let serial =
    Array.concat (Exec.drain_blocks (Exec.open_compiled (ctx ()) compiled))
  in
  List.iter
    (fun jobs ->
      let stats = Exec.make_stats compiled in
      let par = Exec.eval_parallel ~stats (ctx ()) ~jobs compiled in
      check Alcotest.int
        (Printf.sprintf "tiny build collapses to one partition (jobs=%d)" jobs)
        1
        stats.Exec.node_partitions.(0);
      check Alcotest.int "same row count" (Array.length serial)
        (Array.length par);
      Array.iteri
        (fun i row ->
          if not (Relation.Row.equal row par.(i)) then
            Alcotest.failf "row %d differs under jobs=%d" i jobs)
        serial)
    [ 2; 4 ]

(* With a build side over one morsel the jobs-partition machinery stays
   on (one build table per worker). *)
let test_parallel_join_partition_stats () =
  let d =
    Soqm_core.Db.create
      ~params:{ Soqm_core.Datagen.default with n_docs = 48 }
      ()
  in
  let xctx = Soqm_core.Engine.exec_ctx d in
  let join =
    Plan.HashJoin
      ( "ps", "qs",
        Plan.MapProp ("ps", "section", "p", Plan.FullScan ("p", "Paragraph")),
        Plan.MapProp ("qs", "section", "q", Plan.FullScan ("q", "Paragraph")) )
  in
  let compiled = Exec.compile xctx join in
  check Alcotest.bool "build side spans several morsels" true
    (Object_store.extent_size d.Soqm_core.Db.store "Paragraph"
    > Exec.morsel_size);
  let stats = Exec.make_stats compiled in
  ignore (Exec.run_compiled ~stats ~jobs:4 ~clamp:false xctx compiled);
  (* root (cid 0) is the hash join: 4 jobs -> 4 build partitions *)
  check Alcotest.int "hash join used jobs partitions" 4
    stats.Exec.node_partitions.(0)

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

let test_cost_scan_grows_with_extent () =
  let s = stats () in
  let para = Cost.estimate s (Plan.FullScan ("p", "Paragraph")) in
  let doc = Cost.estimate s (Plan.FullScan ("d", "Document")) in
  check Alcotest.bool "paragraph scan costs more" true (para.Cost.cost > doc.Cost.cost);
  check (Alcotest.float 0.5) "paragraph cardinality"
    (float_of_int (Object_store.extent_size (store ()) "Paragraph"))
    para.Cost.card

let test_cost_correlated_membership () =
  (* p IS-IN p->document().largeParagraphs over the paragraph scan: the
     set comes from the same tuple's p, so the filter passes every
     member of every document's set, not the members of one random set *)
  let d = F.small_db () in
  let membership =
    Plan.Filter
      ( Restricted.CIsIn,
        Restricted.ORef "p",
        Restricted.ORef "s",
        Plan.MapProp
          ( "s",
            "largeParagraphs",
            "d",
            Plan.MapMeth
              ("d", "document", Restricted.RRef "p", [], Plan.FullScan ("p", "Paragraph"))
          ) )
  in
  let est = (Cost.estimate d.Soqm_core.Db.stats membership).Cost.card in
  let actual =
    float_of_int
      (Relation.cardinality (Exec.run (Soqm_core.Engine.exec_ctx d) membership))
  in
  check Alcotest.bool "some paragraphs are large" true (actual > 0.);
  if est > actual *. 4. || est *. 4. < actual then
    Alcotest.failf "filter estimate %.1f rows, actual %.0f: not within 4x" est
      actual

let test_cost_index_beats_scan_filter () =
  let s = stats () in
  let scan_filter =
    Plan.Filter
      ( Restricted.CEq,
        Restricted.ORef "t",
        Restricted.OConst (Value.Str "Query Optimization"),
        Plan.MapProp ("t", "title", "d", Plan.FullScan ("d", "Document")) )
  in
  let index = Plan.IndexScan ("d", "Document", "title", Value.Str "Query Optimization") in
  check Alcotest.bool "index scan is cheaper" true
    (Cost.cost s index < Cost.cost s scan_filter)

let test_cost_method_scan_beats_per_object_method () =
  let s = stats () in
  let per_object =
    Plan.Filter
      ( Restricted.CEq,
        Restricted.ORef "c",
        Restricted.OConst (Value.Bool true),
        Plan.MapMeth
          ( "c",
            "contains_string",
            Restricted.RRef "p",
            [ Restricted.OConst (Value.Str "Implementation") ],
            Plan.FullScan ("p", "Paragraph") ) )
  in
  let scan =
    Plan.MethodScan ("p", "Paragraph", "retrieve_by_string", [ Value.Str "Implementation" ])
  in
  check Alcotest.bool "retrieve_by_string beats contains_string scan" true
    (Cost.cost s scan < Cost.cost s per_object)

let test_cost_const_chain_cheap () =
  let s = stats () in
  let const_chain base =
    Plan.MapMeth
      ( "ds",
        "select_by_index",
        Restricted.RClass "Document",
        [ Restricted.OConst (Value.Str "x") ],
        base )
  in
  let base = Plan.FullScan ("p", "Paragraph") in
  let with_chain = Cost.cost s (const_chain base) in
  let base_cost = Cost.cost s base in
  let card = (Cost.estimate s base).Cost.card in
  (* the chain must cost roughly one method call, not one per tuple *)
  check Alcotest.bool "constant chain costs one call" true
    (with_chain -. base_cost
    < (Soqm_core.Doc_schema.cost_select_by_index *. 2.0) +. (card *. 0.2))

let test_cost_filter_selectivity () =
  let s = stats () in
  let base = Plan.MapMeth
      ( "c",
        "contains_string",
        Restricted.RRef "p",
        [ Restricted.OConst (Value.Str "Implementation") ],
        Plan.FullScan ("p", "Paragraph") )
  in
  let filtered =
    Plan.Filter (Restricted.CEq, Restricted.ORef "c", Restricted.OConst (Value.Bool true), base)
  in
  let all = Cost.estimate s base in
  let sel = Cost.estimate s filtered in
  check Alcotest.bool "selectivity applied" true
    (sel.Cost.card < all.Cost.card /. 2.0)

let () =
  Alcotest.run "physical"
    [
      ( "operators",
        [
          F.case "full scan" test_full_scan;
          F.case "index scan" test_index_scan;
          F.case "method scan" test_method_scan;
          F.case "hash join = nested loop" test_hash_join_vs_nested_loop;
          F.case "natural join" test_natural_join_intersection;
          F.case "union & diff" test_union_diff;
          F.case "flat property" test_flat_prop;
          F.case "project dedups" test_project_dedups;
          F.case "keyed projection skips dedup" test_keyed_projection;
          F.case "lone operators fuse" test_lone_operators_fuse;
        ] );
      ( "memoization",
        [
          F.case "constant chain" test_const_chain_memoized;
          F.case "repeated receivers" test_repeated_receiver_memoized;
        ] );
      ( "iterators",
        [
          F.case "streams tuple by tuple" test_iterator_streams;
          F.case "close stops the stream" test_iterator_close_stops;
          F.case "filters pull lazily" test_filter_streams_lazily;
        ] );
      ( "failure-injection",
        [
          F.case "stale index / dangling OID" test_stale_index_dangling_oid;
          F.case "unbound reference" test_unbound_ref_is_error;
          F.case "unresolved parameter" test_param_operand_is_error;
        ] );
      ( "agreement",
        [
          F.case "query Q" test_exec_q;
          F.case "dependent range" test_exec_dependent;
          F.case "theta join" test_exec_join;
          QCheck_alcotest.to_alcotest prop_exec_agrees;
          QCheck_alcotest.to_alcotest prop_compiled_parity;
        ] );
      ( "batch-executor",
        [
          F.case "joins match naive oracle" test_joins_match_naive_oracle;
          F.case "Null-key join semantics" test_null_keys_pin;
          QCheck_alcotest.to_alcotest prop_fusion_parity;
          F.case "Null semantics in fused kernels" test_fused_null_semantics;
          F.case "fused chain over a zero-width row" test_fused_zero_width_row;
          F.case "dead fused steps dropped" test_fused_dead_steps;
          F.case "block accounting" test_block_accounting;
          F.case "slot miss on bad plan" test_slot_miss_charged;
          F.case "analyze stats" test_analyze_stats;
          F.case "compiled layouts" test_compile_layouts;
        ] );
      ( "parallel",
        [
          F.case "pool protocol" test_pool_protocol;
          F.case "jobs=1 spawns nothing" test_serial_spawns_no_domains;
          QCheck_alcotest.to_alcotest prop_parallel_parity;
          QCheck_alcotest.to_alcotest prop_parallel_node_accounting;
          F.case "oversubscribed jobs > cores" test_parallel_oversubscribed;
          F.case "Null-key join semantics" test_parallel_null_keys;
          F.case "row-for-row determinism" test_parallel_row_order;
          F.case "analyze stats (parallel)" test_parallel_analyze_stats;
          F.case "tiny build bypass" test_parallel_tiny_build_bypass;
          F.case "join partition stats" test_parallel_join_partition_stats;
        ] );
      ( "cost",
        [
          F.case "scan grows with extent" test_cost_scan_grows_with_extent;
          F.case "index beats scan+filter" test_cost_index_beats_scan_filter;
          F.case "method scan beats per-object" test_cost_method_scan_beats_per_object_method;
          F.case "constant chain is cheap" test_cost_const_chain_cheap;
          F.case "filter selectivity" test_cost_filter_selectivity;
          F.case "correlated membership selectivity"
            test_cost_correlated_membership;
        ] );
    ]
