open Soqm_vml
open Soqm_algebra
open Soqm_storage
open Soqm_optimizer
module Saturate = Soqm_knowledge.Saturate
module Check = Soqm_knowledge.Check

type cache_entry = {
  result : Search.result;
  consts : Value.t array;
      (* the inert constants [result] was produced for, by key slot *)
  entry_epoch : int;  (* maintenance epoch the plan was produced under *)
  mutable last_used : int;
  mutable compiled : Soqm_physical.Plan.compiled option;
      (* slot-compiled best plan, filled on first execution: a cache hit
         skips both the rule search and plan compilation *)
}

type t = {
  obj_store : Object_store.t;
  exec : Soqm_physical.Exec.ctx;
  builtins : Rule.transformation list;  (* filtered predefined rules *)
  (* the rule set is rebuilt by knowledge DML and (re)saturation, so the
     compiled rules and the knowledge base behind them are mutable *)
  mutable transformations : Rule.transformation list;
  mutable implementations : Rule.implementation list;
  mutable declared_specs : Soqm_semantics.Equivalence.t list;
  mutable facts : Saturate.fact list;  (* declared + derived knowledge *)
  saturation : Saturate.config option;  (* None = saturation off *)
  mutable sat_stats : Saturate.stats option;
  mutable provenance : (string * string) list;  (* spec name → trace *)
  mutable rule_consts : Value.t list;
      (* every constant of the knowledge base: never inert in a key *)
  range_types : Vtype.t list;  (* types of the range-indexed properties *)
  checker_install : Object_store.t -> unit;
  maintained : string list;
      (* implications whose sets a maintainer upholds: their declared
         specs yield generator rules and owner-invariant obligations *)
  opt_ctx : Rule.opt_ctx;
  config : Search.config;
  (* optimization results keyed by the query shape (see [parametric_key]),
     so re-running a query, an alpha-variant of it or the same query with
     other inert constants skips the search; bounded LRU, entries from a
     stale maintenance epoch count as misses *)
  plan_cache : (Restricted.t, cache_entry) Hashtbl.t;
  cache_capacity : int;
  epoch_of : unit -> int;
  mutable knowledge_epoch : int;
      (* bumped by every rule-set rebuild; added to the maintenance epoch
         so knowledge DML epoch-invalidates cached plans *)
  mutable cache_tick : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable cache_fallbacks : int;
  mutable jobs : int;  (* default worker count for executions *)
}

let exec_ctx (database : Db.t) : Soqm_physical.Exec.ctx =
  {
    Soqm_physical.Exec.store = database.Db.store;
    hash_indexes = Db.hash_indexes database;
    sorted_indexes = Db.sorted_indexes database;
    scan_cost =
      (fun ~cls ->
        match database.Db.disk with
        | Some d -> Some (Soqm_disk.Store.scan_cost d cls)
        | None -> None);
  }

let opt_ctx_of (database : Db.t) : Rule.opt_ctx =
  {
    Rule.schema = Object_store.schema database.Db.store;
    stats = database.Db.stats;
    exec = exec_ctx database;
  }

(* Compile every knowledge fact into rules.  A {e declared}
   specification that no rule schema covers still raises [Underivable]
   (the author must be told); a saturation-derived one is merely
   knowledge the rule language cannot express — skipped, it remains
   checkable but contributes no rewrite. *)
let rules_of_facts schema facts =
  let ts, is =
    List.fold_left
      (fun (ts, is) (f : Saturate.fact) ->
        match Soqm_semantics.Derive.rules_of_specs schema [ f.Saturate.spec ] with
        | dt, di -> (dt :: ts, di :: is)
        | exception Soqm_semantics.Derive.Underivable _
          when f.Saturate.prov <> Saturate.Declared ->
          (ts, is))
      ([], []) facts
  in
  (List.concat (List.rev ts), List.concat (List.rev is))

(* The declared maintained-shape implications whose sets are actually
   maintained — only these may serve as generators. *)
let maintained_specs t =
  List.filter_map
    (fun spec ->
      match Soqm_semantics.Equivalence.maintained spec with
      | Some m when List.mem m.Soqm_semantics.Equivalence.m_name t.maintained ->
        Some m
      | _ -> None)
    t.declared_specs

(* The constants a specification mentions, which its rules may match on
   or copy into plans. *)
let spec_consts (spec : Soqm_semantics.Equivalence.t) =
  let module E = Soqm_semantics.Equivalence in
  match spec with
  | E.Expr_equiv { lhs; rhs; _ } | E.Cond_equiv { lhs; rhs; _ }
  | E.Implication { antecedent = lhs; consequent = rhs; _ } ->
    Expr.consts lhs @ Expr.consts rhs
  | E.Query_method { cond; args; _ } ->
    Expr.consts cond
    @ List.filter_map (function E.Arg_const v -> Some v | E.Arg_param _ -> None) args

let rebuild_rules t =
  let schema = Object_store.schema t.obj_store in
  let facts =
    match t.saturation with
    | None ->
      t.sat_stats <- None;
      List.map
        (fun spec -> { Saturate.spec; prov = Saturate.Declared; depth = 0 })
        t.declared_specs
    | Some config ->
      let counters = Object_store.counters t.obj_store in
      let facts, stats =
        Saturate.run ~config ~counters schema t.declared_specs
      in
      t.sat_stats <- Some stats;
      facts
  in
  t.facts <- facts;
  t.provenance <- Saturate.provenance_alist facts;
  t.rule_consts <-
    List.concat_map spec_consts (t.declared_specs @ Saturate.specs facts);
  let derived_t, derived_i = rules_of_facts schema facts in
  (* [Maintenance.attach] admits one maintained spec per set property, so
     every maintained set is exact: conjoining the membership (the
     implication's rewrite) yields nothing the exact rule does not reach
     in one step *)
  let maintained = maintained_specs t in
  let superseded (r : Rule.transformation) =
    List.exists
      (fun m -> String.equal r.Rule.t_name m.Soqm_semantics.Equivalence.m_name)
      maintained
  in
  t.transformations <-
    t.builtins
    @ List.filter (fun r -> not (superseded r)) derived_t
    @ List.map (Soqm_semantics.Derive.generator schema) maintained
    @ List.map Soqm_semantics.Derive.exact maintained;
  t.implementations <- Builtin_rules.implementations @ derived_i;
  t.knowledge_epoch <- t.knowledge_epoch + 1

let make_engine ~store ~exec ~stats ~builtin_filter ~specs ~inverse_links
    ~saturate ~config ~cache_capacity ~jobs ~maintained ~checker_install
    ~epoch_of =
  let schema = Object_store.schema store in
  let specs =
    if inverse_links then
      specs @ Soqm_semantics.Equivalence.from_inverse_links schema
    else specs
  in
  let builtins =
    List.filter
      (fun (r : Rule.transformation) -> builtin_filter r.Rule.t_name)
      Builtin_rules.transformations
  in
  let t =
    {
      obj_store = store;
      exec;
      builtins;
      transformations = [];
      implementations = [];
      declared_specs = specs;
      facts = [];
      saturation = (if saturate then Some Saturate.default_config else None);
      sat_stats = None;
      provenance = [];
      rule_consts = [];
      range_types =
        List.filter_map
          (fun idx ->
            Schema.property_type schema ~cls:(Sorted_index.cls idx)
              ~prop:(Sorted_index.prop idx))
          exec.Soqm_physical.Exec.sorted_indexes;
      checker_install;
      maintained;
      opt_ctx = { Rule.schema; stats; exec };
      config;
      plan_cache = Hashtbl.create 32;
      cache_capacity;
      epoch_of;
      knowledge_epoch = 0;
      cache_tick = 0;
      cache_hits = 0;
      cache_misses = 0;
      cache_fallbacks = 0;
      jobs = max 1 jobs;
    }
  in
  rebuild_rules t;
  t

let generate ?(classes = Doc_knowledge.all_classes) ?(extra_specs = [])
    ?(builtin_filter = fun _ -> true) ?(saturate = false)
    ?(config = Search.default_config) ?(cache_capacity = 128)
    (database : Db.t) =
  (* inverse-link knowledge is one of the document knowledge classes, so
     the generic inverse derivation stays off here *)
  let specs = Doc_knowledge.specs ~classes () @ extra_specs in
  make_engine ~store:database.Db.store ~exec:(exec_ctx database)
      ~stats:database.Db.stats ~builtin_filter ~specs ~inverse_links:false
      ~saturate ~config ~cache_capacity ~jobs:database.Db.default_jobs
      ~maintained:
        (match Db.maintenance database with
        | Some m -> Soqm_maintenance.Maintenance.maintained_sets m
        | None -> [])
        (* the checker's candidate stores are index-free: give them the
           internal method bodies plus scan implementations of the
           externals *)
      ~checker_install:(fun store ->
        Doc_schema.install_internal_methods store;
        Doc_schema.install_scan_methods store)
        (* knowledge-preserving DML leaves cached plans valid; a
           statistics recollect (or resync) bumps the maintenance epoch
           and invalidates *)
      ~epoch_of:
        (match Db.maintenance database with
        | Some m -> fun () -> Soqm_maintenance.Maintenance.epoch m
        | None -> fun () -> 0)

let generate_custom ?(specs = []) ?(inverse_links = true) ?(saturate = false)
    ?(config = Search.default_config) ?(cache_capacity = 128) ?(jobs = 1)
    ~store ~exec_ctx:exec () =
  make_engine ~store ~exec ~stats:(Statistics.collect store)
    ~builtin_filter:(fun _ -> true) ~specs ~inverse_links ~saturate ~config
    ~cache_capacity ~jobs ~maintained:[]
    ~checker_install:(fun _ -> ()) ~epoch_of:(fun () -> 0)

let store t = t.obj_store
let set_jobs t jobs = t.jobs <- max 1 jobs
let jobs t = t.jobs

let rule_count t =
  List.length t.transformations + List.length t.implementations

let logical_of_store store src =
  let schema = Object_store.schema store in
  Translate.of_general (Soqm_vql.To_algebra.query_to_algebra schema src)

let logical_of_query (database : Db.t) src = logical_of_store database.Db.store src

let safe_with_schema schema logical =
  match
    List.find_opt
      (fun m -> not (Schema.method_is_pure schema ~meth:m))
      (Restricted.methods_used logical)
  with
  | None -> Ok ()
  | Some m -> Error (Printf.sprintf "method %S is not declared side-effect free" m)

let safe_to_optimize (database : Db.t) logical =
  safe_with_schema (Object_store.schema database.Db.store) logical

(* ------------------------------------------------------------------ *)
(* knowledge                                                           *)
(* ------------------------------------------------------------------ *)

let knowledge t = t.facts
let declared_specs t = t.declared_specs
let saturation_stats t = t.sat_stats

let provenance t rule_name =
  (* Derive suffixes equivalence rule names with "/map"/"/flat"; the
     knowledge base knows the bare specification name *)
  let base =
    match String.index_opt rule_name '/' with
    | Some i -> String.sub rule_name 0 i
    | None -> rule_name
  in
  List.assoc_opt base t.provenance

let add_specs t specs =
  let schema = Object_store.schema t.obj_store in
  List.iter
    (fun spec ->
      match Soqm_semantics.Equivalence.validate schema spec with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Engine.add_specs: " ^ msg))
    specs;
  t.declared_specs <- t.declared_specs @ specs;
  rebuild_rules t

let retract_spec t name =
  let keep =
    List.filter
      (fun s -> not (String.equal (Soqm_semantics.Equivalence.name s) name))
      t.declared_specs
  in
  if List.length keep = List.length t.declared_specs then false
  else begin
    t.declared_specs <- keep;
    rebuild_rules t;
    true
  end

let check_rules ?config ?install t =
  let install = Option.value ~default:t.checker_install install in
  let counters = Object_store.counters t.obj_store in
  Check.check_specs ?config ~install ~counters ~trusted:t.declared_specs
    (Object_store.schema t.obj_store)
    (Saturate.specs t.facts
    @ List.map Soqm_semantics.Equivalence.owner_invariant (maintained_specs t))

let cache_stats t = (t.cache_hits, t.cache_misses)
let cache_fallbacks t = t.cache_fallbacks
let cache_size t = Hashtbl.length t.plan_cache

let evict_lru t =
  if Hashtbl.length t.plan_cache >= t.cache_capacity then (
    let victim = ref None in
    Hashtbl.iter
      (fun key e ->
        match !victim with
        | Some (_, age) when e.last_used >= age -> ()
        | _ -> victim := Some (key, e.last_used))
      t.plan_cache;
    match !victim with
    | Some (key, _) -> Hashtbl.remove t.plan_cache key
    | None -> ())

(* ------------------------------------------------------------------ *)
(* Parametric plan-cache keys                                          *)
(* ------------------------------------------------------------------ *)

(* The restricted algebra's rules match operator shapes, with constants
   as atomic parameters (Section 6.1), so most constants do not steer the
   search: the cache key abstracts each {e inert} constant into a slot.
   Every place the search or the cost model reads a constant's value,
   rather than its position or kind:
   - pattern matching ([Pattern.matches]) compares rule-pattern constants
     ([POperand]) with [=], and a repeated pattern variable binds equal
     operands only;
   - [Rule.native] rules ({!Builtin_rules}) read no value: path-to-join
     and template seeds hash the printed term into temporary names, which
     alpha-canonicalization erases; natjoin-to-cascade and
     natjoin-idempotent compare subterms for equality;
   - [i_build]: index-scan needs an [OConst] of any value, range-scan
     copies it into its bounds, and the derived query/method rules copy
     bound parameter values (and a spec's own [Arg_const]s) into the
     method-scan arguments;
   - [Cost.cmp_selectivity] reads [Bool] (boolean methods) and [Set]
     (set size) constants and otherwise only whether an operand is
     constant; a [RangeScan] is costed by [Statistics.range_selectivity],
     which reads its bounds; index and method scans never read keys.
   So only [Str]/[Int]/[Real] constants can be inert, and a value stays
   in the key when it occurs in the knowledge base, is an operand of an
   order comparison, or is compared at all and has the kind of a
   range-indexed property (a rule may turn the compared expression into
   that property, e.g. [wordCount()] into [word_count]).  Equal inert
   values share a slot and distinct ones get distinct slots (numbered by
   first occurrence), so every equality the search can observe between
   constants is part of the key. *)

let range_kind ty v =
  match ty, v with
  | (Vtype.TInt | Vtype.TReal), (Value.Int _ | Value.Real _)
  | Vtype.TString, Value.Str _ ->
    true
  | _ -> false

(* The key of an alpha-canonical term and the values of its slots. *)
let parametric_key t canonical =
  let pinned = ref t.rule_consts and candidates = ref [] in
  let note ~pin = function
    | Restricted.OConst ((Value.Str _ | Value.Int _ | Value.Real _) as v) ->
      if pin v then pinned := v :: !pinned else candidates := v :: !candidates
    | _ -> ()
  in
  List.iter
    (function
      | Restricted.SelectCmp (c, x, y, _) ->
        let order =
          match c with
          | Restricted.CLt | Restricted.CLe | Restricted.CGt | Restricted.CGe ->
            true
          | _ -> false
        in
        let pin v = order || List.exists (fun ty -> range_kind ty v) t.range_types in
        note ~pin x;
        note ~pin y
      | Restricted.MapMethod (_, _, _, xs, _)
      | Restricted.FlatMethod (_, _, _, xs, _)
      | Restricted.MapOperator (_, _, xs, _)
      | Restricted.FlatOperator (_, _, xs, _)
      | Restricted.MethodSource (_, _, _, xs) ->
        List.iter (note ~pin:(fun _ -> false)) xs
      | _ -> ())
    (Restricted.subtrees canonical);
  let slots = Hashtbl.create 8 in
  List.iter
    (fun v ->
      if
        (not (Hashtbl.mem slots v))
        && not (List.exists (Value.equal v) !pinned)
      then Hashtbl.replace slots v (Hashtbl.length slots))
    (List.rev !candidates);
  if Hashtbl.length slots = 0 then (canonical, [||])
  else
    let consts = Array.make (Hashtbl.length slots) Value.Null in
    Hashtbl.iter (fun v i -> consts.(i) <- v) slots;
    let key =
      Restricted.map_operands
        (function
          | Restricted.OConst v as o -> (
            match Hashtbl.find_opt slots v with
            | Some i -> Restricted.OParam (Printf.sprintf "#%d" i)
            | None -> o)
          | o -> o)
        canonical
    in
    (key, consts)

(* The cached result rewritten for other slot values, or [None] when the
   substituted plan does not cost what the cached one did: a constant
   the audit above missed changed the estimate, so the plan is not
   known to be the best one. *)
let instantiate t (cached : cache_entry) consts =
  let subst = Hashtbl.create 8 in
  Array.iteri (fun i v -> Hashtbl.replace subst v consts.(i)) cached.consts;
  let value v = Option.value ~default:v (Hashtbl.find_opt subst v) in
  let r = cached.result in
  let best_plan = Soqm_physical.Plan.map_consts value r.Search.best_plan in
  if
    not
      (Float.equal
         (Soqm_physical.Cost.cost t.opt_ctx.Rule.stats best_plan)
         r.Search.best_cost)
  then None
  else
    let term =
      Restricted.map_operands (function
        | Restricted.OConst v -> Restricted.OConst (value v)
        | o -> o)
    in
    Some
      {
        r with
        Search.best_plan;
        best_logical = term r.Search.best_logical;
        derivation =
          List.map
            (fun (s : Search.step) -> { s with Search.term = term s.Search.term })
            r.Search.derivation;
      }

let optimize_entry t logical =
  let key, consts = parametric_key t (Restricted.alpha_canonical logical) in
  (* both summands only ever grow, so the sum strictly increases on any
     maintenance or knowledge change — stale entries can never collide
     with a current epoch *)
  let epoch = t.epoch_of () + t.knowledge_epoch in
  t.cache_tick <- t.cache_tick + 1;
  let counters = Object_store.counters t.obj_store in
  let store result =
    let entry =
      { result; consts; entry_epoch = epoch; last_used = t.cache_tick; compiled = None }
    in
    Hashtbl.replace t.plan_cache key entry;
    entry
  in
  let hit entry =
    t.cache_hits <- t.cache_hits + 1;
    Counters.incr counters Plan_cache_hits;
    entry
  in
  let miss () =
    t.cache_misses <- t.cache_misses + 1;
    Counters.incr counters Plan_cache_misses;
    let result =
      Search.optimize ~config:t.config t.opt_ctx t.transformations
        t.implementations logical
    in
    evict_lru t;
    store result
  in
  match Hashtbl.find_opt t.plan_cache key with
  | Some cached when cached.entry_epoch = epoch -> (
    if Array.for_all2 Value.equal cached.consts consts then (
      cached.last_used <- t.cache_tick;
      hit cached)
    else
      match instantiate t cached consts with
      | Some result -> hit (store result)
      | None ->
        Hashtbl.remove t.plan_cache key;
        t.cache_fallbacks <- t.cache_fallbacks + 1;
        miss ())
  | stale ->
    (* a hit from an older epoch is invalid: knowledge or statistics
       changed since the plan was costed *)
    if Option.is_some stale then Hashtbl.remove t.plan_cache key;
    miss ()

let optimize t logical = (optimize_entry t logical).result

let optimize_compiled t logical =
  let entry = optimize_entry t logical in
  let compiled =
    match entry.compiled with
    | Some c -> c
    | None ->
      let c = Soqm_physical.Exec.compile t.exec entry.result.Search.best_plan in
      entry.compiled <- Some c;
      c
  in
  (entry.result, compiled)

let optimize_query t src = optimize t (logical_of_store t.obj_store src)

(* ------------------------------------------------------------------ *)
(* DML                                                                 *)
(* ------------------------------------------------------------------ *)

let insert t ~cls props = Object_store.create_object t.obj_store ~cls props
let update t oid ~prop v = Object_store.set_prop t.obj_store oid prop v
let delete t oid = Object_store.delete_object t.obj_store oid

type report = {
  result : Relation.t;
  counters : Counters.t;
  opt : Search.result option;
  elapsed_s : float;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* [compile] runs after the counter reset and inside the timed region:
   a compile failure charges [Slot_misses] to this run, and [elapsed_s]
   includes compiling. *)
let execute ~jobs exec store compile opt =
  let c = Object_store.counters store in
  Counters.reset c Query;
  let result, elapsed_s =
    timed (fun () -> Soqm_physical.Exec.run_compiled ~jobs exec (compile ()))
  in
  { result; counters = Counters.snapshot c; opt; elapsed_s }

let execute_plan ~jobs exec store logical =
  let plan = Soqm_physical.Plan.default_implementation logical in
  execute ~jobs exec store (fun () -> Soqm_physical.Exec.compile exec plan) None

let run_naive ?jobs (database : Db.t) src =
  let jobs = Option.value ~default:database.Db.default_jobs jobs in
  execute_plan ~jobs (exec_ctx database) database.Db.store
    (logical_of_query database src)

let run_query ?jobs t src =
  let jobs = Option.value ~default:t.jobs jobs in
  execute_plan ~jobs t.exec t.obj_store (logical_of_store t.obj_store src)

let run_optimized ?jobs t src =
  let jobs = Option.value ~default:t.jobs jobs in
  let logical = logical_of_store t.obj_store src in
  match safe_with_schema (Object_store.schema t.obj_store) logical with
  | Ok () ->
    let opt, compiled = optimize_compiled t logical in
    execute ~jobs t.exec t.obj_store (fun () -> compiled) (Some opt)
  | Error _ ->
    (* a potentially updating query: execute as written *)
    execute_plan ~jobs t.exec t.obj_store logical
