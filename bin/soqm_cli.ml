(* Command-line interface: generate a synthetic document database, pose
   VQL queries interactively or one-shot, and inspect what the semantic
   optimizer does — the closest thing to the paper's interactive VQL
   mode with the tracing demonstrator (Section 7). *)

open Cmdliner
open Soqm_core

let docs_arg =
  let doc = "Number of documents in the synthetic database." in
  Arg.(value & opt int 40 & info [ "docs" ] ~docv:"N" ~doc)

let hit_arg =
  let doc = "Probability that a paragraph contains the query word." in
  Arg.(value & opt float 0.05 & info [ "hit-probability" ] ~docv:"P" ~doc)

let seed_arg =
  let doc = "Random seed of the data generator." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for query execution: 1 (default) is the serial block \
     executor, N >= 2 requests the morsel-driven parallel executor (same \
     results, same row order).  Requests are clamped to the host's \
     recommended domain count, and plans whose every extent fits in one \
     morsel run serially."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let pool_pages_arg =
  let doc =
    "Buffer-pool capacity in 4 KiB page frames for the paged disk store \
     (default 256)."
  in
  Arg.(value & opt (some int) None & info [ "pool-pages" ] ~docv:"N" ~doc)

let make_db ?(jobs = 1) docs hit_probability seed =
  Db.create
    ~params:{ Datagen.default with n_docs = docs; hit_probability; seed }
    ~jobs ()

let classes_conv =
  let parse s =
    match
      List.find_opt
        (fun c -> String.equal (Doc_knowledge.class_name c) s)
        Doc_knowledge.all_classes
    with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown knowledge class %S (expected one of %s)" s
              (String.concat ", "
                 (List.map Doc_knowledge.class_name Doc_knowledge.all_classes))))
  in
  Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf (Doc_knowledge.class_name c))

let disable_arg =
  let doc =
    "Disable a knowledge class (repeatable): path-methods, \
     index-equivalences, inverse-links, query-method-equivs, implications."
  in
  Arg.(value & opt_all classes_conv [] & info [ "disable" ] ~docv:"CLASS" ~doc)

let trace_arg =
  let doc = "Print the full optimization trace (the Section 7 demonstrator)." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let saturate_arg =
  let doc =
    "Saturate the knowledge base: close the declared specifications under \
     derivation (transitivity, composition, substitution) and compile the \
     derived rewrites into the rule set too."
  in
  Arg.(value & flag & info [ "saturate" ] ~doc)

let naive_arg =
  let doc = "Also run the query without optimization and compare costs." in
  Arg.(value & flag & info [ "naive" ] ~doc)

let dot_arg =
  let doc =
    "Write the optimization derivation as a Graphviz graph to $(docv) \
     (render with dot -Tsvg)."
  in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let query_arg =
  let doc = "The VQL query to run." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let print_report label (r : Engine.report) =
  Printf.printf "%s: %d tuple(s), logical cost %.1f, %.1f ms\n" label
    (Soqm_algebra.Relation.cardinality r.Engine.result)
    (Soqm_vml.Counters.total_cost r.Engine.counters)
    (r.Engine.elapsed_s *. 1000.)

(* Every subcommand that opens a paged database directory funnels its
   failure modes through this: a one-line diagnostic and a non-zero
   exit, never a backtrace. *)
let store_errors f =
  try f () with
  | Soqm_disk.Store.Format_error msg -> `Error (false, "bad database: " ^ msg)
  | Soqm_disk.Store.Locked msg -> `Error (false, msg)
  | Soqm_disk.Codec.Corrupt msg -> `Error (false, "corrupt database: " ^ msg)
  | Sys_error msg -> `Error (false, msg)
  | Unix.Unix_error (e, fn, arg) ->
    `Error
      ( false,
        Printf.sprintf "%s: %s (%s)" (if arg = "" then fn else arg)
          (Unix.error_message e) fn )

(* Query failures print the one line the server answers with
   ([Session.error_message]) and exit non-zero; an exception it does not
   name is a bug and reaches cmdliner with its backtrace. *)
let on_query_error e ~report =
  let bt = Printexc.get_raw_backtrace () in
  match Soqm_server.Session.error_message e with
  | Some msg -> report msg
  | None -> Printexc.raise_with_backtrace e bt

let query_errors f =
  try f () with e -> on_query_error e ~report:(fun msg -> `Error (false, msg))

let run_cmd =
  let run query docs hit seed jobs disabled saturate trace naive dot =
    query_errors @@ fun () ->
    let db = make_db ~jobs docs hit seed in
    let classes =
      List.filter (fun c -> not (List.mem c disabled)) Doc_knowledge.all_classes
    in
    let engine = Engine.generate ~classes ~saturate db in
    let opt = Engine.run_optimized engine query in
    (match opt.Engine.opt with
    | Some o when trace ->
      Format.printf "%a@."
        (Soqm_optimizer.Trace.pp_result
           ~provenance:(Engine.provenance engine))
        o
    | Some o -> Format.printf "%a@." Soqm_optimizer.Trace.pp_summary o
    | None -> ());
    (match opt.Engine.opt, dot with
    | Some o, Some path ->
      let oc = open_out path in
      output_string oc (Soqm_optimizer.Dot.of_derivation o);
      close_out oc;
      Printf.printf "derivation graph written to %s\n" path
    | _ -> ());
    Format.printf "%a@." Soqm_algebra.Relation.pp opt.Engine.result;
    print_report "optimized" opt;
    if naive then (
      let nv = Engine.run_naive db query in
      print_report "naive" nv;
      if not (Soqm_algebra.Relation.equal nv.Engine.result opt.Engine.result) then (
        prerr_endline "ERROR: naive and optimized results differ!";
        exit 2));
    `Ok ()
  in
  let doc = "Run a VQL query against a synthetic document database." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ query_arg $ docs_arg $ hit_arg $ seed_arg $ jobs_arg
       $ disable_arg $ saturate_arg $ trace_arg $ naive_arg $ dot_arg))

(* ------------------------------------------------------------------ *)
(* explain: the slot-compiled operator tree                            *)
(* ------------------------------------------------------------------ *)

let explain_cmd =
  let analyze_arg =
    let doc =
      "Also execute the plan and annotate every operator with the actual \
       rows and blocks it emitted (from the executor's per-node counters) \
       and the q-error of its row estimate."
    in
    Arg.(value & flag & info [ "analyze" ] ~doc)
  in
  let db_dir_arg =
    let doc =
      "Explain against this paged database directory instead of a fresh \
       synthetic database; with $(b,--analyze), full-scan operators then \
       also report the disk pages they touched ($(b,pages=))."
    in
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR" ~doc)
  in
  let explain query docs hit seed jobs disabled analyze db_dir pool_pages =
    query_errors @@ fun () ->
    store_errors @@ fun () ->
    let db =
      match db_dir with
      | Some dir -> Db.open_disk ~jobs ?pool_pages dir
      | None -> make_db ~jobs docs hit seed
    in
    let classes =
      List.filter (fun c -> not (List.mem c disabled)) Doc_knowledge.all_classes
    in
    let engine = Engine.generate ~classes db in
    let logical = Engine.logical_of_query db query in
    match Engine.safe_to_optimize db logical with
    | Error msg -> `Error (false, "cannot optimize: " ^ msg)
    | Ok () ->
      let opt, compiled = Engine.optimize_compiled engine logical in
      (* the per-node morsel/partition columns follow the executor that
         actually ran: [run_compiled] clamps [jobs] the same way *)
      let ran_parallel =
        Soqm_physical.Exec.effective_jobs (Engine.exec_ctx db) jobs compiled
        > 1
      in
      let actuals =
        if analyze then begin
          let ns = Soqm_physical.Exec.make_stats compiled in
          ignore
            (Soqm_physical.Exec.run_compiled ~stats:ns ~jobs
               (Engine.exec_ctx db) compiled);
          Some ns
        end
        else None
      in
      let annot (c : Soqm_physical.Plan.compiled) =
        let e = Soqm_physical.Cost.estimate db.Db.stats c.Soqm_physical.Plan.source in
        let fused =
          match Soqm_physical.Plan.fused_count c with
          | 0 -> ""
          | n -> Printf.sprintf " fused=%d" n
        in
        let est =
          Printf.sprintf "width=%d est_rows=%.0f%s"
            (Soqm_algebra.Relation.Layout.width c.Soqm_physical.Plan.layout)
            e.Soqm_physical.Cost.card fused
        in
        match actuals with
        | Some ns ->
          let cid = c.Soqm_physical.Plan.cid in
          let parallel =
            if ran_parallel then
              Printf.sprintf " morsels=%d parts=%d"
                ns.Soqm_physical.Exec.node_morsels.(cid)
                ns.Soqm_physical.Exec.node_partitions.(cid)
            else ""
          in
          let pages =
            if db.Db.disk <> None then
              Printf.sprintf " pages=%d bytes=%d"
                ns.Soqm_physical.Exec.node_pages.(cid)
                ns.Soqm_physical.Exec.node_bytes.(cid)
            else ""
          in
          let rows = ns.Soqm_physical.Exec.node_rows.(cid) in
          Printf.sprintf "(%s actual_rows=%d q=%.1f blocks=%d%s%s)" est rows
            (Soqm_physical.Cost.q_error ~est:e.Soqm_physical.Cost.card
               ~actual:rows)
            ns.Soqm_physical.Exec.node_blocks.(cid)
            parallel pages
        | None -> Printf.sprintf "(%s)" est
      in
      Printf.printf
        "plan: estimated cost %.1f, %d variant(s) explored, %d operator(s), \
         block size %d\n"
        opt.Soqm_optimizer.Search.best_cost
        opt.Soqm_optimizer.Search.variants_explored
        (Soqm_physical.Plan.node_count compiled)
        Soqm_physical.Exec.block_size;
      print_endline (Soqm_physical.Plan.compiled_to_string ~annot compiled);
      Db.close db;
      `Ok ()
  in
  let doc =
    "Print the optimized query's slot-compiled operator tree: per operator \
     its output layout, layout width, estimated rows (from the collected \
     statistics) and the number of steps fused into one-pass kernels \
     ($(b,fused=)); with $(b,--analyze), also the actual rows, the \
     q-error of the row estimate ($(b,q=), max(est/act, act/est) with \
     both at least 1) and the blocks observed by executing the plan (plus \
     per-node morsel and partition counts when the clamped $(b,--jobs) \
     runs the parallel executor, and \
     disk pages touched / bytes \
     decoded when run against a paged database, $(b,--db))."
  in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(
      ret
        (const explain $ query_arg $ docs_arg $ hit_arg $ seed_arg $ jobs_arg
       $ disable_arg $ analyze_arg $ db_dir_arg $ pool_pages_arg))

let schema_cmd =
  let show () =
    Format.printf "%a@." Soqm_vml.Schema.pp Doc_schema.schema;
    Printf.printf "schema-specific knowledge:\n";
    List.iter
      (fun spec -> Format.printf "  %a@." Soqm_semantics.Equivalence.pp spec)
      (Doc_knowledge.specs ())
  in
  let doc = "Print the document schema and its method knowledge." in
  Cmd.v (Cmd.info "schema" ~doc) Term.(const show $ const ())

let repl_cmd =
  let repl docs hit seed jobs disabled saturate trace =
    let db = make_db ~jobs docs hit seed in
    let classes =
      List.filter (fun c -> not (List.mem c disabled)) Doc_knowledge.all_classes
    in
    let engine = Engine.generate ~classes ~saturate db in
    Printf.printf
      "soqm interactive VQL (document schema, %d documents, %d rules)\n\
       type a query, or :schema / :quit\n"
      docs (Engine.rule_count engine);
    let rec loop () =
      print_string "vql> ";
      match read_line () with
      | exception End_of_file -> print_newline ()
      | ":quit" | ":q" -> ()
      | ":schema" ->
        Format.printf "%a@." Soqm_vml.Schema.pp Doc_schema.schema;
        loop ()
      | "" -> loop ()
      | query ->
        (try
           let opt = Engine.run_optimized engine query in
           (match opt.Engine.opt with
           | Some o when trace ->
             Format.printf "%a@."
               (Soqm_optimizer.Trace.pp_result
                  ~provenance:(Engine.provenance engine))
               o
           | Some o -> Format.printf "%a@." Soqm_optimizer.Trace.pp_summary o
           | None -> ());
           Format.printf "%a@." Soqm_algebra.Relation.pp opt.Engine.result;
           print_report "optimized" opt
         with e -> on_query_error e ~report:print_endline);
        loop ()
    in
    loop ()
  in
  let doc = "Interactive VQL session (the paper's interactive mode)." in
  Cmd.v
    (Cmd.info "repl" ~doc)
    Term.(
      const repl $ docs_arg $ hit_arg $ seed_arg $ jobs_arg $ disable_arg
      $ saturate_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* DML: insert / update / delete on a paged database directory         *)
(* ------------------------------------------------------------------ *)

let db_file_arg =
  let doc =
    "Paged database directory to operate on (create one with $(b,save) \
     below or [Db.save]); changes are WAL-logged and checkpointed on \
     close."
  in
  Arg.(required & opt (some string) None & info [ "db" ] ~docv:"DIR" ~doc)

(* value literals: null, true/false, integers, '@Cls#id' object
   references, everything else a string *)
let parse_value s =
  match s with
  | "null" -> Soqm_vml.Value.Null
  | "true" -> Soqm_vml.Value.Bool true
  | "false" -> Soqm_vml.Value.Bool false
  | _ -> (
    match int_of_string_opt s with
    | Some n -> Soqm_vml.Value.Int n
    | None ->
      if String.length s > 1 && s.[0] = '@' then
        match
          String.split_on_char '#' (String.sub s 1 (String.length s - 1))
        with
        | [ cls; id ] when int_of_string_opt id <> None ->
          Soqm_vml.Value.Obj
            (Soqm_vml.Oid.make ~cls ~id:(int_of_string id))
        | _ -> Soqm_vml.Value.Str s
      else Soqm_vml.Value.Str s)

let parse_oid s =
  match String.split_on_char '#' s with
  | [ cls; id ] when int_of_string_opt id <> None ->
    Ok (Soqm_vml.Oid.make ~cls ~id:(int_of_string id))
  | _ -> Error (`Msg (Printf.sprintf "expected CLASS#ID, got %S" s))

let oid_conv =
  Arg.conv
    ( parse_oid,
      fun ppf o -> Format.pp_print_string ppf (Soqm_vml.Oid.to_string o) )

let prop_assign_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      Ok
        ( String.sub s 0 i,
          parse_value (String.sub s (i + 1) (String.length s - i - 1)) )
    | None -> Error (`Msg (Printf.sprintf "expected PROP=VALUE, got %S" s))
  in
  Arg.conv
    (parse, fun ppf (p, _) -> Format.pp_print_string ppf (p ^ "=..."))

(* The plan cache's report line: the engine's hits and misses, hit rate and
   resident plans. *)
let print_plan_cache engine =
  let hits, misses = Engine.cache_stats engine in
  Printf.printf
    "plan cache: %d hit(s), %d miss(es), %.1f%% hit rate, %d cached\n" hits
    misses
    (100. *. float_of_int hits /. float_of_int (max 1 (hits + misses)))
    (Engine.cache_size engine)

(* Open the database directory attached (every DML event is WAL-logged
   before the maintenance observers run), run one maintained DML action
   through the engine, checkpoint on close, and report what maintenance
   did. *)
let with_dml_engine ?pool_pages file f =
  store_errors @@ fun () ->
  try
    let db = Db.open_disk ?pool_pages file in
    let engine = Engine.generate db in
    let c = Db.counters db in
    Soqm_vml.Counters.reset c Maintenance;
    f db engine;
    Db.close db;
    Format.printf "%a@." (Soqm_vml.Counters.pp Maintenance) c;
    print_plan_cache engine;
    (match Db.maintenance db with
    | Some m ->
      Printf.printf "epoch %d, staleness %.3f\n"
        (Soqm_maintenance.Maintenance.epoch m)
        (Soqm_maintenance.Maintenance.staleness m)
    | None -> ());
    `Ok ()
  with
  | Soqm_disk.Store.Format_error msg -> `Error (false, "bad database: " ^ msg)
  | Failure msg | Sys_error msg | Invalid_argument msg -> `Error (false, msg)
  | Not_found -> `Error (false, "no such object")
  | Soqm_vml.Runtime.Error msg -> `Error (false, "runtime error: " ^ msg)

let insert_cmd =
  let cls_arg =
    let doc = "Class of the new object." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"CLASS" ~doc)
  in
  let props_arg =
    let doc =
      "Initial property values, e.g. word_count=750 content='...' \
       section=@Section#3."
    in
    Arg.(value & pos_right 0 prop_assign_conv [] & info [] ~docv:"PROP=VALUE" ~doc)
  in
  let run file cls props =
    with_dml_engine file (fun _db engine ->
        let oid = Engine.insert engine ~cls props in
        Printf.printf "inserted %s\n" (Soqm_vml.Oid.to_string oid))
  in
  let doc =
    "Insert an object; indexes, implication sets, inverse links and \
     statistics are maintained incrementally."
  in
  Cmd.v (Cmd.info "insert" ~doc)
    Term.(ret (const run $ db_file_arg $ cls_arg $ props_arg))

let update_cmd =
  let oid_arg =
    let doc = "Object to update, as CLASS#ID." in
    Arg.(required & pos 0 (some oid_conv) None & info [] ~docv:"OID" ~doc)
  in
  let assign_arg =
    let doc = "Property assignments, e.g. word_count=750." in
    Arg.(non_empty & pos_right 0 prop_assign_conv [] & info [] ~docv:"PROP=VALUE" ~doc)
  in
  let run file oid assigns =
    with_dml_engine file (fun _db engine ->
        List.iter (fun (prop, v) -> Engine.update engine oid ~prop v) assigns;
        Printf.printf "updated %s (%d propert%s)\n"
          (Soqm_vml.Oid.to_string oid) (List.length assigns)
          (if List.length assigns = 1 then "y" else "ies"))
  in
  let doc = "Update properties of an object (incrementally maintained)." in
  Cmd.v (Cmd.info "update" ~doc)
    Term.(ret (const run $ db_file_arg $ oid_arg $ assign_arg))

let delete_cmd =
  let oid_arg =
    let doc = "Object to delete, as CLASS#ID." in
    Arg.(required & pos 0 (some oid_conv) None & info [] ~docv:"OID" ~doc)
  in
  let run file oid =
    with_dml_engine file (fun _db engine ->
        Engine.delete engine oid;
        Printf.printf "deleted %s\n" (Soqm_vml.Oid.to_string oid))
  in
  let doc = "Delete an object (incrementally maintained)." in
  Cmd.v (Cmd.info "delete" ~doc)
    Term.(ret (const run $ db_file_arg $ oid_arg))

let save_cmd =
  let out_arg =
    let doc =
      "Database directory to write (one slotted-page heap segment per \
       class, a meta file and an empty WAL)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let run docs hit seed out =
    let db = make_db docs hit seed in
    Db.save db out;
    Printf.printf "wrote %s (%d documents, %d paragraphs)\n" out docs
      (Soqm_vml.Object_store.extent_size db.Db.store "Paragraph");
    `Ok ()
  in
  let doc =
    "Generate a synthetic database and save it as a paged database \
     directory for the $(b,open) / DML commands."
  in
  Cmd.v (Cmd.info "save" ~doc)
    Term.(ret (const run $ docs_arg $ hit_arg $ seed_arg $ out_arg))

(* ------------------------------------------------------------------ *)
(* open / checkpoint: the paged disk store                             *)
(* ------------------------------------------------------------------ *)

let dir_pos_arg =
  let doc = "The paged database directory." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

(* Anything wrong with the directory — missing, foreign, corrupt, locked
   by another process, unreadable — is reported as a one-line diagnostic
   with a non-zero exit, never a backtrace. *)
let open_cmd =
  let run dir pool_pages =
    store_errors @@ fun () ->
      let d = Soqm_disk.Store.open_dir ?pool_pages dir in
      let schema = Soqm_disk.Store.schema d in
      Printf.printf
        "opened %s: format ok, %d recovered WAL batch(es), %d WAL byte(s) \
         pending, pool %d page(s)\n"
        dir
        (Soqm_disk.Store.recovered_batches d)
        (Soqm_disk.Store.wal_bytes d)
        (Soqm_disk.Store.pool_pages d);
      List.iter
        (fun name ->
          let chains = Soqm_disk.Store.overflow_chains d name in
          Printf.printf "  %-12s %6d object(s) in %4d page(s)%s%s%s\n" name
            (List.length (Soqm_disk.Store.extent d name))
            (Soqm_disk.Store.data_pages d name)
            (match Soqm_disk.Store.clustering_parent d name with
            | Some p -> Printf.sprintf ", clusters by %s" p
            | None -> "")
            (if chains > 0 then Printf.sprintf ", %d overflow chain(s)" chains
             else "")
            (if Soqm_disk.Store.is_columnar d name then ", columnar" else ""))
        (Soqm_vml.Schema.class_names schema);
      Printf.printf "  next OID serial %d, %d data page(s) total\n"
        (Soqm_disk.Store.next_id d)
        (Soqm_disk.Store.total_data_pages d);
      (* cold-start profile: a derived image whose stamp matches the
         checkpoint sequence makes the next [Db.load] O(dirty) — it
         skips the index rebuild and replays only the WAL tail *)
      Printf.printf "  checkpoint seq %d, derived image %s\n"
        (Soqm_disk.Store.checkpoint_seq d)
        (match Soqm_maintenance.Persist.read ~dir with
        | Some img when img.Soqm_maintenance.Persist.seq
                        = Soqm_disk.Store.checkpoint_seq d ->
          "fresh (next open skips the index rebuild)"
        | Some img ->
          Printf.sprintf "stale (stamp %d; next open rebuilds indexes)"
            img.Soqm_maintenance.Persist.seq
        | None -> "absent (next open rebuilds indexes)");
      Soqm_disk.Store.close ~checkpoint:false d;
      `Ok ()
  in
  let doc =
    "Open a paged database directory (running WAL crash recovery if \
     needed) and print its layout: per-class object and page counts, \
     recovered batches, pending WAL bytes.  Read-only apart from the \
     recovery truncation."
  in
  Cmd.v (Cmd.info "open" ~doc)
    Term.(ret (const run $ dir_pos_arg $ pool_pages_arg))

let checkpoint_cmd =
  let run dir pool_pages =
    store_errors @@ fun () ->
      (* checkpoint through the Db layer: Db.checkpoint rewrites the
         derived image against the new meta sequence, so the next open
         keeps the fast path — a Store-level checkpoint would leave the
         image stale and force a full index rebuild *)
      let db = Db.open_disk ?pool_pages dir in
      let d = Option.get db.Db.disk in
      let pending = Soqm_disk.Store.wal_bytes d in
      let recovered = Soqm_disk.Store.recovered_batches d in
      Db.checkpoint db;
      let written =
        Soqm_vml.Counters.get (Soqm_disk.Store.counters d) Pages_written
      in
      Db.close db;
      Printf.printf
        "checkpointed %s: %d WAL batch(es) replayed, %d WAL byte(s) \
         truncated, %d page write(s)\n"
        dir recovered pending written;
      `Ok ()
  in
  let doc =
    "Replay any committed WAL batches into the heap segments, flush and \
     fsync every dirty page, and truncate the WAL — after this the \
     database directory is clean (recovery on the next open is a no-op)."
  in
  Cmd.v (Cmd.info "checkpoint" ~doc)
    Term.(ret (const run $ dir_pos_arg $ pool_pages_arg))

let vacuum_cmd =
  let cls_arg =
    let doc =
      "Class to vacuum (repeatable); without it, every schema class is \
       vacuumed."
    in
    Arg.(value & opt_all string [] & info [ "class" ] ~docv:"CLASS" ~doc)
  in
  let cluster_arg =
    let doc =
      "Re-cluster instead of going columnar: repack the class's rows in \
       parent-child traversal order (heap pages, or chunk boundaries for \
       an already-columnar class), so path queries touch the fewest \
       pages.  The heap representation is kept."
    in
    Arg.(value & flag & info [ "cluster" ] ~doc)
  in
  let run dir pool_pages classes cluster =
    store_errors @@ fun () ->
      (* vacuum through the Db layer: each class's vacuum ends in a
         checkpoint, and Db.vacuum rewrites the derived image to match
         the new stamp — a Store-level vacuum would leave the image
         stale and the next open would rebuild its indexes for nothing *)
      let db = Db.open_disk ?pool_pages dir in
      let d = Option.get db.Db.disk in
      let schema = Soqm_disk.Store.schema d in
      let classes =
        match classes with
        | [] -> Soqm_vml.Schema.class_names schema
        | cs -> cs
      in
      List.iter
        (fun cls ->
          let heap_bytes =
            Soqm_disk.Store.data_pages d cls * Soqm_disk.Page.size
          in
          if cluster then begin
            let rows = Db.vacuum ~mode:`Cluster db cls in
            Printf.printf
              "clustered %-12s %6d row(s): %7d heap byte(s) -> %4d page(s) \
               in %s-major order\n"
              cls rows heap_bytes
              (Soqm_disk.Store.data_pages d cls)
              (Option.value ~default:"allocation"
                 (Soqm_disk.Store.clustering_parent d cls))
          end
          else begin
            let rows = Db.vacuum db cls in
            Printf.printf
              "vacuumed %-12s %6d row(s): %7d heap byte(s) -> %7d columnar \
               byte(s)\n"
              cls rows heap_bytes
              (Soqm_disk.Store.columnar_bytes d cls)
          end)
        classes;
      Db.close db;
      `Ok ()
  in
  let doc =
    "Rewrite classes of a paged database.  Default: columnar segments — \
     dictionary-encoded column chunks replace the slotted heap pages, \
     the heap is emptied (subsequent DML lands there and shadows the \
     columnar rows until the next vacuum), and scans decode only the \
     columns they need.  With $(b,--cluster): repack in parent-child \
     traversal order instead, keeping the heap representation.  Ends \
     with a full checkpoint."
  in
  Cmd.v (Cmd.info "vacuum" ~doc)
    Term.(
      ret (const run $ dir_pos_arg $ pool_pages_arg $ cls_arg $ cluster_arg))

(* ------------------------------------------------------------------ *)
(* stats: mixed read/write workload + maintenance report               *)
(* ------------------------------------------------------------------ *)

let stats_cmd =
  let rounds_arg =
    let doc = "Number of query/update rounds of the mixed workload." in
    Arg.(value & opt int 5 & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let db_dir_arg =
    let doc =
      "Run against this paged database directory instead of a fresh \
       synthetic database; prints the storage counters (page reads/writes, \
       pool hits/evictions, WAL records/commits) of the workload."
    in
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR" ~doc)
  in
  let json_arg =
    let doc =
      "Emit the counters as a single JSON object on stdout instead of the \
       human-readable report."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run docs hit seed jobs rounds db_dir pool_pages saturate json =
    store_errors @@ fun () ->
    let db =
      match db_dir with
      | Some dir -> Db.open_disk ~jobs ?pool_pages dir
      | None -> make_db ~jobs docs hit seed
    in
    let c = Db.counters db in
    Soqm_vml.Counters.reset c Knowledge;
    let engine = Engine.generate ~saturate db in
    Soqm_vml.Counters.reset c Maintenance;
    let queries =
      [
        "ACCESS p FROM p IN Paragraph WHERE \
         p->contains_string('Implementation') AND (p->document()).title == \
         'Query Optimization'";
        "ACCESS d FROM d IN Document WHERE d.title == 'Query Optimization'";
        "ACCESS p FROM p IN Paragraph WHERE p->wordCount() > 500";
      ]
    in
    let paras =
      Soqm_vml.Object_store.extent db.Db.store "Paragraph" |> Array.of_list
    in
    for round = 1 to rounds do
      List.iter (fun q -> ignore (Engine.run_optimized engine q)) queries;
      (* touch a handful of paragraphs per round: flip word counts across
         the 500 boundary and rewrite content words *)
      Array.iteri
        (fun i oid ->
          if i mod rounds = round - 1 && i mod 17 = 0 then (
            let wc =
              match
                Soqm_vml.Object_store.peek_prop db.Db.store oid "word_count"
              with
              | Soqm_vml.Value.Int n when n > 500 -> 100 + i
              | _ -> 600 + i
            in
            Engine.update engine oid ~prop:"word_count"
              (Soqm_vml.Value.Int wc);
            Engine.update engine oid ~prop:"content"
              (Soqm_vml.Value.Str (Printf.sprintf "revised draft %d" i))))
        paras
    done;
    let s = Soqm_vml.Counters.snapshot c in
    if json then begin
      let module C = Soqm_vml.Counters in
      let buf = Buffer.create 512 in
      let first = ref true in
      let field k v =
        if not !first then Buffer.add_string buf ", ";
        first := false;
        Buffer.add_string buf (Printf.sprintf "%S: %s" k v)
      in
      let int k v = field k (string_of_int v) in
      let counters fam = List.iter (fun (k, v) -> int k v) (C.fields s fam) in
      counters Maintenance;
      int "plans_cached" (Engine.cache_size engine);
      (match Db.maintenance db with
      | Some m ->
        int "maintenance_epoch" (Soqm_maintenance.Maintenance.epoch m);
        field "staleness"
          (Printf.sprintf "%.6f" (Soqm_maintenance.Maintenance.staleness m));
        int "recollects" (Soqm_maintenance.Maintenance.recollects m)
      | None -> ());
      (match db.Db.disk with
      | Some d ->
        counters Storage;
        let columnar = Soqm_disk.Store.columnar_classes d in
        field "columnar_classes"
          (Printf.sprintf "[%s]"
             (String.concat ", "
                (List.map (Printf.sprintf "%S") columnar)));
        int "columnar_rows"
          (List.fold_left
             (fun acc cls -> acc + Soqm_disk.Store.columnar_rows d cls)
             0 columnar);
        int "columnar_tombstones"
          (List.fold_left
             (fun acc cls -> acc + Soqm_disk.Store.columnar_tombstones d cls)
             0 columnar)
      | None -> ());
      counters Txn;
      counters Knowledge;
      Printf.printf "{%s}\n" (Buffer.contents buf)
    end
    else begin
      let pp fam = Format.printf "%a@." (Soqm_vml.Counters.pp fam) s in
      pp Maintenance;
      if saturate then pp Knowledge;
      print_plan_cache engine;
      (match Db.maintenance db with
      | Some m ->
        Printf.printf
          "maintenance: epoch %d, staleness %.3f, %d recollect(s)\n"
          (Soqm_maintenance.Maintenance.epoch m)
          (Soqm_maintenance.Maintenance.staleness m)
          (Soqm_maintenance.Maintenance.recollects m)
      | None -> ());
      if db.Db.disk <> None then pp Storage
    end;
    Db.close db;
    `Ok ()
  in
  let doc =
    "Run a mixed read/write workload and print the maintenance counters: \
     index postings touched, implication-set updates, statistics deltas, \
     plan-cache hits/misses — plus the storage counters when run against \
     a paged database directory ($(b,--db))."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      ret
        (const run $ docs_arg $ hit_arg $ seed_arg $ jobs_arg $ rounds_arg
       $ db_dir_arg $ pool_pages_arg $ saturate_arg $ json_arg))

(* ------------------------------------------------------------------ *)
(* serve: the concurrent TCP serving subsystem                         *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let port_arg =
    let doc = "TCP port to listen on (0 picks an ephemeral port)." in
    Arg.(value & opt int 0 & info [ "port"; "p" ] ~docv:"PORT" ~doc)
  in
  let sessions_arg =
    let doc = "Number of concurrent client sessions served." in
    Arg.(value & opt int 4 & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let window_arg =
    let doc =
      "Group-commit coalescing window in milliseconds: how long a commit \
       leader waits for followers before the shared fsync."
    in
    Arg.(value & opt float 2.0 & info [ "group-window" ] ~docv:"MS" ~doc)
  in
  let db_dir_arg =
    let doc =
      "Serve this paged database directory (durable commits through the \
       WAL) instead of a fresh synthetic database."
    in
    Arg.(value & opt (some string) None & info [ "db" ] ~docv:"DIR" ~doc)
  in
  let run docs hit seed port sessions window db_dir pool_pages =
    store_errors @@ fun () ->
      let db =
        match db_dir with
        | Some dir -> Db.open_disk ~jobs:1 ?pool_pages dir
        | None -> make_db ~jobs:1 docs hit seed
      in
      let server =
        Soqm_server.Server.create ~port ~sessions
          ~group_window:(window /. 1000.) db
      in
      Printf.printf "soqm: serving %s on 127.0.0.1:%d (%d session(s))\n%!"
        (match db_dir with Some d -> d | None -> "a synthetic database")
        (Soqm_server.Server.port server)
        sessions;
      let stop _ = Soqm_server.Server.stop server in
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Soqm_server.Server.serve server;
      Printf.printf "soqm: served %d connection(s), shutting down\n"
        (Soqm_server.Server.connections_served server);
      Db.close db;
      `Ok ()
  in
  let doc =
    "Serve the database over the length-prefixed binary TCP protocol: \
     concurrent sessions on the morsel domain pool, snapshot-isolation \
     transactions, group-committed durable writes.  Stop with SIGINT."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ docs_arg $ hit_arg $ seed_arg $ port_arg $ sessions_arg
       $ window_arg $ db_dir_arg $ pool_pages_arg))

let rules_cmd =
  let show docs hit seed =
    let db = make_db docs hit seed in
    let engine = Engine.generate db in
    Printf.printf "generated optimizer has %d rule(s)\n" (Engine.rule_count engine)
  in
  let doc = "Report the size of the generated optimizer's rule set." in
  Cmd.v (Cmd.info "rules" ~doc) Term.(const show $ docs_arg $ hit_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* knowledge compiler: saturate / check-rules                          *)
(* ------------------------------------------------------------------ *)

let spec_arg =
  let doc =
    "Declare an extra specification in the textual specification language \
     (repeatable), e.g. 'FORALL p IN Paragraph: p->wordCount() > 800 => \
     p->wordCount() > 500'."
  in
  Arg.(value & opt_all string [] & info [ "spec" ] ~docv:"SPEC" ~doc)

let family_arg =
  let doc =
    "Also declare the generated word-count rule family, whose closure \
     exceeds 100 derived rules (the saturation scaling demonstration)."
  in
  Arg.(value & flag & info [ "family" ] ~doc)

let parse_extra_specs schema specs =
  List.concat_map (Soqm_semantics.Spec_lang.parse_specs schema) specs

let saturate_cmd =
  let show_rules_arg =
    let doc = "Print every fact of the closed knowledge base, not only the summary." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let run docs hit seed specs family show_rules =
    try
      let db = make_db docs hit seed in
      let schema = Soqm_vml.Object_store.schema db.Db.store in
      let extra = parse_extra_specs schema specs in
      let extra =
        if family then extra @ Soqm_knowledge.Rulegen.family () else extra
      in
      let engine = Engine.generate ~extra_specs:extra ~saturate:true db in
      let stats = Option.get (Engine.saturation_stats engine) in
      Printf.printf
        "declared %d specification(s); derived %d, subsumed %d candidate(s) \
         in %d round(s)%s\n"
        stats.Soqm_knowledge.Saturate.declared
        stats.Soqm_knowledge.Saturate.derived
        stats.Soqm_knowledge.Saturate.subsumed
        stats.Soqm_knowledge.Saturate.rounds
        (if stats.Soqm_knowledge.Saturate.truncated then " (truncated)" else "");
      Printf.printf "generated optimizer has %d rule(s)\n"
        (Engine.rule_count engine);
      if show_rules then
        List.iter
          (fun (f : Soqm_knowledge.Saturate.fact) ->
            match f.Soqm_knowledge.Saturate.prov with
            | Soqm_knowledge.Saturate.Declared ->
              Format.printf "  %a@." Soqm_semantics.Equivalence.pp
                f.Soqm_knowledge.Saturate.spec
            | Soqm_knowledge.Saturate.Derived trace ->
              Format.printf "  [derived: %s] %a@." trace
                Soqm_semantics.Equivalence.pp f.Soqm_knowledge.Saturate.spec)
          (Engine.knowledge engine);
      `Ok ()
    with
    | Soqm_semantics.Spec_lang.Error msg ->
      `Error (false, "bad specification: " ^ msg)
    | Invalid_argument msg -> `Error (false, msg)
  in
  let doc =
    "Close the declared knowledge base under derivation (implication \
     transitivity, equivalence composition, substitution) and report the \
     closure: how many rules were derived, how many candidates were \
     subsumed, and — with $(b,--rules) — every fact with its derivation \
     trace."
  in
  Cmd.v (Cmd.info "saturate" ~doc)
    Term.(
      ret
        (const run $ docs_arg $ hit_arg $ seed_arg $ spec_arg $ family_arg
       $ show_rules_arg))

let check_rules_cmd =
  let bound_arg =
    let doc = "Maximum objects per class in candidate stores." in
    Arg.(value & opt int 3 & info [ "bound" ] ~docv:"K" ~doc)
  in
  let models_arg =
    let doc = "Candidate stores generated per store size." in
    Arg.(value & opt int 30 & info [ "models" ] ~docv:"N" ~doc)
  in
  let declared_only_arg =
    let doc = "Check only the declared specifications (skip saturation)." in
    Arg.(value & flag & info [ "declared-only" ] ~doc)
  in
  let run docs hit seed jobs specs family bound models declared_only =
    try
      let db = make_db docs hit seed in
      let schema = Soqm_vml.Object_store.schema db.Db.store in
      (* --spec rules are *candidates* being vetted: they are checked
         against the shipped knowledge base but are not part of the
         trusted base themselves — a candidate must never justify its
         own derived data *)
      let candidates = parse_extra_specs schema specs in
      let extra = if family then Soqm_knowledge.Rulegen.family () else [] in
      let engine =
        Engine.generate ~extra_specs:extra ~saturate:(not declared_only) db
      in
      let config =
        {
          Soqm_knowledge.Check.default_config with
          bound;
          models_per_size = models;
          seed;
          jobs;
        }
      in
      let install store =
        Doc_schema.install_internal_methods store;
        Doc_schema.install_scan_methods store
      in
      let results =
        Engine.check_rules ~config engine
        @ Soqm_knowledge.Check.check_specs ~config ~install
            ~counters:(Db.counters db)
            ~trusted:(Engine.declared_specs engine)
            schema candidates
      in
      let unsound = ref 0 in
      List.iter
        (fun (spec, verdict) ->
          let name = Soqm_semantics.Equivalence.name spec in
          let tag =
            match Engine.provenance engine name with
            | Some trace -> Printf.sprintf " [derived: %s]" trace
            | None -> ""
          in
          match verdict with
          | Soqm_knowledge.Check.Sound { models } ->
            Printf.printf "  sound      %s%s (%d models)\n" name tag models
          | Soqm_knowledge.Check.Unsupported msg ->
            Printf.printf "  unsupported %s%s: %s\n" name tag msg
          | Soqm_knowledge.Check.Refuted _ as v ->
            incr unsound;
            Format.printf "@[<v>UNSOUND %s%s: %a@]@." name tag
              Soqm_knowledge.Check.pp_verdict v)
        results;
      Printf.printf "%d rule(s) checked, %d unsound\n" (List.length results)
        !unsound;
      if !unsound > 0 then
        `Error (false, Printf.sprintf "%d unsound rule(s)" !unsound)
      else `Ok ()
    with
    | Soqm_semantics.Spec_lang.Error msg ->
      `Error (false, "bad specification: " ^ msg)
    | Invalid_argument msg -> `Error (false, msg)
  in
  let doc =
    "Bounded-soundness-check the knowledge base — declared rules, \
     saturation-derived rules (unless $(b,--declared-only)) and any \
     $(b,--spec) candidates (vetted against the shipped knowledge, never \
     against themselves) — by searching for counterexample stores of up \
     to $(b,--bound) objects per class.  Prints a minimal witness store \
     for every unsound rule and exits non-zero if any rule is refuted."
  in
  Cmd.v (Cmd.info "check-rules" ~doc)
    Term.(
      ret
        (const run $ docs_arg $ hit_arg $ seed_arg $ jobs_arg $ spec_arg
       $ family_arg $ bound_arg $ models_arg $ declared_only_arg))

let main =
  let doc =
    "semantic query optimization for methods in an object-oriented database"
  in
  Cmd.group (Cmd.info "soqm" ~version:"1.0.0" ~doc)
    [
      run_cmd; explain_cmd; repl_cmd; schema_cmd; rules_cmd; saturate_cmd;
      check_rules_cmd; save_cmd; open_cmd; checkpoint_cmd; vacuum_cmd;
      insert_cmd; update_cmd; delete_cmd; stats_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval main)
