(** The end-to-end query pipeline: parse → typecheck → translate →
    optimize → execute, against a {!Db}.

    This is the "individual optimizer module generated for each schema"
    of Section 7: {!generate} derives the schema-specific rules once and
    packages them with the predefined rule set; the result optimizes and
    runs any number of queries. *)

open Soqm_vml
open Soqm_algebra
open Soqm_optimizer

type t
(** A generated optimizer bound to a database. *)

val generate :
  ?classes:Doc_knowledge.rule_class list ->
  ?extra_specs:Soqm_semantics.Equivalence.t list ->
  ?builtin_filter:(string -> bool) ->
  ?saturate:bool ->
  ?config:Search.config ->
  ?cache_capacity:int ->
  Db.t ->
  t
(** Generate the optimizer for the document schema: the predefined
    (builtin) rules plus the rules derived from the knowledge classes
    selected (default: all) and any extra specifications.
    [builtin_filter] keeps only the predefined transformation rules whose
    name it accepts (default: all) — used by the ablation experiments.
    [saturate] (default [false]) additionally closes the declared
    knowledge under {!Soqm_knowledge.Saturate} and compiles the derived
    specifications into rules too. *)

val generate_custom :
  ?specs:Soqm_semantics.Equivalence.t list ->
  ?inverse_links:bool ->
  ?saturate:bool ->
  ?config:Search.config ->
  ?has_range_index:(cls:string -> prop:string -> bool) ->
  ?cache_capacity:int ->
  ?jobs:int ->
  store:Object_store.t ->
  exec_ctx:Soqm_physical.Exec.ctx ->
  has_index:(cls:string -> prop:string -> bool) ->
  unit ->
  t
(** Generate an optimizer for an arbitrary schema/store: predefined rules
    plus the rules derived from [specs] and (when [inverse_links], the
    default) from the schema's inverse-link declarations.  Statistics are
    collected from the store at generation time.  This is the paper's
    per-schema optimizer generation for user schemas; {!generate} is the
    document-schema convenience. *)

val store : t -> Object_store.t
val rule_count : t -> int
(** Number of transformation + implementation rules (for the scaling
    experiment). *)

val set_jobs : t -> int -> unit
(** Default worker count for this engine's executions (clamped to at
    least 1).  {!generate} seeds it from the database's
    [default_jobs]. *)

val jobs : t -> int

val exec_ctx : Db.t -> Soqm_physical.Exec.ctx
(** Execution context exposing the database's value indexes. *)

val opt_ctx_of : Db.t -> Rule.opt_ctx
(** Optimizer context (schema, statistics, available indexes). *)

val logical_of_query : Db.t -> string -> Restricted.t
(** Parse, typecheck and translate a VQL string into the restricted
    algebra (no optimization). *)

val safe_to_optimize : Db.t -> Restricted.t -> (unit, string) result
(** Queries may invoke methods with side effects (hence ACCESS rather
    than SELECT, Section 2.2); reordering or memoizing such calls is
    unsound.  [Error] names the first method of the term not declared
    side-effect free. *)

val optimize : t -> Restricted.t -> Search.result
(** Run the rule-based search — or skip it entirely on a plan-cache hit.
    The cache is a bounded LRU keyed by the query's {e shape}: the
    alpha-canonical logical term with every inert constant (a string or
    number that no rule, cost estimate or index bound reads) replaced by
    a slot numbered by the first occurrence of its value.  A query that
    differs from a cached one only in inert constants hits: the cached
    plan, logical winner and derivation get the new constants and are
    re-costed, and the result is accepted when the cost is unchanged
    (otherwise the search runs again and {!cache_fallbacks} counts it).
    The same constants again return the physically identical result.
    The cache is guarded by the maintenance epoch: knowledge-preserving
    DML leaves cached plans valid, while epoch bumps (statistics
    recollects, resyncs, explicit invalidation) turn every older entry
    into a miss.  Hits and misses are counted both cumulatively
    ({!cache_stats}) and on the store's {!Counters}
    ([plan_cache_hits]/[plan_cache_misses]). *)

val optimize_compiled : t -> Restricted.t -> Search.result * Soqm_physical.Plan.compiled
(** Like {!optimize}, but also returns the slot-compiled best plan.  The
    compiled form is cached alongside the search result, so a plan-cache
    hit skips both the rule search and plan compilation; {!run_optimized}
    executes through this path. *)

val optimize_query : t -> string -> Search.result
(** Parse, typecheck and translate against the engine's schema, then
    optimize. *)

(** {1 Knowledge}

    The engine owns a declared knowledge base (the specifications it was
    generated from) and, when saturation is on, its closure under
    {!Soqm_knowledge.Saturate}.  Changing the knowledge — adding or
    retracting specifications, toggling saturation — rebuilds the rule
    set and bumps the knowledge epoch, so every cached plan from the old
    rule set epoch-invalidates. *)

val knowledge : t -> Soqm_knowledge.Saturate.fact list
(** The current knowledge base: declared facts first, then the
    saturation-derived ones (empty derived set when saturation is
    off). *)

val declared_specs : t -> Soqm_semantics.Equivalence.t list

val saturation_stats : t -> Soqm_knowledge.Saturate.stats option
(** Statistics of the most recent saturation run; [None] when saturation
    is off. *)

val provenance : t -> string -> string option
(** The derivation trace of a rule by (rule or specification) name —
    [None] for declared knowledge and builtin rules.  Accepts the
    ["/map"]/["/flat"] rule-name suffixes {!Soqm_semantics.Derive}
    appends to equivalence specs. *)

val add_specs : t -> Soqm_semantics.Equivalence.t list -> unit
(** Declare new knowledge: validate, append, re-saturate (if on) and
    rebuild the rules.  @raise Invalid_argument when a specification
    fails validation. *)

val retract_spec : t -> string -> bool
(** Remove a declared specification by name and rebuild; [false] when no
    declared specification has that name.  Derived knowledge cannot be
    retracted directly — it disappears when its parents do. *)

val check_rules :
  ?config:Soqm_knowledge.Check.config ->
  ?install:(Object_store.t -> unit) ->
  t ->
  (Soqm_semantics.Equivalence.t * Soqm_knowledge.Check.verdict) list
(** Bounded-soundness-check every current rule (declared and derived)
    against the declared knowledge as the trusted base, in order,
    followed by the owner invariant ({!Soqm_semantics.Equivalence.owner_invariant})
    of every maintained implication — the obligation the generator
    rules rest on. *)

val cache_stats : t -> int * int
(** Cumulative plan-cache [(hits, misses)] since generation.  Kept on the
    engine because per-run reports reset the store counters. *)

val cache_fallbacks : t -> int
(** Cache hits on a query shape whose substituted plan re-costed
    differently, so the search ran after all (each also counts as a
    miss).  Stays 0 while the inert-constant classification holds. *)

val cache_size : t -> int
(** Number of plans currently cached (bounded by the LRU capacity). *)

(** {1 DML}

    Updates go through the engine's store, so the attached maintenance
    observers keep indexes, implication sets, inverse links and
    statistics consistent — and the plan cache epoch-invalidates exactly
    when the optimizer's knowledge actually changed. *)

val insert : t -> cls:string -> (string * Value.t) list -> Oid.t
(** Create an object with initial property values. *)

val update : t -> Oid.t -> prop:string -> Value.t -> unit
(** Set one property ([Object_store.set_prop] semantics: typechecked,
    inverse links maintained). *)

val delete : t -> Oid.t -> unit
(** Remove an object; observers un-derive its index postings, implied-set
    memberships and backlinks from the event's final-value snapshot. *)

(** Everything one execution produced. *)
type report = {
  result : Relation.t;
  counters : Counters.t;  (** costs charged during execution only *)
  opt : Search.result option;  (** [None] for unoptimized runs *)
  elapsed_s : float;  (** wall-clock execution time, seconds *)
}

val run_naive : ?jobs:int -> Db.t -> string -> report
(** Straightforward evaluation: translate and execute the canonical plan
    with the default structural implementation — no transformations, no
    access-path selection.  [jobs] (default: the database's
    [default_jobs]) selects serial (1) or morsel-parallel execution. *)

val run_optimized : ?jobs:int -> t -> string -> report
(** Optimize, then execute the chosen plan with [jobs] workers (default:
    the engine's {!jobs}).  When the query calls a method not declared
    side-effect free, optimization is skipped and the query runs like
    {!run_naive} (the report's [opt] is [None]). *)

val run_query : ?jobs:int -> t -> string -> report
(** {!run_naive} against the engine's own store/schema (works for custom
    engines too). *)

val run_logical_reference : Db.t -> string -> Relation.t
(** Evaluate with the general-algebra reference interpreter (the
    semantics oracle used by tests). *)

val run_reference : Db.t -> string -> report
(** Like {!run_logical_reference}, but resets the store counters first
    and wraps the result in a {!report} (counters, wall-clock time), so
    experiments can put the logical evaluator's tuples-touched and probe
    counts next to the physical executor's. *)
