(** The optimizer's search engine.

    Mirrors the Volcano search strategy the paper relies on: "each
    generated optimizer contains a fixed search algorithm based on
    exhaustive search for all logical transformations and
    branch-and-bound pruning when applying implementation rules"
    (Section 6.1).

    Transformation closure: starting from the input term, every
    transformation rule is applied at every node position until no new
    terms appear (or a safety bound is hit).  Terms are deduplicated
    modulo renaming of compiler temporaries ({!Restricted.alpha_canonical})
    and rewrites that would leave the tree ill-formed or change its
    visible references are discarded.  Apply-once rules (the [!]-marked
    implication rules of Section 4.2) are applied at most once along any
    derivation.

    Implementation: for each logical variant, the cheapest physical plan
    is computed bottom-up — implementation rules compete with the
    structural implementation per node ({!Plan.structural_root}) — memoized across variants (which
    share subterms, recovering the sharing of Volcano's memo groups) and
    pruned against the best complete plan found so far. *)

open Soqm_algebra
open Soqm_physical

type config = {
  max_variants : int;  (** stop expanding after this many logical variants *)
  max_size_slack : int;  (** discard terms larger than input size + slack *)
}

val default_config : config

(** One derivation step, for the Section 7 demonstrator. *)
type step = { rule : string; term : Restricted.t }

type result = {
  best_plan : Plan.t;
  best_cost : float;
  best_logical : Restricted.t;
  variants_explored : int;
  truncated : bool;  (** true when a safety bound stopped the closure *)
  derivation : step list;
      (** rule applications leading from the input to the chosen variant,
          in order; the first step's [term] is the (canonicalized) input *)
  rule_applications : (string * int) list;
      (** how many rewrites each transformation rule produced that the
          closure kept as new variants, so the counts sum to
          [variants_explored - 1] (rules that never fired are absent);
          sorted by rule name *)
}

val saturate :
  ?config:config ->
  Soqm_vml.Schema.t ->
  Rule.transformation list ->
  Restricted.t ->
  Restricted.t list * bool
(** All logical variants reachable from the (canonicalized) term, and
    whether the closure was truncated by a bound.  Exposed for tests and
    the optimizer-scaling experiment. *)

val optimize :
  ?config:config ->
  Rule.opt_ctx ->
  Rule.transformation list ->
  Rule.implementation list ->
  Restricted.t ->
  result

val implement_only :
  Rule.opt_ctx -> Rule.implementation list -> Restricted.t -> Plan.t * float
(** Best physical plan of one logical term, without any transformation
    (used as the "no optimization" baseline and by the ablation
    experiments). *)
