(** Transformation and implementation rules.

    Following [13] (and Section 4.2), transformation rules rewrite one
    logical (restricted-algebra) expression into an equivalent one and
    may be applied in both directions; implementation rules map a logical
    expression to a physical plan and are applicable in one direction
    only.  Each rule may carry a condition.  The [!] marker of the
    implication rules — "may only be applied once, in order to avoid an
    infinite recursive application" — is the [apply_once] flag. *)

open Soqm_vml
open Soqm_algebra
open Soqm_storage

(** A transformation rule: either a pattern rewrite (the form
    schema-specific knowledge compiles to) or a native function (used for
    the generic reordering rules whose pattern form would need one
    pattern per operator pair). *)
type transformation = {
  t_name : string;
  t_apply_once : bool;
  t_body : body;
}

and body =
  | Rewrite of {
      lhs : Pattern.t;
      rhs : Pattern.t;
      bidirectional : bool;
      condition : Schema.t -> Pattern.bindings -> bool;
    }
  | Native of (Schema.t -> Restricted.t -> Restricted.t list)
      (** all single-step root rewrites of the given term *)

val rewrite :
  ?bidirectional:bool ->
  ?apply_once:bool ->
  ?condition:(Schema.t -> Pattern.bindings -> bool) ->
  string ->
  lhs:Pattern.t ->
  rhs:Pattern.t ->
  transformation
(** Defaults: bidirectional, not apply-once, no condition. *)

val native : ?apply_once:bool -> string -> (Schema.t -> Restricted.t -> Restricted.t list) -> transformation

val root_rewrites : Schema.t -> transformation -> Restricted.t -> Restricted.t list
(** All single-step rewrites of the term's root by the rule (both
    directions for bidirectional pattern rules).  Results are raw — the
    search validates, canonicalizes and deduplicates them. *)

(** Context available to implementation rules: statistics for costing and
    the executor context, whose index lists are the available access
    paths.  Index-scan and range-scan fire only where
    {!Soqm_physical.Exec.hash_index} / {!Soqm_physical.Exec.sorted_index}
    find an index in [exec] — the lookup the executor makes when it runs
    the scan — so a plan never names an index the executor cannot
    probe. *)
type opt_ctx = {
  schema : Schema.t;
  stats : Statistics.t;
  exec : Soqm_physical.Exec.ctx;
}

(** An implementation rule maps a logical expression whose root matches
    [i_lhs] to a physical plan; [i_build] receives the context, the match
    bindings, and a callback implementing logical subexpressions with the
    optimizer's current best plans. *)
type implementation = {
  i_name : string;
  i_lhs : Pattern.t;
  i_build :
    opt_ctx ->
    Pattern.bindings ->
    (Restricted.t -> Soqm_physical.Plan.t) ->
    Soqm_physical.Plan.t option;
}

val implementation :
  string ->
  lhs:Pattern.t ->
  build:
    (opt_ctx ->
    Pattern.bindings ->
    (Restricted.t -> Soqm_physical.Plan.t) ->
    Soqm_physical.Plan.t option) ->
  implementation
