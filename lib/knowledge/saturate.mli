(** Saturation of the semantic knowledge base — derived rewrites.

    The paper's four knowledge kinds are declared one by one and applied
    one rewrite step at a time, so the optimizer is only as rich as the
    handful of rules a human wrote.  This module closes the declared
    specification set under three mechanical derivation steps, in the
    spirit of resolution-based semantic query answering:

    - {b implication transitivity} — from [∀x: a ⇒ b] and [∀x: b ⇒ c]
      (same class, consequent alpha-equal to antecedent), derive
      [∀x: a ⇒ c];
    - {b equivalence composition} — from [∀x IN C: e1 == e2] whose sides
      type as a scalar object of class [C'], and [∀y IN C': f1 == f2],
      derive [∀x IN C: f1[y := e1] == f2[y := e2]] (e.g. composing the
      two path-method equivalences into
      [p→document()→paragraphs() == p.section.document.sections.paragraphs]);
    - {b substitution} — rewriting one side of an equivalence inside the
      body of an implication (in either direction), e.g. replacing
      [p→document()] by [p.section.document] in the large-paragraphs
      implication.

    Derived specifications are subsumption-deduped modulo alpha-renaming
    of the quantified variable (and side order, for the symmetric kinds):
    a candidate alpha-equal to a known specification — or a trivial
    identity — is discarded, not re-derived.  Every surviving derivation
    carries a {!provenance} trace naming the parents it was combined
    from, which the engine surfaces in [explain] output.

    Termination: each derived expression is bounded in size, the round
    count and the total number of derivations are capped, and the
    fixpoint is reached when a round derives nothing new (tested as a
    QCheck property).  A truncated closure is still sound — every
    derived rule is individually justified — it is merely incomplete. *)

open Soqm_vml
open Soqm_semantics

type provenance =
  | Declared
  | Derived of string
      (** derivation trace over parent specification names:
          ["A∘B"] for transitivity/composition of [A] with [B],
          ["A\[B\]"] for substitution of equivalence [B] into [A]'s
          body.  Parents may themselves be derived, so traces nest,
          e.g. ["large-paragraphs\[E1-document-path\]∘K3"]. *)

type fact = { spec : Equivalence.t; prov : provenance; depth : int }
(** One element of the closed knowledge base.  [depth] is 0 for declared
    specifications and [1 + max (parent depths)] for derived ones. *)

type config = {
  max_rounds : int;  (** fixpoint rounds before giving up *)
  max_derived : int;  (** total derived specifications retained *)
  max_expr_size : int;  (** per-side {!Expr.size} bound on derivations *)
}

val default_config : config
(** [{ max_rounds = 6; max_derived = 2000; max_expr_size = 48 }] —
    roomy enough to close the generated 100+-rule families without
    truncation, small enough to terminate instantly on hand-written
    knowledge bases. *)

type stats = {
  declared : int;
  derived : int;  (** specifications added by the closure *)
  subsumed : int;  (** candidates dropped as alpha-duplicates/trivial *)
  rounds : int;  (** rounds run, including the final empty one *)
  truncated : bool;  (** a cap stopped the closure before the fixpoint *)
}

val run :
  ?config:config ->
  ?counters:Counters.t ->
  Schema.t ->
  Equivalence.t list ->
  fact list * stats
(** Close the declared specifications.  The returned facts list the
    declared specifications first (provenance {!Declared}, in input
    order) followed by the derivations in derivation order; derived
    specifications are named [K1], [K2], ... in that order, so names are
    deterministic.  [counters] (when given) is charged
    [rules_derived]/[rules_subsumed].
    @raise Invalid_argument when a {e declared} specification fails
    {!Equivalence.validate} — derived candidates that fail validation
    are silently dropped instead. *)

val infer : Schema.t -> cls:string -> var:string -> Expr.t -> Vtype.t option
(** The static type of a specification side whose quantified variable
    [var] ranges over [cls]; [None] for parameters, other references and
    anything dynamic.  Property and method access through an object set
    is set-lifted (scalar results collect into a set, set results
    union). *)

val specs : fact list -> Equivalence.t list
(** The specifications of the facts, in order. *)

val provenance_alist : fact list -> (string * string) list
(** [spec name → derivation trace] for the derived facts only. *)

val canonical_key : Equivalence.t -> string
(** The subsumption key: kind, class and both sides with the quantified
    variable alpha-renamed (sides sorted for the symmetric kinds).  Two
    specifications with equal keys are the same knowledge.  Exposed for
    the subsumption QCheck properties. *)
