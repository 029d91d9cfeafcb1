(** Bounded counterexample checking of semantic rules — a small-scope
    model finder in the Alloy tradition.

    A semantic rule is an {e invariant the database promises}, and the
    optimizer rewrites queries assuming it; an unsound rule silently
    corrupts answers.  This checker enumerates candidate object stores
    up to a configurable bound ([k] objects per class, [k] ascending so
    the first counterexample found is a smallest one), populates base
    properties from small value domains mined off the rule constants
    (each integer constant [c] contributes [c-1, c, c+1], so threshold
    boundaries are always exercised), derives maintained implication
    sets from the {e trusted} knowledge base exactly as the live
    system's maintenance would, and evaluates both sides of the
    candidate rule under the reference {!Soqm_semantics.Runtime}
    evaluator over every object binding and a capped set of parameter
    valuations; each parameter draws only from values of its type,
    inferred from its use ({!param_types}).  A store and binding where
    the sides disagree is a counterexample, rendered as a minimal
    witness.

    Passing is {e evidence}, not proof — the bound is small — but a
    refutation is definitive: the printed store really does violate the
    rule.  Model checking fans out on the worker pool; the witness is
    deterministic for a given seed regardless of [jobs]. *)

open Soqm_vml
open Soqm_semantics

type config = {
  bound : int;  (** max objects per class; sizes [1..bound] are tried *)
  models_per_size : int;  (** random stores generated per size *)
  seed : int;
  jobs : int;  (** worker-pool fan-out across models *)
  max_valuations : int;  (** parameter-valuation cap per model *)
}

val default_config : config
(** [{ bound = 3; models_per_size = 30; seed = 42; jobs = 1;
      max_valuations = 64 }] *)

type witness = {
  model_index : int;  (** global model number, for reproduction *)
  model_size : int;  (** objects per class in the refuting store *)
  store_text : string;  (** rendered witness store *)
  detail : string;  (** the binding and side values that disagree *)
}

type verdict =
  | Sound of { models : int }  (** no counterexample in [models] stores *)
  | Refuted of witness
  | Unsupported of string
      (** no generated model could evaluate the rule at all — reported
          instead of a vacuous [Sound] *)

val param_types : Schema.t -> Equivalence.t -> (string * Vtype.t option) list
(** The type of each parameter of a spec, inferred from its use (specs
    do not carry the types their source declared): compared with — or
    passed where a method signature expects — an expression of type [t],
    a parameter has type [t]; [e IS-IN D] makes [D] a set of [e]'s type;
    failing both, a parameter dereferenced as [D.prop] is an instance of
    the one class declaring that property.  [None] when
    nothing determines it: such a parameter draws from every value. *)

val check_spec :
  ?config:config ->
  ?install:(Object_store.t -> unit) ->
  ?counters:Counters.t ->
  trusted:Equivalence.t list ->
  Schema.t ->
  Equivalence.t ->
  verdict
(** Check one rule.  [install] registers method implementations on each
    candidate store (the engine passes scan-based natives — candidate
    stores have no indexes).  [trusted] is the knowledge base assumed
    sound: maintained-shape implications in it define the derived set
    properties of every candidate store, so a declared maintained rule
    holds by construction while a candidate claiming a different
    membership condition is refutable.  [counters] is charged
    [models_checked]/[counterexamples_found]. *)

val check_specs :
  ?config:config ->
  ?install:(Object_store.t -> unit) ->
  ?counters:Counters.t ->
  trusted:Equivalence.t list ->
  Schema.t ->
  Equivalence.t list ->
  (Equivalence.t * verdict) list
(** {!check_spec} over a list, in order. *)

val pp_verdict : Format.formatter -> verdict -> unit
