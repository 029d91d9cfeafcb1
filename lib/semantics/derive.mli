(** Derivation of optimizer rules from equivalence specifications — the
    mapping of Section 4.2, carried out at the restricted-algebra level
    of Section 6.2.

    Each side of a specification is compiled (with {!Soqm_algebra.Translate})
    into a chain of restricted-algebra operators over a placeholder input
    [?A<?x, C>]; the chain is then turned into an operator pattern whose
    references are pattern variables and whose specification parameters
    are operand variables.  Thus:

    - equivalent expressions ↦ bidirectional transformation rules lifted
      through [map] (and, for set-valued expressions, [flat]);
    - equivalent conditions ↦ bidirectional transformation rules lifted
      through [select];
    - implications ↦ apply-once transformation rules conjoining the
      implied restriction via [natural_join];
    - query ≡ method call ↦ one-directional implementation rules whose
      plan is a {!Soqm_physical.Plan.MethodScan} (intersected with the
      matched input when it is not the full extent). *)

open Soqm_vml
open Soqm_optimizer

exception Underivable of string

val transformations : Schema.t -> Equivalence.t -> Rule.transformation list
(** Transformation rules of a specification ([] for query/method
    equivalences).  @raise Underivable when a side uses constructs the
    restricted compilation cannot express. *)

val implementations : Schema.t -> Equivalence.t -> Rule.implementation list
(** Implementation rules of a specification ([] except for query/method
    equivalences). *)

val generator : Schema.t -> Equivalence.maintained -> Rule.transformation
(** The one-directional rule turning membership in a maintained set into
    a generator over the set owners' extent:
    [select<x IS-IN s>(map_property<s, S, y>(T(get<x, X>)))] becomes
    [map_property<s, S, y>(T'(flat_property<x, S, y>(get<y, Y>)))],
    where [T] computes [y := T(x)] and [T'] re-binds its intermediate
    references.  Sound only for sets a maintainer upholds: it rests on
    {!Equivalence.owner_invariant}.  Named ["<implication>/generator"].
    @raise Underivable when [T(x)] is not an object-valued chain. *)

val rules_of_specs :
  Schema.t ->
  Equivalence.t list ->
  Rule.transformation list * Rule.implementation list
(** Validate and derive all given specifications.  Inverse-link
    equivalences are {e not} added implicitly — append
    {!Equivalence.from_inverse_links} to the list to include them.
    @raise Underivable on an invalid or underivable specification. *)
