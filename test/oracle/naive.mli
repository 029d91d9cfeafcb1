(** The seed's O(n*m) list-based relational operators, retained as the
    reference the hash-based {!Eval} operators are tested and
    benchmarked against.  Semantically identical to their hash-based
    counterparts. *)

open Soqm_algebra

val natural_join : Relation.t -> Relation.t -> Relation.t
(** Nested list scans over the shared references. *)

val union : Relation.t -> Relation.t -> Relation.t
(** Append then sort-deduplicate.
    @raise Invalid_argument on differing reference lists. *)

val diff : Relation.t -> Relation.t -> Relation.t
(** Linear membership scan per tuple.
    @raise Invalid_argument on differing reference lists. *)

val join : (Relation.tuple -> bool) -> Relation.t -> Relation.t -> Relation.t
(** Theta join by nested loops: merge every tuple pair and keep the ones
    the predicate accepts.
    @raise Invalid_argument when the reference lists overlap. *)
