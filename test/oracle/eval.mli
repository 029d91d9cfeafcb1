(** Reference interpreter for the general algebra: the logical oracle.

    Evaluates an algebra expression directly by its set-comprehension
    definition (Section 4.1) against a store.  This is the
    "straightforward evaluation of the query without transformation" the
    paper's worked example compares against, and the semantic oracle all
    rewrites and physical plans are tested against: [join<true>] really
    builds the Cartesian product, [select] calls every method in its
    condition once per input tuple, and nothing is indexed.  Its bulk
    operators are hash-based; {!Naive} keeps their list-based originals
    as the reference they are tested and benchmarked against. *)

open Soqm_vml
open Soqm_algebra

exception Error of string

val run : Object_store.t -> General.t -> Relation.t
(** Evaluate the expression.  @raise Error on dynamic failure (including
    [Runtime.Error]s from expression parameters and ill-formed algebra
    terms). *)

val run_query : Soqm_core.Db.t -> string -> Soqm_core.Engine.report
(** Translate a VQL query to the general algebra and {!run} it, with the
    store's query counters reset first, so experiments can put the
    oracle's tuples-touched and probe counts next to the physical
    executor's ([opt] is [None]). *)

val eval_expr : Object_store.t -> Relation.tuple -> Expr.t -> Value.t
(** Evaluate an operator-parameter expression with references bound by
    the given tuple. *)

(** {1 Hash-based bulk operators} *)

module Tbl : Hashtbl.S with type key = Relation.tuple
(** Hash tables keyed by canonical tuples. *)

module KeyTbl : Hashtbl.S with type key = Value.t list
(** Hash tables keyed by join keys (projected value lists). *)

val key : string list -> Relation.tuple -> Value.t list
(** [key refs t] projects the values of [refs] out of [t], in the
    given order — the hash key used by joins.
    @raise Not_found when a reference is absent. *)

val index : Relation.t -> string list -> Relation.tuple list KeyTbl.t
(** [index t refs] buckets the tuples of [t] by their projection onto
    [refs] — the build side of a hash join.  With [refs = []] every tuple
    lands in the single bucket keyed [[]]. *)

val mem_set : Relation.t -> Relation.tuple -> bool
(** [mem_set t] builds a hash set over the tuples of [t] once and returns
    O(1) membership (partial application shares the table). *)

val natural_join : Relation.t -> Relation.t -> Relation.t
(** Hash natural join: index the smaller side on the shared references,
    probe with the larger.  With no shared references this is the
    Cartesian product; with all references shared it is intersection. *)

val union : Relation.t -> Relation.t -> Relation.t
(** Hash-deduplicating set union.
    @raise Invalid_argument on differing reference lists. *)

val diff : Relation.t -> Relation.t -> Relation.t
(** Set difference via hash-set membership.
    @raise Invalid_argument on differing reference lists. *)
