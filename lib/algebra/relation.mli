(** Relations: bulk values of type [set[tuple[domains]]].

    The query algebra of Section 4.1 manipulates complex values of type
    [{ [a1: D1, ..., an: Dn] }].  A relation here is a set of tuples over
    a fixed list of references [Ref(S) = {a1, ..., an}]; tuple components
    are unordered (we keep them sorted by reference name) and the tuple
    set is duplicate-free.

    Tuples are canonical — components sorted by name, values canonically
    constructed — so structural equality, ordering and the generic hash
    all agree, and the executors' joins, deduplication and difference
    can hash tuples and rows. *)

open Soqm_vml

type tuple = (string * Value.t) list
(** One tuple, sorted by reference name. *)

type t

(** Canonical tuples as a hashable, ordered type.  [hash] is consistent
    with [equal]; both agree with structural equality on canonical
    tuples. *)
module Tuple : sig
  type t = tuple

  val make : (string * Value.t) list -> t
  (** Sort components by reference name. *)

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val hash : t -> int

  val names : t -> string list
  (** Component names, in tuple (sorted) order. *)

  val insert : string * Value.t -> t -> t
  (** Insert one field into a sorted tuple (O(|t|), no re-sort). *)

  val merge_sorted : t -> t -> t
  (** Merge two sorted tuples; on shared names the left component wins
      (only merge tuples that agree on their shared references). *)

  val find_opt : string -> t -> Value.t option
  (** Sorted-order lookup; stops early once the name cannot appear.
      The shared replacement for the O(width) [List.assoc_opt] helpers
      that used to be duplicated between the evaluators. *)

  val project : string list -> t -> t
  (** Project onto a {e sorted} reference list in one merge-style pass.
      Names absent from the tuple are silently dropped. *)
end

(** Layouts: the compile-time side of slot-resolved execution.

    A layout fixes, once per operator, where each attribute of that
    operator's output lives: the sorted, duplicate-free array of
    attribute names.  Name resolution ([slot]) happens against the
    layout when a plan is {e compiled}; at execution time tuples are
    plain [Value.t array]s ("rows") indexed by slot, and the helpers
    below precompute the copy plans (projection, join merge, column
    insertion) that the batch kernels replay with integer indexing
    only.  Layout order deliberately coincides with canonical tuple
    order, so converting a row to a tuple never re-sorts. *)
module Layout : sig
  type t = string array
  (** Sorted, duplicate-free attribute names; index = slot. *)

  val of_refs : string list -> t
  val width : t -> int
  val names : t -> string list
  val equal : t -> t -> bool

  val slot : t -> string -> int option
  (** Binary search; [None] when the attribute is absent. *)

  val slot_exn : t -> string -> int
  (** @raise Invalid_argument when the attribute is absent. *)

  val union : t -> t -> t

  val row_of_tuple : t -> tuple -> Value.t array
  (** Strip names off a canonical tuple whose names are exactly the
      layout.  @raise Invalid_argument on mismatch. *)

  val tuple_of_row : t -> Value.t array -> tuple
  (** Reattach names; the result is canonical by construction. *)

  val projection : src:t -> string list -> t * int array
  (** Output layout plus, per output slot, the source slot to copy.
      @raise Invalid_argument when a name is absent from [src]. *)

  val merge_plan : left:t -> right:t -> t * int array
  (** Join-output layout plus a signed copy plan: entry [i >= 0] copies
      [left.(i)], entry [i < 0] copies [right.(-i - 1)].  Shared names
      copy from the left, matching {!Tuple.merge_sorted}. *)

  val insertion : t -> string -> t * int
  (** Layout with one attribute added, and the slot it lands in.
      @raise Invalid_argument when already present. *)
end

module Row : sig
  type t = Value.t array

  val equal : t -> t -> bool
  val hash : t -> int
end
(** Rows (slot-indexed tuples) as a hashable type; [equal] is
    positionwise {!Value.equal} and the generic [hash] is consistent
    with it on canonical values — same contract as {!Tuple}. *)

module RowTbl : Hashtbl.S with type key = Value.t array
(** Hash tables keyed by rows (join builds, dedup, diff sets). *)

val make : refs:string list -> tuple list -> t
(** Canonicalize (sort refs, sort tuple components, deduplicate tuples)
    and validate that every tuple binds exactly the declared references.
    Already-canonical tuples are validated in one O(|refs|) comparison
    against the sorted reference list, without re-sorting.
    @raise Invalid_argument on mismatched tuples. *)

val empty : refs:string list -> t

val refs : t -> string list
(** [Ref(S)], sorted. *)

val tuples : t -> tuple list
val cardinality : t -> int

val field : tuple -> string -> Value.t
(** @raise Not_found when the reference is absent. *)

val tuple_make : (string * Value.t) list -> tuple

val same_refs : t -> t -> bool
val equal : t -> t -> bool
(** Set equality over identical reference lists. *)

val of_values : string -> Value.t list -> t
(** [of_values a vs] is the unary relation [{ [a: v] | v in vs }]. *)

val column : t -> string -> Value.t list
(** Values of one reference, in tuple order (duplicates preserved). *)

val pp : Format.formatter -> t -> unit
