(** The physical algebra: query evaluation plans.

    In the Volcano architecture the physical algebra's operators are
    concrete algorithms with cost functions; implementation rules map
    logical (restricted-algebra) expressions onto them.  Methods appear
    here as {e operators} (Section 3.2): a set-returning class method
    like [Paragraph→retrieve_by_string] is an access path
    ({!const:MethodScan}), which is exactly how the equivalence-between-
    queries-and-method-calls knowledge of Section 4.2 becomes executable. *)

open Soqm_vml
open Soqm_algebra

type t =
  | Unit  (** the one-empty-tuple relation; hosts constant chains *)
  | FullScan of string * string  (** [ref, class] — extent scan *)
  | IndexScan of string * string * string * Value.t
      (** [ref, class, prop, key] — probe a value index *)
  | RangeScan of
      string * string * string * Soqm_storage.Sorted_index.bound
      * Soqm_storage.Sorted_index.bound
      (** [ref, class, prop, lo, hi] — probe an ordered index *)
  | MethodScan of string * string * string * Value.t list
      (** [ref, class, own-method, const args] — a set-returning OWNTYPE
          method as access path *)
  | Filter of Restricted.cmp * Restricted.operand * Restricted.operand * t
  | NestedLoop of (Restricted.cmp * string * string) option * t * t
      (** theta/cross join; the inner input is materialized once *)
  | HashJoin of string * string * t * t
      (** equi-join [left_ref == right_ref] *)
  | NaturalJoin of t * t
      (** hash join on all shared references; with equal reference sets
          this is set intersection — the INTERSECTION of plan PQ *)
  | Union of t * t
  | Diff of t * t
  | MapProp of string * string * string * t
  | MapMeth of string * string * Restricted.receiver * Restricted.operand list * t
  | FlatProp of string * string * string * t
  | FlatMeth of string * string * Restricted.receiver * Restricted.operand list * t
  | MapOp of string * Restricted.opname * Restricted.operand list * t
  | FlatOp of string * Restricted.opname * Restricted.operand list * t
  | Project of string list * t

val equal : t -> t -> bool
val compare : t -> t -> int

val refs : t -> string list
(** Output references (sorted). *)

val inputs : t -> t list
val size : t -> int

val map_consts : (Value.t -> Value.t) -> t -> t
(** Apply [f] to every constant of the plan: index keys, range bounds,
    method-scan arguments and constant operands. *)

val projection_input : string list -> t -> t
(** What a projection to the given references runs over: its input with
    every projection in the fusable chain below folded into it, and
    every property or operator map of that chain whose result neither
    the projection nor a later step reads left out (method maps stay).
    Shared by {!compile} and the cost model. *)

val structural_root : Restricted.t -> t list -> t option
(** The structural implementation of a term's root operator given plans
    for its inputs ({!Soqm_algebra.Restricted.inputs} order): every
    logical operator mapped to its direct physical counterpart ([get] →
    full scan, [select] → filter, equality [join] → hash join, other
    joins and [cross] → nested loop, ...).  [None] for a [MethodSource]
    with a non-constant argument, or on an arity mismatch.  Semantic
    implementation rules compete against this candidate in the
    optimizer's branch-and-bound. *)

val default_implementation : Restricted.t -> t
(** {!structural_root} applied at every node.
    @raise Invalid_argument on a non-constant [MethodSource] argument. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Slot compilation}

    Before execution a plan is {e compiled}: every reference, projection
    list and join key is resolved once, against the producing operator's
    output {!Relation.Layout.t}, to an integer slot.  The batch executor
    then runs over rows ([Value.t array]) with integer indexing only —
    no name lookups, no assoc lists in the per-row loops. *)

exception Compile_error of string
(** Raised by {!compile} when a reference cannot be resolved against its
    input layout (same message the interpreted executor produces at run
    time) or when a specification parameter survived into the plan. *)

type slot_operand =
  | SSlot of int  (** read the operand from this slot of the input row *)
  | SConst of Value.t

type slot_receiver =
  | RSlot of int
  | RClassObj of string  (** class object receiver, resolved at open *)

(** {2 Fused kernels}

    Every maximal chain of filters and 1:1 maps (optionally topped by a
    projection), and every projection on its own, compiles to one
    {!constructor:CFused} kernel that runs all steps over a {e register}
    buffer in a single pass per input row — a lone filter or map is a
    chain of length one, a lone projection one of length zero.
    Registers [0..fin_width-1] are the input row's slots in order; every
    map step appends one register, and step operands index registers
    (the compiler resolved each operator's references against its own
    input layout and rewrote the slots through the earlier inserts). *)

type fstep =
  | FFilter of Restricted.cmp * slot_operand * slot_operand
      (** short-circuits the remaining steps when the row fails *)
  | FProp of int * string * int
      (** [target register := (register).property] *)
  | FMeth of int * string * slot_receiver * slot_operand array
  | FOp of int * Restricted.opname * slot_operand array

type fused = {
  fsteps : fstep array;  (** execution (bottom-to-top chain) order *)
  fin_width : int;  (** input row width = initial register count *)
  fregs : int;
      (** total registers: [fin_width] + one per map of the chain; a map
          whose register nothing reads is compiled to no step at all, and
          its register stays [Null] *)
  fout : int array;  (** registers copied to the output row, in order *)
  fdedup : bool;
      (** a projection topped the chain: keep first occurrences only *)
  fkeyed : bool;
      (** the projection keeps a whole key of the chain's input
          ({!row_key}), so its rows are provably distinct and the
          executors skip the dedup table *)
}

type compiled = {
  cid : int;
      (** preorder node id, dense in [0, node_count); the key used by
          per-node actual-row statistics ([explain --analyze]) *)
  layout : Relation.Layout.t;  (** output layout of this operator *)
  source : t;  (** the physical node this was compiled from *)
  cop : cop;
}

and cop =
  | CUnit
  | CFullScan of string
  | CIndexScan of string * string * Value.t
  | CRangeScan of
      string * string * Soqm_storage.Sorted_index.bound
      * Soqm_storage.Sorted_index.bound
  | CMethodScan of string * string * Value.t list
  | CNestedLoop of
      (Restricted.cmp * int * int) option * int array * compiled * compiled
      (** predicate slots index the {e merged} row; the [int array] is the
          signed merge plan (see {!Relation.Layout.merge_plan}) *)
  | CHashJoin of int * int * int array * compiled * compiled
      (** build/probe key slots index the left/right input rows *)
  | CNaturalJoin of int array * int array * int array * compiled * compiled
      (** shared-key slots on the left/right inputs, then the merge plan *)
  | CUnion of compiled * compiled
  | CDiff of compiled * compiled
  | CFlatProp of int * string * int * compiled
      (** [target slot in output row, property, receiver slot in input row] *)
  | CFlatMeth of int * string * slot_receiver * slot_operand array * compiled
  | CFlatOp of int * Restricted.opname * slot_operand array * compiled
  | CFused of fused * compiled
      (** one-pass select/map/project kernel over the input's rows: the
          compiled form of every filter, 1:1 map and projection *)

val compile : t -> compiled
(** Resolve every name to a slot and precompute all copy plans.  Each
    maximal filter/map chain — counting a topping projection — and each
    projection on its own becomes one {!constructor:CFused} kernel; flat
    (set-valued) operators break chains, since they change cardinality.
    Node ids are assigned in preorder.
    @raise Compile_error on unbound references, parameter operands,
    duplicate map targets, or union/diff layout mismatch. *)

val compiled_inputs : compiled -> compiled list
val node_count : compiled -> int

module Slot_set : Set.S with type elt = int

val row_key : compiled -> Slot_set.t option
(** A {e key} of the node: output slots whose combined values differ
    between any two emitted rows, or [None] when no key is provable.
    Scans of extents and index access paths key on their binding slot;
    filters and 1:1 maps preserve keys; joins combine both sides' keys
    (each matching pair is emitted once); a projection's output is a key
    of itself by set semantics.  Flattens, unions and method scans drop
    to [None].  Sound, not complete. *)

val fused_count : compiled -> int
(** Steps fused into this node (counting a topping projection);
    0 for anything but {!constructor:CFused} — the [fused=] column of
    [explain --analyze]. *)

val pp_compiled :
  ?annot:(compiled -> string) -> Format.formatter -> compiled -> unit
(** Indented operator tree with per-node layouts; [annot] appends e.g.
    estimated/actual row counts per node (the [explain] subcommand). *)

val compiled_to_string : ?annot:(compiled -> string) -> compiled -> string
