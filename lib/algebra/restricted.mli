(** The restricted algebra of Section 6.1.

    Volcano's rule matching works on operator patterns only: "the content
    of operator arguments can only be checked in the condition code, thus
    no pattern matching on the arguments is supported".  The paper
    therefore simplifies the operator arguments: specialized operators
    carry parameters restricted to {e atomic} expressions — a reference, a
    constant, a single property or method name, a single built-in
    operation — and expression composition is turned into operator
    composition.  Both algebras have the same expressive power
    ({!Translate} implements the two directions).

    Beyond the paper's substitution table we add {!const:FlatOperator}
    (the flat counterpart of [map_operator]) and {!const:Cross} (the
    paper's [join<true>]) so the translation is total. *)

open Soqm_vml

type operand =
  | ORef of string
  | OConst of Value.t
  | OParam of string
      (** placeholder for a parameter of an equivalence specification
          (Section 4.2, "one can impose additional conditions on
          parameters"); appears only in rule-derivation intermediates,
          never in executable terms *)

type receiver =
  | RRef of string  (** instance receiver: value of a reference *)
  | RClass of string  (** class-object receiver (OWNTYPE method) *)

type cmp = CEq | CNeq | CLt | CLe | CGt | CGe | CIsIn | CIsSubset

(** Built-in operations usable as [map_operator] parameters. *)
type opname =
  | OpBin of Expr.binop  (** binary built-in *)
  | OpNot
  | OpIdent  (** identity — copies its single operand *)
  | OpTuple of string list  (** tuple construction with the given labels *)
  | OpSet  (** set construction *)

type t =
  | Unit  (** the one-empty-tuple relation; hosts constant chains *)
  | Get of string * string  (** [get<a, class>] *)
  | NaturalJoin of t * t
  | Union of t * t
  | Diff of t * t
  | Cross of t * t  (** [join<true>] of disjointly-referenced inputs *)
  | SelectCmp of cmp * operand * operand * t  (** [select<x θ y>(S)] *)
  | JoinCmp of cmp * string * string * t * t
      (** [join<a1 θ a2>(S1, S2)], [a1 ∈ Ref(S1)], [a2 ∈ Ref(S2)] *)
  | MapProperty of string * string * string * t
      (** [map_property<anew, p, a1>(S)] *)
  | MapMethod of string * string * receiver * operand list * t
      (** [map_method<anew, m, recv, <args>>(S)] *)
  | FlatProperty of string * string * string * t
  | FlatMethod of string * string * receiver * operand list * t
  | MapOperator of string * opname * operand list * t
  | FlatOperator of string * opname * operand list * t
  | Project of string list * t
  | MethodSource of string * string * string * operand list
      (** [source<a> = class→m(consts)] — a set-returning OWNTYPE method
          call as a leaf; arguments must be constants *)

val equal : t -> t -> bool
val compare : t -> t -> int

val cmp_to_binop : cmp -> Expr.binop
val binop_to_cmp : Expr.binop -> cmp option

val operand_expr : operand -> Expr.t
val receiver_expr : receiver -> Expr.t

val to_general : t -> General.t
(** The meaning of a restricted term, by translation into the general
    algebra (the paper's substitution table read right-to-left). *)

val refs : t -> string list
(** [Ref(S)] of the term (sorted). *)

val size : t -> int
val subtrees : t -> t list

val inputs : t -> t list
(** Direct operator inputs (0, 1 or 2). *)

val with_inputs : t -> t list -> t
(** Replace the direct inputs; [with_inputs t (inputs t) = t].
    @raise Invalid_argument on arity mismatch. *)

val temp_ref : unit -> string
(** Fresh compiler-generated reference name ([$1], [$2], ...); used by
    {!Translate} and by rule templates that must introduce new
    references.  Fresh names never collide with user references, which
    are parser identifiers. *)

val is_temp_ref : string -> bool

val rename_ref : old_ref:string -> new_ref:string -> t -> t
(** Rename a reference throughout the term (targets, operands, receivers,
    join and projection lists). *)

val map_operands : (operand -> operand) -> t -> t
(** Apply [f] to every operand of the term (selection operands, method
    and operator arguments, method-source arguments), leaving operators,
    names and references as they are. *)

val alpha_canonical : t -> t
(** Rename every compiler-generated temporary reference to [$1], [$2], ...
    in first-occurrence order of a deterministic traversal.  Two terms that
    differ only in the names of their temporaries canonicalize to the same
    term; the optimizer's search deduplicates modulo this renaming.  User
    references (parser identifiers) are left untouched. *)

val infer : Schema.t -> t -> (string * Vtype.t) list
(** Best-effort static types of the term's references, for
    class-constrained rule patterns ([?A<?a1, Paragraph>] — "an algebraic
    expression that returns object identifiers of instances of class C").
    References whose type cannot be derived are absent from the result. *)

val methods_used : t -> string list
(** All method names appearing in the term, sorted, duplicate-free. *)

val pp : Format.formatter -> t -> unit
val pp_operand : Format.formatter -> operand -> unit
val pp_receiver : Format.formatter -> receiver -> unit
val to_string : t -> string
