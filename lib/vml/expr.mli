(** The expression language shared by operator parameters and method
    bodies.

    The paper's algebra operators take "arbitrarily complex expressions"
    as parameters, built up from query variables (here {!const:Ref}),
    constants, path expressions, method calls and operations on the
    built-in data types (Sections 2.2 and 4.1).  The same language gives
    internal method implementations their bodies — e.g.
    [document() {RETURN section.document;}] is [Prop (Prop (Self,
    "section"), "document")] — which is what lets schema designers state
    method semantics without revealing procedural code. *)

type binop =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | IsIn  (** set membership *)
  | IsSubset
  | And
  | Or
  | Add
  | Sub
  | Mul
  | Div
  | Concat  (** string concatenation *)
  | IndexOp
      (** [e[i]] — ARRAY subscription (0-based, INT index) or DICTIONARY
          lookup (missing keys yield [Null], like absent properties) *)
  | UnionOp  (** set union *)
  | InterOp  (** set intersection — the paper's INTERSECTION *)
  | DiffOp  (** set difference *)

type t =
  | Const of Value.t
  | Self  (** receiver object inside a method body *)
  | Param of string  (** method parameter inside a method body *)
  | Ref of string  (** reference (query variable) of the enclosing operator *)
  | ClassObj of string  (** a class as first-class object, e.g. [Document] *)
  | Prop of t * string
      (** [e.p] — property access via the default access method.  When [e]
          evaluates to a set, access is lifted over the members and
          set-valued results are unioned: [D.sections] denotes the union
          of all sections of the documents in [D] (Section 2.3). *)
  | Call of t * string * t list
      (** [e→m(args)] — method invocation; the receiver is an instance or,
          via {!const:ClassObj}, a class object (OWNTYPE method). *)
  | Binop of binop * t * t
  | Not of t
  | TupleE of (string * t) list  (** tuple construction [[l1: e1, ...]] *)
  | SetE of t list  (** set construction [{e1, ..., en}] *)
  | If of t * t * t  (** conditional, for method bodies *)

val equal : t -> t -> bool
val compare : t -> t -> int

val refs : t -> string list
(** Free references used by the expression, sorted, without duplicates. *)

val rename_ref : old_ref:string -> new_ref:string -> t -> t
(** Substitute one reference name for another throughout. *)

val subst_ref : string -> t -> t -> t
(** [subst_ref r e body] replaces every [Ref r] in [body] by [e]. *)

val methods_called : t -> string list
(** Names of all methods invoked anywhere in the expression, sorted,
    without duplicates. *)

val consts : t -> Value.t list
(** Every constant of the expression, with repetitions. *)

val is_boolean_shape : t -> bool
(** Syntactic check: does the expression have a boolean top constructor
    (comparison, [And]/[Or]/[Not], boolean constant)? *)

val size : t -> int
(** Number of AST nodes. *)

val pp_binop : Format.formatter -> binop -> unit

val pp : Format.formatter -> t -> unit
(** Prints in VQL-like concrete syntax ([p.section.document],
    [p->sameDocument(q)], [x IS-IN S], ...). *)

val to_string : t -> string
