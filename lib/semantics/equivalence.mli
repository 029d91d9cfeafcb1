(** Schema-specific knowledge about method semantics (Section 4.2).

    Four kinds of specifications, each quantified over one variable
    ranging over a class and optionally over parameters (written with
    [Expr.Param]):

    - {b Equivalent expressions} — [∀x IN C: expr1(x) == expr2(x)], e.g.
      the path method E1: [p→document() ≡ p.section.document].
    - {b Equivalent conditions} — [∀x IN C: cond1(x) ⇔ cond2(x)], e.g.
      the index equivalence E2 and the inverse-link equivalences E3/E4.
    - {b Implication of conditions} — [∀x IN C: cond1(x) ⇒ cond2(x)],
      e.g. [p→wordCount() > 500 ⇒ p IS-IN p→document().largeParagraphs].
    - {b Equivalence between queries and method calls} — a selection
      query equals a set-returning class-method call, e.g. E5:
      [ACCESS p FROM p IN Paragraph WHERE p→contains_string(s)
       ≡ Paragraph→retrieve_by_string(s)].

    The schema designer states these without revealing method
    implementations; {!Derive} compiles them into optimizer rules. *)

open Soqm_vml

(** Argument template of the method call in a query/method equivalence. *)
type arg = Arg_param of string | Arg_const of Value.t

type t =
  | Expr_equiv of { name : string; cls : string; var : string; lhs : Expr.t; rhs : Expr.t }
  | Cond_equiv of { name : string; cls : string; var : string; lhs : Expr.t; rhs : Expr.t }
  | Implication of {
      name : string;
      cls : string;
      var : string;
      antecedent : Expr.t;
      consequent : Expr.t;
    }
  | Query_method of {
      name : string;
      cls : string;  (** range class of the query *)
      var : string;
      cond : Expr.t;  (** WHERE condition of the selection query *)
      meth_cls : string;  (** class object providing the method *)
      meth : string;
      args : arg list;
    }

val name : t -> string

val validate : Schema.t -> t -> (unit, string) result
(** Sanity checks: the class exists, both sides mention only the spec
    variable and parameters, boolean sides are boolean-shaped, the
    method of a query/method equivalence is a declared OWNTYPE method. *)

(** An implication in {e maintained shape}
    [∀x IN C: A(x) ⇒ x IS-IN T(x).S]: the set property [S] of the
    object [T(x)] can be kept equal to [{x | A(x) ∧ T(x) = owner}] by a
    maintainer, which the knowledge-maintenance subsystem does. *)
type maintained = {
  m_name : string;  (** name of the implication *)
  member_cls : string;  (** [C] *)
  m_var : string;  (** [x] *)
  m_antecedent : Expr.t;  (** [A(x)] *)
  target : Expr.t;  (** [T(x)], the owner of the set holding [x] *)
  set_prop : string;  (** [S] *)
}

val maintained : t -> maintained option
(** The maintained-shape view of a spec, if it has that shape.  The one
    recognizer shared by maintenance, the rule checker and the
    generator rule {!Derive.generator}. *)

val owner_classes : Schema.t -> maintained -> string list
(** The classes declaring [S] as a set of the member class: the possible
    owners of the maintained sets. *)

val owner_invariant : maintained -> t
(** The proof obligation a maintained set discharges:
    [∀x IN C (D: Y): x IS-IN D.S ⇒ T(x) == D], named
    ["<implication>/owner"].  It is what makes the maintained sets
    usable as generators (every member of [y.S] has [T(x) = y]); it is
    checked by the rule checker and never compiled into a rewrite. *)

val from_inverse_links : Schema.t -> t list
(** Derive the condition equivalences the schema's declared inverse links
    induce (Section 5.2: knowledge "may be derived from other
    information, like such about inverse links").  For each link
    [C1.p1 : C2] with inverse [C2.p2 : {C1}] this yields
    [∀x IN C1: x.p1 IS-IN D ⇔ x IS-IN D.p2] — e.g. E3 and E4 of the
    document schema. *)

val pp : Format.formatter -> t -> unit
