(** First-order operator patterns over the restricted algebra.

    Volcano's "rule matching algorithm can utilize operator patterns
    consisting of operator, operator argument and input variables"
    (Section 6); because the restricted algebra's arguments are atomic,
    a pattern variable can stand for a reference, a property/method/class
    name, a comparison, an operand, an argument list, or a whole input
    subtree — the paper's [?a1], [?p1], [?A].

    The same type doubles as the {e template} (rewrite) language: an
    instantiation substitutes bound variables and generates deterministic
    fresh names for reference variables the match left unbound (e.g. the
    [?a4] Example 8 introduces). *)

open Soqm_vml
open Soqm_algebra

type pref = PRef of string | PRefVar of string
type pname = PName of string | PNameVar of string
type pcmp = PCmp of Restricted.cmp | PCmpVar of string

type poperand =
  | POperand of Restricted.operand  (** exact operand (constants) *)
  | POperandVar of string  (** any operand *)
  | PORefOf of pref  (** an [ORef] whose reference matches *)

type precv = PRecvClass of pname | PRecvRef of pref
type pargs = PArgs of poperand list | PArgsVar of string
type prefs = PRefs of pref list | PRefsVar of string

type t =
  | PAny of string  (** input variable [?A]: binds any subtree *)
  | PAnyRanging of string * pref * string
      (** [?A<?a, C>]: any subtree among whose references is [?a], ranging
          over instances of class [C] (checked via {!Restricted.infer}) *)
  | PGet of pref * pname
  | PNaturalJoin of t * t
  | PUnion of t * t
  | PDiff of t * t
  | PCross of t * t
  | PSelectCmp of pcmp * poperand * poperand * t
  | PJoinCmp of pcmp * pref * pref * t * t
  | PMapProperty of pref * pname * pref * t
  | PMapMethod of pref * pname * precv * pargs * t
  | PFlatProperty of pref * pname * pref * t
  | PFlatMethod of pref * pname * precv * pargs * t
  | PMapOperator of pref * Restricted.opname * pargs * t
  | PFlatOperator of pref * Restricted.opname * pargs * t
  | PProject of prefs * t
  | PMethodSource of pref * pname * pname * pargs

type bindings = {
  plans : (string * Restricted.t) list;
  refs : (string * string) list;
  names : (string * string) list;
  cmps : (string * Restricted.cmp) list;
  operands : (string * Restricted.operand) list;
  arglists : (string * Restricted.operand list) list;
  reflists : (string * string list) list;
}

val empty : bindings

val matches : Schema.t -> t -> Restricted.t -> bindings list
(** All ways the pattern matches the term's {e root} (no descent: rules
    are applied at every node by the search, not by the matcher).
    Multiple results arise only from unbound ranging variables. *)

exception Unbound of string

val instantiate :
  rule:string -> fresh_seed:int -> bindings -> t -> Restricted.t
(** Build a term from a template.  Reference variables not present in the
    bindings become fresh temporaries named deterministically from
    [rule], the variable and [fresh_seed]; [PAny]/[PAnyRanging] splice the
    bound subtree.  @raise Unbound if a plan, name, comparison, operand
    or list variable is unbound. *)
