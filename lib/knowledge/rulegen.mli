(** Generated specification families for the document schema — the
    "datagen for knowledge" behind the 100+-rule saturation gate, and a
    matrix of deliberately unsound rules the bounded checker must
    refute.

    {!family} declares only O(n) specifications (a chain of adjacent
    word-count threshold implications, one [>] ⇔ [>=] boundary
    equivalence per threshold, and the wordCount-method/property
    equivalence); saturation closes the chain transitively and
    substitutes the method form into every implication, growing the set
    to O(n²) derived rules no human wrote. *)

open Soqm_semantics

val wc_method_equiv : Equivalence.t
(** [∀p IN Paragraph: p→wordCount() == p.word_count] — sound for the
    document database, whose external [wordCount] returns the
    precomputed property. *)

val family : ?thresholds:int -> ?step:int -> unit -> Equivalence.t list
(** The declared family: [1 + (thresholds-1) + thresholds]
    specifications over [Paragraph.word_count] with thresholds
    [step, 2·step, ...].  The defaults (8 thresholds, step 100)
    saturate to well over 100 derived rules within
    {!Saturate.default_config}'s caps. *)

val mutations : unit -> (string * Equivalence.t) list
(** Labeled seeded-unsound specifications — flipped comparison, wrong
    class, off-by-one thresholds, a negated index equivalence, the
    converse of the largeParagraphs owner invariant and a wrong
    query/method pairing.  Every one of them must be refuted by
    the bounded checker at the default bound (the test matrix of the
    acceptance criteria). *)
