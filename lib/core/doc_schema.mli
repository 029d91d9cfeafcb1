(** The paper's running example schema (Section 2.1): classes [Document],
    [Section] and [Paragraph], plus the [largeParagraphs]/[wordCount]
    extension used by the implication rules of Section 4.2.

    The inverse links [Document.sections ↔ Section.document] and
    [Section.paragraphs ↔ Paragraph.section] are declared in the schema —
    they are the source of the equivalent-condition knowledge E3/E4. *)

open Soqm_vml

val schema : Schema.t

val make : ?cost_contains_string:float -> ?pure_word_count:bool -> unit -> Schema.t
(** The same schema with an overridden [contains_string] cost (the
    expensive-predicate experiments) or a [wordCount] not declared
    side-effect free.  [schema] is [make ()]. *)

val install_internal_methods : Object_store.t -> unit
(** Register the bodies of the internally-encoded methods:
    - [Paragraph.document() { RETURN section.document; }]
    - [Paragraph.sameDocument(p) { RETURN SELF→document() == p→document(); }]
    - [Document.paragraphs()] (all paragraphs of the document's sections)

    External methods ([contains_string], [retrieve_by_string],
    [select_by_index], [wordCount]) are registered by {!Db}, which owns
    the indexes they probe. *)

val install_scan_methods : Object_store.t -> unit
(** Register index-free scan implementations of the four external
    methods, semantically equal to the index-backed natives {!Db}
    registers.  Used on the knowledge checker's candidate stores, which
    have no indexes. *)

(** Declared cost weights of the example's methods, exposed so benchmarks
    and documentation can refer to them. *)

val cost_contains_string : float
val cost_retrieve_by_string : float
val cost_select_by_index : float
val cost_word_count : float
val selectivity_contains_string : float
val selectivity_select_by_index : float
