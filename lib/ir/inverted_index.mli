(** Inverted index: word → set of document keys.

    Backs the external method [Paragraph→retrieve_by_string(s)]: a single
    probe returns all paragraph keys whose content contains the word —
    the class-level access path that semantic optimization substitutes
    for per-object [contains_string] calls (equivalence E5). *)

type 'k t

val create : unit -> 'k t

val clear : 'k t -> unit
(** Drop all postings. *)

val add : 'k t -> key:'k -> text:string -> unit
(** Index [text] under [key].  Re-adding a key accumulates postings: the
    new text's words are added but stale postings of the previous text
    survive.  Bulk loaders that index each key exactly once may use this
    directly; update paths must go through {!replace}. *)

val remove : 'k t -> key:'k -> text:string -> unit
(** Remove the postings [text] created for [key]. *)

val replace : 'k t -> key:'k -> old_text:string -> text:string -> unit
(** Reindex [key] from [old_text] to [text]: postings for words that only
    occur in [old_text] are removed, words of [text] are (re)added.
    Equivalent to {!remove} followed by {!add}, without touching the
    postings of words common to both texts. *)

val lookup : 'k t -> string -> 'k list
(** Keys whose text contains the given word (case-insensitive); [] for
    unknown words.  Order unspecified, duplicate-free. *)

val lookup_all : 'k t -> string -> 'k list
(** Conjunctive multi-word query: keys containing {e every} word of the
    given string. *)

val load_postings : 'k t -> word:string -> keys:'k list -> unit
(** Install the full posting list of one pre-tokenized word in a single
    right-sized allocation, replacing any existing postings for it.
    O(postings) with no rehash growth — the bulk path image restore
    takes. *)

val iter_postings : 'k t -> (string -> 'k list -> unit) -> unit
(** Every word with its posting keys (order unspecified) — the dump
    feed for index persistence. *)

val word_count : 'k t -> int
(** Number of distinct indexed words. *)

val posting_count : 'k t -> string -> int
(** Number of keys indexed under the given word. *)
