(** The in-memory object store: objects, class extents, property access,
    method implementations.

    This is the data-model substrate standing in for the VODAK store.  It
    keeps one extent per class, dereferences typed OIDs to property
    records, and holds the registered method implementations.

    Every write ({!create_object}, {!set_prop}, {!delete_object}) emits a
    typed {!change} event to the subscribed observers.  This is how the
    paper's "redundant data ... easily kept consistent by encapsulating
    the consistency check into corresponding methods" (Section 5.1) is
    realised: declared inverse links are maintained by a builtin observer
    registered at {!create}, and the external derived artifacts (value
    indexes, the inverted text index, implication sets, statistics
    deltas) hang off the same mechanism via [Soqm_maintenance].  A store
    with no external subscribers behaves exactly as before — inverse
    links are still maintained. *)

type t

(** {1 Change events} *)

(** Who performed a write: [User] writes come through {!set_prop} and
    trigger inverse-link maintenance; [Derived] writes are performed by
    consistency maintainers (backlink updates, implication-set updates)
    and are published but do not re-enter inverse bookkeeping. *)
type origin = User | Derived

type change =
  | Created of Oid.t
      (** emitted after extent insertion, before the initial property
          values are set (each of which emits its own [Prop_set]) *)
  | Prop_set of {
      oid : Oid.t;
      prop : string;
      old_value : Value.t;
      new_value : Value.t;
      origin : origin;
    }
  | Deleted of { oid : Oid.t; props : (string * Value.t) list }
      (** emitted after removal; [props] snapshots the final property
          values so observers can un-derive without dereferencing the
          dead OID *)

val subscribe : t -> (change -> unit) -> unit
(** Register an observer, called synchronously on every subsequent write
    in subscription order (after the builtin inverse-link observer).
    Observers must not call {!subscribe} reentrantly.  Note that an
    observer writing through {!set_prop_derived} causes nested events:
    the [Derived] events of backlink updates reach observers before the
    [User] event that caused them completes its observer round. *)

(** A method implementation: an internal body in the expression language
    (evaluated with [SELF] and the declared parameters bound), or an
    external OCaml function of the store, the receiver value and the
    argument values. *)
type impl =
  | Body of Expr.t
  | Native of (t -> Value.t -> Value.t list -> Value.t)

(** [create ?counters schema] — a fresh store.  [counters] lets an
    embedding storage backend (e.g. a disk store) share one counter set
    with the in-memory store it materializes. *)
val create : ?counters:Counters.t -> Schema.t -> t
val schema : t -> Schema.t
val counters : t -> Counters.t

(** {1 Objects} *)

val create_object : t -> cls:string -> (string * Value.t) list -> Oid.t
(** Allocate a fresh instance of [cls] with the given initial property
    values (missing properties default to [Null]), insert it into the
    class extent, and maintain inverse links for the supplied values.
    @raise Invalid_argument on unknown class/property or ill-typed value. *)

val reserve_oid : t -> cls:string -> Oid.t
(** Allocate a fresh OID of [cls] {e without} creating the object: the
    allocation counter advances but no extent entry, record or event is
    produced.  Buffered transactional inserts reserve their OIDs at
    execution time (so the transaction can read its own inserts by OID)
    and materialize them at commit with {!insert_reserved}; an aborted
    transaction simply leaks the serial, which is harmless.
    @raise Invalid_argument on unknown class. *)

val insert_reserved : t -> Oid.t -> (string * Value.t) list -> unit
(** Materialize an object under a previously {!reserve_oid}-allocated
    OID: extent insertion, [Created] event, then the initial property
    writes exactly as {!create_object}.
    @raise Invalid_argument if the OID is already live. *)

val delete_object : t -> Oid.t -> unit
(** Remove the object from its extent and clear inverse links pointing to
    it.  Dereferencing a deleted OID afterwards raises [Not_found]. *)

val exists : t -> Oid.t -> bool

val extent : t -> string -> Oid.t list
(** Extent of the class, in allocation order.
    @raise Invalid_argument on unknown class. *)

val extent_size : t -> string -> int

val get_prop : t -> Oid.t -> string -> Value.t
(** Read a property through the default access method; charges an object
    fetch and a property read.
    @raise Not_found on dangling OID, [Invalid_argument] on unknown
    property. *)

val peek_prop : t -> Oid.t -> string -> Value.t
(** Like {!get_prop} but free of cost accounting; for administrative reads
    such as index builds and statistics collection. *)

val set_prop : t -> Oid.t -> string -> Value.t -> unit
(** Write a property; typechecks the value, emits a [User] {!change} and
    maintains declared inverse links: setting [Section#s.document := d]
    adds [s] to [d.sections] (and removes it from the previous document's
    set).
    @raise Invalid_argument when [prop] is guarded ({!guard_derived}). *)

val guard_derived : t -> cls:string -> prop:string -> owner:string -> unit
(** Declare [cls.prop] derived data that only the maintainer [owner]
    writes (through {!set_prop_derived}): from now on {!set_prop},
    {!create_object} and {!insert_reserved} reject user values for it. *)

val check_user_write : t -> cls:string -> prop:string -> unit
(** @raise Invalid_argument naming the property and its maintainer when
    [cls.prop] is guarded by {!guard_derived}.  Buffering layers call it
    before accepting a write. *)

val set_prop_derived : t -> Oid.t -> string -> Value.t -> unit
(** Like {!set_prop} but the event carries origin [Derived]: for
    maintainers writing derived artifacts (e.g. implication sets such as
    [Document.largeParagraphs]).  Typechecks, but does {e not} maintain
    inverse links — derived properties must not declare inverses. *)

(** {1 Snapshots} *)

type dump
(** An image of the store's data: schema, objects with their property
    values, allocation counter — what the paged database directory
    writes and reads back.  Method implementations (OCaml closures) are
    {e not} part of a dump; re-register them after {!import}. *)

val export : t -> dump
val dump_schema : dump -> Schema.t

val dump_objects : dump -> (Oid.t * (string * Value.t) list) list
(** The dumped objects in allocation order (ascending OID serial). *)

val dump_next_id : dump -> int

val make_dump :
  schema:Schema.t ->
  next_id:int ->
  (Oid.t * (string * Value.t) list) list ->
  dump
(** Assemble a dump from parts; [objects] must be listed in allocation
    order.  Used by external storage backends ([Soqm_disk]) to feed
    {!import}. *)

val import : ?counters:Counters.t -> dump -> t
(** Rebuild a store from a dump: same schema, same OIDs, same property
    values (restored verbatim, without re-running inverse maintenance),
    empty method registry. *)

(** {1 Method implementations} *)

val register_inst_method : t -> cls:string -> meth:string -> impl -> unit
(** Attach the implementation of a declared INSTTYPE method.
    @raise Invalid_argument if the schema declares no such method. *)

val register_own_method : t -> cls:string -> meth:string -> impl -> unit

val find_inst_impl : t -> cls:string -> meth:string -> impl option
val find_own_impl : t -> cls:string -> meth:string -> impl option
