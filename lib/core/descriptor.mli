(** Descriptors: the uniform per-node annotation lists of Prairie.

    A descriptor is "a list of annotations that describes a node of an
    operator tree; every node has its own descriptor" (paper §2.1).  Unlike
    Volcano, a single structure holds what Volcano splits into
    operator/algorithm arguments, physical properties and cost — the split is
    recovered mechanically by the P2V pre-processor.

    Descriptors are hash-consed through a domain-local, generation-scoped
    pool (a bounded strong table, reset wholesale when full): every
    value carries a pool-unique {!id}, a precomputed order-independent
    {!hash}, and a lazily cached {!fingerprint}, so the memo hot paths get
    O(1) hashing and (within a domain) pointer-equality comparisons.
    Observational semantics are unchanged from the uninterned
    representation. *)

type t

val empty : t

val is_empty : t -> bool

val id : t -> int
(** Pool-unique identity of this descriptor, assigned at interning time
    ([-1] on a draft, see {!update}).
    Unique only within the interning domain — descriptors that cross domains
    (e.g. through the plan cache) may collide on [id], so persistent keys
    must use the descriptor itself (via {!hash}/{!equal} or {!Tbl}), not the
    raw id.  Ids are not stable across runs; never use them for ordering. *)

val get : t -> string -> Prairie_value.Value.t
(** [get d p] is the value of property [p], or [Null] when unset. *)

val find : t -> string -> Prairie_value.Value.t option

val set : t -> string -> Prairie_value.Value.t -> t
(** Functional update.  Setting a "no constraint" value — [Null], the
    DONT_CARE order, or the [True] predicate — removes the binding, so
    descriptors built along different rewriting paths stay structurally
    equal; the typed accessors read absent bindings back as those values. *)

val remove : t -> string -> t

(** {1 Drafts}

    A rule action that writes several properties of one descriptor builds
    it as a {e draft} and interns it once, when the action's statement
    block ends, instead of interning after every write.  Only {!update}
    returns drafts; every other function returns interned descriptors,
    also when given a draft.  Drafts read, compare and hash like any
    descriptor, but they are never physically equal to an interned one:
    {!seal} them before they reach the memo or a winner table. *)

val update : t -> string -> Prairie_value.Value.t -> t
(** {!set} without interning: the same bindings, same "no constraint"
    normalization, as a draft. *)

val seal : t -> t
(** Intern a draft: the pooled descriptor with the same bindings.  The
    identity on descriptors that are already interned. *)

val mem : t -> string -> bool

val of_list : (string * Prairie_value.Value.t) list -> t

val to_list : t -> (string * Prairie_value.Value.t) list
(** Bindings sorted by property name. *)

val merge : base:t -> overrides:t -> t
(** Right-biased union: properties of [overrides] win. *)

val restrict : t -> string list -> t
(** Keep only the named properties. *)

val without : t -> string list -> t
(** Drop the named properties. *)

module String_set : Set.S with type elt = string

val restrict_set : t -> String_set.t -> t
(** {!restrict} against a prebuilt property set — use this when the same
    property list is applied repeatedly (e.g. a rule set's physical
    properties) to avoid rebuilding the set per call. *)

val without_set : t -> String_set.t -> t

val equal : t -> t -> bool
(** Pointer equality first (covers every pair interned by the same
    generation of the same domain's pool), then the cached-hash pre-check,
    then structural comparison of the binding maps.  The fallbacks make
    equality sound for descriptors interned in {e different domains} (or
    different pool generations): two such records are never physically
    equal and may even collide on {!id}, but they compare equal exactly
    when their bindings do. *)

val compare : t -> t -> int
(** Structural comparison (not id-based): deterministic across runs and
    domains. *)

val hash : t -> int
(** O(1): returns the hash precomputed at interning time.  The hash is a
    pure function of the bindings, so equal descriptors hash equal no
    matter which domain interned them. *)

module Tbl : Hashtbl.S with type key = t
(** Hash tables keyed by descriptor, using the cached hash and the
    pointer-fast-path equality.  This is the right structure for winner
    tables and per-descriptor memo caches.  Safe to share across domains
    (with external synchronization of the table itself): keys interned in
    one domain are found by structurally equal probes interned in another,
    because {!equal}/{!hash} never depend on pool identity. *)

val add_fingerprint : Buffer.t -> t -> unit
(** Append an injective canonical serialization of the bindings to a buffer
    (the building block of {!Prairie.Expr.fingerprint}).  Because "no
    constraint" values are normalized to absence (see {!set}), descriptors
    built along different rewriting paths serialize identically exactly when
    they are {!equal}.  The serialization is computed once per descriptor
    and cached. *)

val fingerprint : t -> string
(** [add_fingerprint] into a fresh buffer, cached after the first call.
    [fingerprint a = fingerprint b] iff [equal a b]. *)

type pool_stats = { size : int; hits : int; misses : int }
(** [size] is the current number of live descriptors in this domain's pool;
    [hits] counts interning requests answered by an existing descriptor,
    [misses] those that created a new one. *)

val pool_stats : unit -> pool_stats
(** Statistics of the calling domain's interning pool. *)

(** {1 Typed accessors}

    Convenience readers used throughout rule tests, cost functions and the
    execution engine.  They raise [Prairie_value.Value.Type_error] on
    mismatches. *)

val get_int : t -> string -> int
val get_float : t -> string -> float
val get_order : t -> string -> Prairie_value.Order.t
val get_pred : t -> string -> Prairie_value.Predicate.t
val get_attrs : t -> string -> Prairie_value.Attribute.t list

val cost : t -> float
(** The ["cost"] property, 0 when unset. *)

val set_cost : t -> float -> t

val pp : Format.formatter -> t -> unit
