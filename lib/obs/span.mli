(** Hierarchical timed spans with per-rule attribution.

    A sink is a bounded ring buffer of completed spans plus an exact
    per-(phase, rule) aggregate table that survives ring wrap-around.
    Parents are explicit handles threaded by the caller — there is no
    global mutable "current span", so the discipline stays correct
    when exploration goes multi-domain: give each domain its own sink
    and thread handles within it.

    Sinks are safe to share across domains, like {!Trace}: enter, exit,
    reads and clear all hold the sink's internal mutex, so concurrent
    emitters never lose records, tear counters, or corrupt the aggregate
    table.  A {e handle} tree is still single-domain — only sink state is
    protected; open and close any given span from the same domain.
    Timestamps are wall-clock nanoseconds made strictly monotonic per
    sink (OCaml 5.1 ships no stdlib monotonic clock; readings that do
    not advance are bumped by 1 ns). *)

type phase =
  | Optimize  (** a whole [Search.optimize] / [Bottom_up.optimize] run *)
  | Explore  (** worklist fixpoint over one group *)
  | Match  (** T-rule pattern match against one lexpr *)
  | Apply  (** T-rule condition + template build + memo insertion *)
  | Cost  (** one implementation-rule costing, inputs included *)
  | Enforcer  (** enforcer insertion + relaxed re-optimization *)
  | Memo_insert  (** gtree/expression insertion into the memo *)
  | Merge  (** group merge and congruence repair, under [Memo_insert] *)
  | Serve  (** service-level request handling *)

val phase_label : phase -> string
val all_phases : phase list

type handle
(** An open span. Valid until passed to {!exit}; handles are cheap
    records, never stored by the sink. *)

type record = {
  id : int;
  parent : int;  (** [id] of the parent span, [-1] for roots *)
  phase : phase;
  rule : string option;
  domain : int;  (** integer id of the domain that closed the span *)
  start_ns : int64;
  dur_ns : int64;
  self_ns : int64;  (** [dur_ns] minus the sum of direct children *)
  minor_words : float;
  major_words : float;
}

type agg = {
  a_phase : phase;
  a_rule : string option;
  mutable a_count : int;
  mutable a_total_ns : int64;
  mutable a_self_ns : int64;
  mutable a_minor_words : float;
  mutable a_major_words : float;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the record ring (default 65536); the aggregate
    table is exact regardless of drops. *)

val capacity : t -> int

val enter : t -> ?rule:string -> ?parent:handle -> phase -> handle
val exit : t -> handle -> unit
(** [exit t h] closes [h]: computes duration and GC-word deltas,
    charges the duration to the parent handle's children sum, appends
    a {!record}, and folds into the aggregate table. Call exactly once
    per handle, children strictly before parents. *)

val enter_opt :
  t option -> ?rule:string -> parent:handle option -> phase -> handle option
(** Disabled fast path: a single Option check when the sink is [None].
    [parent] is labelled (not optional) so instrumentation sites are
    forced to thread it explicitly. *)

val exit_opt : t option -> handle option -> unit

val seq : t -> int
(** Total spans completed, including dropped ones. *)

val length : t -> int
val dropped : t -> int

val records : t -> record list
(** Retained records, oldest first (completion order). *)

val clear : t -> unit

val root_total_ns : t -> int64
(** Summed duration of parentless spans — the profiled wall total. *)

val root_count : t -> int

val profile : t -> agg list
(** Exact per-(phase, rule) aggregates, sorted by self time
    descending. *)

val to_chrome : t -> string
(** Chrome trace-event JSON ("X" complete events, µs timestamps
    rebased to the earliest retained span); opens in Perfetto and
    chrome://tracing. *)

val chrome_of_trace : Trace.t -> string
(** Render an event trace as trace-event JSON instant events (seq as
    the µs clock, full event objects under [args]). *)
