(** Structured search-event traces.

    A {!t} is a bounded ring buffer of search events with a monotonic
    per-sink sequence number (no wall-clock reads on the hot path: event
    order is what matters for explaining a search, and a counter is free).
    When the buffer is full the oldest events are dropped and counted, so
    a sink can be left attached to an arbitrarily long search with bounded
    memory.

    The event vocabulary mirrors the Volcano engine: groups appearing and
    merging in the memo, transformation/implementation rules being
    matched, applied, or rejected {e with a reason}, enforcer insertions,
    memo hits, and winner changes with the old and new cost — enough to
    answer "why was this plan chosen" and "why did rule X never fire"
    (see [Explain.trace] in [prairie_volcano]).

    A sink is safe to share across domains: every operation (emit, reads,
    clear) holds the sink's internal mutex, so concurrent emitters never
    lose events or tear the sequence counter, and [events] always returns
    a consistent snapshot.  The plan service still prefers one sink per
    worker — sharing is for the parallel search and ad-hoc telemetry, not
    a throughput feature. *)

(** Why a matched rule did not produce a plan. *)
type reason =
  | Test_failed  (** the rule's condition code rejected the binding *)
  | Pruned of float
      (** branch-and-bound: the remaining cost limit (annotation) made the
          alternative not worth completing *)
  | Budget_exhausted  (** the group budget capped exploration *)
  | No_input_plan
      (** an input group has no plan under the requested properties
          (with pruning off, i.e. not a cost-limit artifact) *)

type event =
  | Group_created of { gid : int }
  | Groups_merged of { survivor : int; dead : int }
  | Trans_matched of { rule : string; gid : int; bindings : int }
  | Trans_applied of { rule : string; gid : int }
  | Trans_rejected of { rule : string; gid : int; reason : reason }
  | Impl_matched of { rule : string; gid : int }
  | Impl_applied of { rule : string; gid : int }
  | Impl_rejected of { rule : string; gid : int; reason : reason }
  | Enforcer_inserted of { alg : string; gid : int }
  | Memo_hit of { gid : int }
  | Winner_changed of {
      gid : int;
      alg : string;
      old_cost : float option;  (** [None]: first winner for the group *)
      new_cost : float;
    }
  | Budget_hit of { groups : int }
      (** emitted once, when exploration first hits the group budget *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh sink retaining at most [capacity] (default 65536, min 1)
    events. *)

val capacity : t -> int

val emit : t -> event -> unit
(** Record one event, assigning it the next sequence number; drops the
    oldest retained event when full. *)

val seq : t -> int
(** Total events emitted over the sink's lifetime (= the next event's
    sequence number). *)

val length : t -> int
(** Events currently retained: [min (seq t) (capacity t)]. *)

val dropped : t -> int
(** Events lost to the ring buffer bound: [seq t - length t]. *)

val events : t -> (int * event) list
(** Retained events, oldest first, paired with their sequence number.
    Sequence numbers are contiguous: [dropped t] up to [seq t - 1]. *)

val clear : t -> unit
(** Forget all retained events and counters. *)

val kind : event -> string
(** Stable lowercase tag, e.g. ["trans_applied"] — the ["event"] field of
    the JSON encoding. *)

val reason_label : reason -> string
(** ["test_failed"], ["pruned"], ["budget_exhausted"], ["no_input_plan"]. *)

val event_to_json : seq:int -> event -> string
(** One event as a single-line JSON object:
    [{"seq":12,"event":"trans_applied","rule":"join-assoc","gid":3}]. *)

val to_jsonl : t -> string
(** Retained events as JSON lines (newline after every event). *)

val output_jsonl : out_channel -> t -> unit

(** {1 JSON helpers} (shared with [Metrics]) *)

val json_float : float -> string
(** Finite floats as shortest round-trip decimal; infinities as the JSON
    strings ["inf"] / ["-inf"]. *)
