(* Hierarchical timed spans with per-rule attribution.

   A sink records completed spans into a bounded ring buffer (oldest
   dropped first, like [Trace]) and simultaneously folds every exit
   into an exact per-(phase, rule) aggregate table, so profiles stay
   accurate even when the ring wraps.  Parents are explicit handles
   threaded by the caller — there is no global (or domain-local)
   "current span" variable, so the discipline survives multi-domain
   exploration.  Sink state is mutex-protected so concurrent emitters
   may share one sink; handle trees remain single-domain.

   Timestamps come from [Unix.gettimeofday] (OCaml 5.1 ships no
   monotonic clock in the stdlib and Mtime is not vendored) made
   strictly monotonic per sink by clamping: a reading that does not
   advance past the previous one is bumped by 1 ns.  Within one sink
   this guarantees start < child start < child end < end for properly
   nested spans. *)

module Json = Prairie_util.Json

type phase =
  | Optimize
  | Explore
  | Match
  | Apply
  | Cost
  | Enforcer
  | Memo_insert
  | Merge
  | Serve

let phase_label = function
  | Optimize -> "optimize"
  | Explore -> "explore"
  | Match -> "match"
  | Apply -> "apply"
  | Cost -> "cost"
  | Enforcer -> "enforcer"
  | Memo_insert -> "memo_insert"
  | Merge -> "merge"
  | Serve -> "serve"

let all_phases =
  [ Optimize; Explore; Match; Apply; Cost; Enforcer; Memo_insert; Merge; Serve ]

type handle = {
  h_id : int;
  h_parent : handle option;
  h_phase : phase;
  h_rule : string option;
  h_start : int64;
  h_minor0 : float;
  h_major0 : float;
  mutable h_children_ns : int64;  (* sum of direct children durations *)
}

type record = {
  id : int;
  parent : int;  (* -1 for roots *)
  phase : phase;
  rule : string option;
  domain : int;
  start_ns : int64;
  dur_ns : int64;
  self_ns : int64;  (* dur minus direct children *)
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

type t = {
  buf : record option array;
  mutable n : int;  (* total completed; next record index *)
  mutable next_id : int;
  mutable last_ns : int64;  (* monotonic clamp state *)
  mutable root_total_ns : int64;
  mutable root_count : int;
  agg : (string, agg) Hashtbl.t;  (* keyed by phase_label ^ "/" ^ rule *)
  mutex : Mutex.t;
      (* guards every field above: a sink may be shared by concurrent
         emitters (service worker domains, parallel search), and the agg
         table in particular corrupts under unsynchronized writes.  Handle
         trees stay single-domain — only sink state is protected. *)
}

let create ?(capacity = 65536) () =
  {
    buf = Array.make (max 1 capacity) None;
    n = 0;
    next_id = 0;
    last_ns = 0L;
    root_total_ns = 0L;
    root_count = 0;
    agg = Hashtbl.create 64;
    mutex = Mutex.create ();
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let capacity t = Array.length t.buf
let seq t = with_lock t (fun () -> t.n)
let length_unlocked t = min t.n (Array.length t.buf)
let length t = with_lock t (fun () -> length_unlocked t)
let dropped t = with_lock t (fun () -> t.n - length_unlocked t)
let root_total_ns t = with_lock t (fun () -> t.root_total_ns)
let root_count t = with_lock t (fun () -> t.root_count)

(* strictly increasing per sink: gettimeofday has µs resolution, so
   back-to-back readings tie frequently; ties advance by 1 ns *)
let now_ns t =
  let raw = Int64.of_float (Unix.gettimeofday () *. 1e9) in
  let ns =
    if Int64.compare raw t.last_ns > 0 then raw else Int64.add t.last_ns 1L
  in
  t.last_ns <- ns;
  ns

let enter t ?rule ?parent phase =
  let id, start =
    with_lock t (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        (id, now_ns t))
  in
  let minor, _promoted, major = Gc.counters () in
  {
    h_id = id;
    h_parent = parent;
    h_phase = phase;
    h_rule = rule;
    h_start = start;
    h_minor0 = minor;
    h_major0 = major;
    h_children_ns = 0L;
  }

let agg_key phase rule =
  match rule with
  | None -> phase_label phase
  | Some r -> phase_label phase ^ "/" ^ r

let exit t h =
  let minor, _promoted, major = Gc.counters () in
  let minor_w = minor -. h.h_minor0 and major_w = major -. h.h_major0 in
  with_lock t @@ fun () ->
  let stop = now_ns t in
  let dur = Int64.sub stop h.h_start in
  let self = Int64.sub dur h.h_children_ns in
  (match h.h_parent with
  | Some p -> p.h_children_ns <- Int64.add p.h_children_ns dur
  | None ->
    t.root_total_ns <- Int64.add t.root_total_ns dur;
    t.root_count <- t.root_count + 1);
  let r =
    {
      id = h.h_id;
      parent = (match h.h_parent with Some p -> p.h_id | None -> -1);
      phase = h.h_phase;
      rule = h.h_rule;
      domain = (Domain.self () :> int);
      start_ns = h.h_start;
      dur_ns = dur;
      self_ns = self;
      minor_words = minor_w;
      major_words = major_w;
    }
  in
  t.buf.(t.n mod Array.length t.buf) <- Some r;
  t.n <- t.n + 1;
  let key = agg_key h.h_phase h.h_rule in
  match Hashtbl.find_opt t.agg key with
  | Some a ->
    a.a_count <- a.a_count + 1;
    a.a_total_ns <- Int64.add a.a_total_ns dur;
    a.a_self_ns <- Int64.add a.a_self_ns self;
    a.a_minor_words <- a.a_minor_words +. minor_w;
    a.a_major_words <- a.a_major_words +. major_w
  | None ->
    Hashtbl.replace t.agg key
      {
        a_phase = h.h_phase;
        a_rule = h.h_rule;
        a_count = 1;
        a_total_ns = dur;
        a_self_ns = self;
        a_minor_words = minor_w;
        a_major_words = major_w;
      }

(* disabled fast path: one Option check, nothing allocated *)
let enter_opt t ?rule ~parent phase =
  match t with
  | None -> None
  | Some sink -> Some (enter sink ?rule ?parent phase)

let exit_opt t h =
  match (t, h) with
  | Some sink, Some h -> exit sink h
  | _ -> ()

let records t =
  with_lock t (fun () ->
      List.init (length_unlocked t) (fun i ->
          let s = t.n - length_unlocked t + i in
          match t.buf.(s mod Array.length t.buf) with
          | Some r -> r
          | None -> assert false (* slots below [length] are always filled *)))

let clear t =
  with_lock t @@ fun () ->
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.n <- 0;
  t.next_id <- 0;
  t.root_total_ns <- 0L;
  t.root_count <- 0;
  Hashtbl.reset t.agg

(* copy the aggregates out under the lock so a concurrent [exit] cannot
   mutate a cell mid-sort or mid-render *)
let profile t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun _ a acc -> { a with a_count = a.a_count } :: acc)
        t.agg [])
  |> List.sort (fun a b ->
         match Int64.compare b.a_self_ns a.a_self_ns with
         | 0 -> compare (agg_key a.a_phase a.a_rule) (agg_key b.a_phase b.a_rule)
         | c -> c)

(* ---------------- Chrome trace-event exporter ---------------- *)

(* https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
   "X" complete events, ts/dur in microseconds; opens in Perfetto and
   chrome://tracing. ts is rebased so the earliest retained span is 0. *)

let us_of_ns ns = Int64.to_float ns /. 1e3

let chrome_event buf ~base r =
  let name =
    match r.rule with
    | None -> phase_label r.phase
    | Some rule -> phase_label r.phase ^ ":" ^ rule
  in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%s,\"minor_words\":%s,\"major_words\":%s%s}}"
       (Json.quote name)
       (Json.quote (phase_label r.phase))
       (Trace.json_float (us_of_ns (Int64.sub r.start_ns base)))
       (Trace.json_float (us_of_ns r.dur_ns))
       r.domain r.id r.parent
       (Trace.json_float (us_of_ns r.self_ns))
       (Trace.json_float r.minor_words)
       (Trace.json_float r.major_words)
       (match r.rule with
       | None -> ""
       | Some rule -> Printf.sprintf ",\"rule\":%s" (Json.quote rule)))

let to_chrome t =
  let rs = records t in
  let base =
    List.fold_left
      (fun acc r -> if Int64.compare r.start_ns acc < 0 then r.start_ns else acc)
      (match rs with [] -> 0L | r :: _ -> r.start_ns)
      rs
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"prairie\"}}";
  List.iter
    (fun r ->
      Buffer.add_char buf ',';
      chrome_event buf ~base r)
    rs;
  Buffer.add_string buf
    (Printf.sprintf "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"spans\":%d,\"dropped\":%d}}"
       (seq t) (dropped t));
  Buffer.contents buf

(* Event traces have no durations; render them as thread-scoped instant
   events one microsecond apart (seq as the clock), args carrying the
   full JSONL object so nothing is lost. *)
let chrome_of_trace tr =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  Buffer.add_string buf
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"prairie-trace\"}}";
  List.iter
    (fun (s, ev) ->
      Buffer.add_string buf
        (Printf.sprintf
           ",{\"name\":%s,\"cat\":\"trace\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%d,\"pid\":1,\"tid\":0,\"args\":{\"event\":%s}}"
           (Json.quote (Trace.kind ev))
           s
           (Trace.event_to_json ~seq:s ev)))
    (Trace.events tr);
  Buffer.add_string buf
    (Printf.sprintf "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"events\":%d,\"dropped\":%d}}"
       (Trace.seq tr) (Trace.dropped tr));
  Buffer.contents buf
