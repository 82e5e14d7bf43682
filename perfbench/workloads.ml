(* The four workloads.  Each is a closed loop with a single client over
   seeded inputs: set up (several times, reporting the median), then time
   ops for the run's seconds, checking each against references computed
   once per distinct input outside the measured time.  A traced run steps
   the same ops with and without spans and reports per-layer self times
   plus the tracing overhead. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Search = Prairie_volcano.Search
module Stats = Prairie_volcano.Stats
module Plan_cache = Prairie_service.Plan_cache
module Metrics = Prairie_obs.Metrics

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  rules : Rig.rule_texts;
}

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  counters : (string * int) list;  (** deterministic per seed *)
  info : (string * Json.t) list;
  tally : Measure.tally;
  tracer : Tracer.t;  (** the traced pass (disabled when not tracing) *)
}

let now = Unix.gettimeofday
let setup_reps = 21
let setup_units = 1

(* [setup_reps] set-ups, each followed by [setup_units] calibration units;
   the last set-up is used.  Returns the median set-up time as measured and
   scaled to the reference speed by the units' median time. *)
let timed_setup tr f =
  let last = ref None in
  let units = Array.make (setup_reps * setup_units) 0.0 in
  let times =
    Array.init setup_reps (fun i ->
        Tracer.set_op tr (-1 - i);
        let t0 = now () in
        let s = f tr in
        let dt = now () -. t0 in
        last := Some s;
        for u = 0 to setup_units - 1 do
          let c0 = now () in
          ignore (Sys.opaque_identity (Calib.work ()));
          units.((i * setup_units) + u) <- now () -. c0
        done;
        dt)
  in
  let raw = Measure.median times in
  let factor = Measure.median units /. Calib.reference_unit_s in
  ((raw, raw /. factor), Option.get !last)

(* One timed loop's latencies, in seconds: as measured, and scaled to the
   reference speed by the calibration stretch each op ran in. *)
type timing = { raw : float array; scaled : float array }

(* Closed loop over op lists run in lockstep: for i = 0, 1, ... every op
   of [steps] runs op i in turn, until the first op has been busy for
   [seconds], at least [min_ops] rounds ran and the count is a multiple of
   [granule] (or exactly [ops] rounds, unless the loop has run for [max_s]
   by then: it stops at the next such boundary).  Each op returns its own
   latency, so its correctness check and any reference it computes stay
   outside the measured time.  A traced run steps its untraced and traced ops side by
   side, so slow spells of the machine hit both alike.  Calibration units
   run between rounds (see Calib); returns each op's timing and the loop's
   mean slowness factor. *)
let lockstep ?ops ?(min_ops = 0) ?(granule = 1) ?(max_s = infinity) ?domains ~seconds steps =
  let lats = Array.make (List.length steps) [] in
  let cal = Calib.create ?domains () in
  let busy = ref 0.0 in
  let i = ref 0 in
  let t0 = now () in
  let continue () =
    let unfinished = !i < min_ops || !i mod granule <> 0 in
    match ops with
    | Some n -> !i < n && (unfinished || now () -. t0 < max_s)
    | None -> unfinished || !busy < seconds
  in
  let steps = Array.of_list steps in
  let k = Array.length steps in
  while continue () do
    (* rotate which op goes first, so none always runs on state the
       previous one warmed *)
    let round = ref 0.0 in
    for r = 0 to k - 1 do
      let j = (r + !i) mod k in
      let dt = steps.(j) !i in
      if j = 0 then busy := !busy +. dt;
      round := !round +. dt;
      lats.(j) <- dt :: lats.(j)
    done;
    incr i;
    Calib.after cal ~next:!i !round
  done;
  let factors = Calib.factors cal ~n:!i in
  ( Array.map
      (fun l ->
        let raw = Array.of_list (List.rev l) in
        { raw; scaled = Array.mapi (fun j dt -> dt /. factors.(j)) raw })
      lats,
    Calib.mean cal )

let closed_loop ?ops ?min_ops ?granule ?max_s ?domains ~seconds op =
  let l, slowness = lockstep ?ops ?min_ops ?granule ?max_s ?domains ~seconds [ op ] in
  (l.(0), slowness)

(* A fixed amount of work for a run of [seconds]: [per_s] ops (or blocks)
   per second, about what the reference machine does in that time, and at
   least [min].  Both commits of a comparison then do the same work, so
   the mix, the counts and the memory use are the same. *)
let fixed_count ~per_s ~min seconds = max min (int_of_float (Float.round (seconds *. per_s)))

(* On a machine much slower than the reference that fixed work would take
   too long, so a loop of it stops early, on a block boundary, once it has
   run for [cap] (ops and calibration).  It stays at the fixed work up to
   about twice the reference time. *)
let cap seconds = 2.5 *. seconds

let sum = Array.fold_left ( +. ) 0.0
let ms s = s *. 1000.0

(* Allocation inside the untraced ops' timed calls.  The Gc counters are
   read just outside each timed call, so the correctness check, the traced
   twin of the op and the references do not count. *)
type alloc = { mutable words : float; mutable majors : int; mutable calls : int }

let alloc () = { words = 0.0; majors = 0; calls = 0 }

(* Runs [f] and returns its outcome and latency; an untraced call also adds
   its Gc counter changes to [a]. *)
let timed a tr f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let r = try Ok (f ()) with e -> Error e in
  let dt = now () -. t0 in
  if not tr.Tracer.on then begin
    let g1 = Gc.quick_stat () in
    a.words <- a.words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    a.majors <- a.majors + (g1.Gc.major_collections - g0.Gc.major_collections);
    a.calls <- a.calls + 1
  end;
  (r, dt)

let runtime_metrics a =
  let per_op x = x /. float_of_int (max 1 a.calls) in
  [
    ("runtime.minor_words_per_op", per_op a.words, "words");
    ("runtime.major_collections", 1000.0 *. per_op (float_of_int a.majors), "count/kop");
  ]

(* Latency and throughput figures of one timed loop: as measured, under the
   workload's own names, and scaled to the reference speed under the names
   BENCHMARK.json uses for every workload. *)
let latency_metrics ~prefix ~throughput:(tp_name, tp_unit) ~items ~slowness (lat : timing) =
  let figures l =
    let t = Measure.tail (Array.map ms l) in
    (Measure.median (Array.map ms l), t, float_of_int items /. sum l)
  in
  let p50, t, tp = figures lat.raw in
  let sp50, st, stp = figures lat.scaled in
  ( [
      (prefix ^ "_ms_p50", p50, "ms");
      (prefix ^ "_ms_tail", t.Measure.value, "ms");
      (tp_name, tp, tp_unit);
      ("latency_ms_p50", sp50, "ms");
      ("latency_ms_tail", st.Measure.value, "ms");
      ("throughput_per_s", stp, "1/s");
    ],
    [
      (prefix ^ "_samples", Json.Int t.Measure.samples);
      (prefix ^ "_tail_pct", Json.Num t.Measure.pct);
      (prefix ^ "_tail_beyond", Json.Int t.Measure.beyond);
      (prefix ^ "_tail_resolved", Json.Bool t.Measure.resolved);
      ("slowness", Json.Num slowness);
    ] )

let setup_metrics (raw, scaled) = [ ("setup_s", scaled, "s"); ("setup_wall_s", raw, "s") ]

let p2v_counters (c : Rig.compiled) =
  let tr = c.Rig.translation in
  let m = tr.Prairie_p2v.Translate.merge in
  [
    ("p2v.trans_rules", Prairie_p2v.Merge.trans_rule_count m);
    ("p2v.impl_rules", Prairie_p2v.Merge.impl_rule_count m);
    ("p2v.dead_trans", List.length tr.Prairie_p2v.Translate.dead_trans);
  ]

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Span-derived per-layer times, in ms per call. *)
let layer_times tr names = List.map (fun n -> (n ^ "_ms", Tracer.self_ms tr n, "ms")) names

let setup_layers =
  [ "ruledsl.parse"; "ruledsl.elaborate"; "p2v.translate"; "p2v.enforcers"; "p2v.merge"; "p2v.classify" ]

let overhead_metrics ~untraced ~traced ~ops =
  [
    ("trace.overhead_frac", (traced -. untraced) /. untraced, "fraction");
    ("trace.overhead_ms_per_op", ms (traced -. untraced) /. float_of_int (max 1 ops), "ms");
  ]

let env_info () =
  [
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
    ("ocaml", Json.Str Sys.ocaml_version);
    ( "PRAIRIE_SEARCH_JOBS",
      Json.Str (Option.value ~default:"" (Sys.getenv_opt "PRAIRIE_SEARCH_JOBS")) );
  ]

let inputs_digest text = Json.Str (Digest.to_hex (Digest.string text))

(* ------------------------------------------------------------------ *)
(* deep-e3e4 and sql-ordered: one query optimization per op            *)
(* ------------------------------------------------------------------ *)

type opt_input = {
  label : string;
  compiled : Rig.compiled;
  query : Rig.query;  (** what the op receives: a tree or SQL text *)
  tree : Prairie.Expr.t;  (** the same query as a tree, for the references *)
  light : bool;  (** included in the codegen-overhead comparison *)
}

let search_counters =
  [
    "volcano.groups"; "volcano.groups_merged"; "volcano.lexprs"; "volcano.lexpr_dups";
    "volcano.trans_apps"; "volcano.impl_firings"; "volcano.enforcer_firings";
    "volcano.winner_probes"; "volcano.winner_hits"; "volcano.pruned";
  ]

let add_search_counts tbl (o : Rig.outcome) =
  let st = Search.stats o.Rig.search in
  let bump k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  bump "volcano.groups" (Search.group_count o.Rig.search);
  bump "volcano.groups_merged" st.Stats.groups_merged;
  bump "volcano.lexprs" st.Stats.lexprs_created;
  bump "volcano.lexpr_dups" st.Stats.lexpr_duplicates;
  bump "volcano.trans_apps" st.Stats.trans_applications;
  bump "volcano.impl_firings" st.Stats.impl_firings;
  bump "volcano.enforcer_firings" st.Stats.enforcer_firings;
  bump "volcano.winner_probes" st.Stats.winner_probes;
  bump "volcano.winner_hits" st.Stats.winner_hits;
  bump "volcano.pruned" st.Stats.pruned

(* P2V-generated over hand-coded latency on the same queries: per query the
   median of [reps] alternating runs of each, summed over at most
   [codegen_queries] light inputs spread evenly over the list. *)
let codegen_queries = 32

let codegen_overhead inputs =
  let reps = 3 in
  let light = Array.of_list (List.filter (fun i -> i.light) (Array.to_list inputs)) in
  let step = max 1 (Array.length light / codegen_queries) in
  let inputs = Array.of_list (List.filteri (fun k _ -> k mod step = 0) (Array.to_list light)) in
  let volcano = Hashtbl.create 8 in
  let hand (c : Rig.compiled) =
    match Hashtbl.find_opt volcano c.Rig.opt.Opt.name with
    | Some o -> o
    | None ->
      let o = Opt.oodb_volcano c.Rig.catalog in
      Hashtbl.add volcano c.Rig.opt.Opt.name o;
      o
  in
  let time f =
    let t0 = now () in
    ignore (f ());
    now () -. t0
  in
  let p2v, hc =
    Array.fold_left
      (fun (p, h) i ->
        let o = hand i.compiled in
        let tp = Array.make reps 0.0 and th = Array.make reps 0.0 in
        for r = 0 to reps - 1 do
          tp.(r) <- time (fun () -> Opt.optimize i.compiled.Rig.opt i.tree);
          th.(r) <- time (fun () -> Opt.optimize o i.tree)
        done;
        (p +. Measure.median tp, h +. Measure.median th))
      (0.0, 0.0) inputs
  in
  if hc = 0.0 then 0.0 else p2v /. hc

let optimize_workload cfg ~setup_s ~(setup : Rig.setup) ~setup_tracer
    ~(inputs : opt_input array) ~(schedule : int array) ~block ~counted_blocks ?blocks_per_s ~info () =
  let tally = Measure.tally () in
  (* gate: each distinct input's references, computed after its first
     search and outside the measured time *)
  let references = Array.make (Array.length inputs) None in
  let reference k =
    match references.(k) with
    | Some r -> r
    | None ->
      let r = Gate.reference inputs.(k).compiled inputs.(k).tree in
      references.(k) <- Some r;
      r
  in
  (* deterministic counters: the first search of each distinct input in
     the first [counted_blocks] blocks, which every run executes *)
  let counted_ops = counted_blocks * block in
  let counts = Hashtbl.create 16 in
  let counted = Array.make (Array.length inputs) false in
  let gc = alloc () in
  let op tr i =
    let k = schedule.(i mod Array.length schedule) in
    let input = inputs.(k) in
    Tracer.set_op tr i;
    let outcome, dt =
      timed gc tr (fun () -> Tracer.span tr "op" (fun () -> Rig.optimize tr input.compiled input.query))
    in
    Measure.record tally
      (match outcome with
      | Ok o ->
        if i < counted_ops && not counted.(k) then begin
          counted.(k) <- true;
          add_search_counts counts o
        end;
        Gate.check ~what:input.label (reference k) o.Rig.cost
      | Error e -> Error (input.label ^ ": raised " ^ Printexc.to_string e));
    dt
  in
  (* a fixed number of blocks where [blocks_per_s] is given, else blocks
     until the seconds are used *)
  let loop seconds steps =
    match blocks_per_s with
    | Some per_s ->
      let ops = block * fixed_count ~per_s ~min:counted_blocks seconds in
      lockstep ~ops ~min_ops:counted_ops ~granule:block ~max_s:(cap cfg.seconds) ~seconds:0.0 steps
    | None -> lockstep ~min_ops:counted_ops ~granule:block ~seconds steps
  in
  let (lat, slowness), traced_tracer, extra =
    if not cfg.trace then
      let l, slowness = loop cfg.seconds [ op Tracer.off ] in
      ((l.(0), slowness), Tracer.off, [])
    else begin
      let tr = setup_tracer in
      Array.iter (Rig.p2v_pieces tr) setup.Rig.compiled;
      let l, slowness = loop (cfg.seconds /. 2.0) [ op Tracer.off; op tr ] in
      let untraced = l.(0).raw and traced = l.(1).raw in
      let n = Array.length untraced in
      ( (l.(0), slowness),
        tr,
        runtime_metrics gc
        @ overhead_metrics ~untraced:(sum untraced) ~traced:(sum traced) ~ops:n
        @ layer_times tr
            (setup_layers
            @ [ "query.compile"; "optimizers.prepare"; "volcano.memo_insert";
                "volcano.explore"; "volcano.cost" ])
        @ [ ("p2v.codegen_overhead", codegen_overhead inputs, "ratio") ] )
    end
  in
  let counters =
    p2v_counters setup.Rig.compiled.(0)
    @ List.map (fun k -> (k, Option.value ~default:0 (Hashtbl.find_opt counts k))) search_counters
  in
  let c k = List.assoc k counters in
  let ops = Array.length lat.raw in
  let lat_metrics, lat_info =
    latency_metrics ~prefix:"opt" ~throughput:("opt_qps", "queries/s") ~items:ops ~slowness lat
  in
  let layers =
    if not cfg.trace then []
    else
      extra
      @ [
          ("volcano.dup_frac",
           ratio (c "volcano.lexpr_dups") (c "volcano.lexprs" + c "volcano.lexpr_dups"), "fraction");
          ("volcano.apps_per_new_lexpr", ratio (c "volcano.trans_apps") (c "volcano.lexprs"), "ratio");
          ("volcano.winner_hit_ratio", ratio (c "volcano.winner_hits") (c "volcano.winner_probes"), "ratio");
        ]
  in
  {
    metrics = setup_metrics setup_s @ lat_metrics @ layers;
    counters;
    info =
      info @ lat_info
      @ [
          ("distinct_inputs", Json.Int (Array.length inputs));
          ( "naive_checked",
            Json.Int
              (Array.fold_left
                 (fun n r -> match r with Some { Gate.naive = Some _; _ } -> n + 1 | _ -> n)
                 0 references) );
        ];
    tally;
    tracer = traced_tracer;
  }

let deep cfg =
  let d = Inputs.deep cfg.seed in
  let tracer = Tracer.create ~on:cfg.trace in
  let setup_s, setup = timed_setup tracer (fun tr -> Rig.setup tr cfg.rules d.Inputs.catalogs) in
  let keys = ref [] in
  let index = Hashtbl.create 128 in
  let schedule =
    Array.map
      (fun (it : Inputs.deep_item) ->
        match Hashtbl.find_opt index it with
        | Some k -> k
        | None ->
          let k = Hashtbl.length index in
          Hashtbl.add index it k;
          keys := it :: !keys;
          k)
      d.Inputs.schedule
  in
  let inputs =
    Array.of_list
      (List.rev_map
         (fun (it : Inputs.deep_item) ->
           let compiled = setup.Rig.compiled.(it.Inputs.cat) in
           let tree =
             W.Expressions.build (W.Queries.family it.Inputs.query) compiled.Rig.catalog
               ~joins:it.Inputs.joins
           in
           {
             label =
               Printf.sprintf "%s/%dj/cat%d" (W.Queries.name it.Inputs.query) it.Inputs.joins
                 it.Inputs.cat;
             compiled;
             query = Rig.Expr tree;
             tree;
             light = it.Inputs.joins < 3 || W.Queries.family it.Inputs.query <> W.Expressions.E4;
           })
         !keys)
  in
  optimize_workload cfg ~setup_s ~setup ~setup_tracer:tracer ~inputs ~schedule
    ~block:d.Inputs.block ~counted_blocks:3 ~blocks_per_s:0.35
    ~info:
      [
        ("mix",
         Json.Str
           (Printf.sprintf
              "blocks of %d ops: %d rounds of {Q5,Q6 at 2 and 3 joins; Q7,Q8 at 2 joins} round-robin over %d seeded catalog pairs, plus one 3-join E4 (the paper's Q7/Q8 instances, seeds 101-505, fixed order)"
              d.Inputs.block Inputs.deep_rounds Inputs.deep_pairs));
        ("inputs_digest", inputs_digest (Inputs.describe_deep d));
      ]
    ()

let sql cfg =
  let s = Inputs.sql cfg.seed in
  let tracer = Tracer.create ~on:cfg.trace in
  let setup_s, setup = timed_setup tracer (fun tr -> Rig.setup tr cfg.rules s.Inputs.catalogs) in
  let inputs =
    Array.mapi
      (fun i (q : Inputs.sql_item) ->
        let compiled = setup.Rig.compiled.(q.Inputs.cat) in
        {
          label = Printf.sprintf "sql#%d" i;
          compiled;
          query = Rig.Sql q.Inputs.text;
          tree = Prairie_query.Query.compile_string compiled.Rig.catalog q.Inputs.text;
          light = true;
        })
      s.Inputs.queries
  in
  optimize_workload cfg ~setup_s ~setup ~setup_tracer:tracer ~inputs
    ~schedule:(Array.init (Array.length inputs) Fun.id)
    ~block:(Array.length inputs) ~counted_blocks:1
    ~info:
      [
        ("mix",
         Json.Str
           (Printf.sprintf
              "%d SQL queries over %d catalogs: %d for each of 1-4 classes x filter or not x ORDER BY or not"
              (Array.length inputs) Inputs.sql_catalogs Inputs.sql_per_stratum));
        ("inputs_digest", inputs_digest (Inputs.describe_sql s));
      ]
    ()

(* ------------------------------------------------------------------ *)
(* serve-mix: batches through Optimizers.serve with a shared cache     *)
(* ------------------------------------------------------------------ *)

let serve_jobs = 2

type slot = {
  mutable version : int;
  mutable epoch : int;
  mutable compiled : Rig.compiled;
  mutable requests : Opt.request array;
}

let materialize tr (c : Rig.compiled) templates =
  Array.map
    (function
      | Inputs.Family (f, joins) -> Opt.request (W.Expressions.build f c.Rig.catalog ~joins)
      | Inputs.Sql text ->
        Opt.request
          (Tracer.span tr "query.compile" (fun () ->
               Prairie_query.Query.compile_string c.Rig.catalog text)))
    templates

let slot_name k epoch = Printf.sprintf "oodb-prairie/s%de%d" k epoch

type pass = {
  latencies : timing;  (** per batch *)
  slowness : float;
  gc : alloc;  (** of the batches, when untraced *)
  requests : int;
  hits : int;  (** plan-cache lookups answered, this pass *)
  lookups : int;
  evictions : int;
  fresh : int;  (** requests that ran a search of their own *)
  duplicates : int;  (** requests sharing a fingerprint earlier in their batch *)
  names : string list;  (** rule-set names the pass served under *)
}

(* One pass from a fresh cache with every slot at its first statistics
   version, as an op to step and a function that sums the pass up.  Every
   [churn_every] batches one slot's statistics are redrawn (the next
   pre-drawn version): its rule set is recompiled and its requests rebuilt
   inside that batch's timed region. *)
let serve_pass (s : Inputs.serve) ~ast ~catalogs ~(base : Rig.compiled array) ~expected ~tally
    ~tr ?metrics ~jobs () =
  let cache = Plan_cache.create ~capacity:s.Inputs.cache_capacity () in
  let names = ref [] in
  let slots =
    Array.mapi
      (fun k (c : Rig.compiled) ->
        let compiled = { c with Rig.opt = { c.Rig.opt with Opt.name = slot_name k 0 } } in
        names := compiled.Rig.opt.Opt.name :: !names;
        { version = 0; epoch = 0; compiled; requests = materialize Tracer.off compiled s.Inputs.templates })
      base
  in
  let requests = ref 0 and fresh = ref 0 and dups = ref 0 in
  let gc = alloc () in
  let op i =
    let slot_k, templates = s.Inputs.batches.(i mod Array.length s.Inputs.batches) in
    Tracer.set_op tr i;
    let served, dt =
      timed gc tr (fun () ->
          Tracer.span tr "op" (fun () ->
               if i > 0 && i mod s.Inputs.churn_every = 0 then begin
                 let k = i / s.Inputs.churn_every mod Array.length slots in
                 let sl = slots.(k) in
                 sl.version <- (sl.version + 1) mod Array.length catalogs.(k);
                 sl.epoch <- sl.epoch + 1;
                 sl.compiled <-
                   Rig.compile tr ~name:(slot_name k sl.epoch) ast catalogs.(k).(sl.version);
                 names := sl.compiled.Rig.opt.Opt.name :: !names;
                 sl.requests <- materialize tr sl.compiled s.Inputs.templates
               end;
               let sl = slots.(slot_k) in
               let batch = Array.to_list (Array.map (fun t -> sl.requests.(t)) templates) in
               Tracer.span tr "service.serve" (fun () ->
                   Opt.serve ~jobs ~search_jobs:1 ~cache ?metrics sl.compiled.Rig.opt batch)))
    in
    let sl = slots.(slot_k) in
    (match served with
    | Error e ->
      Array.iter (fun _ -> Measure.record tally (Error ("serve raised " ^ Printexc.to_string e))) templates
    | Ok served ->
      let seen = Hashtbl.create 16 in
      List.iteri
        (fun j (r : Opt.served) ->
          let t = templates.(j) in
          incr requests;
          if not r.Opt.cache_hit then incr fresh;
          if Hashtbl.mem seen r.Opt.fingerprint then incr dups
          else Hashtbl.add seen r.Opt.fingerprint ();
          let fp, (ref_ : Gate.reference) = expected.(slot_k).(sl.version).(t) in
          let what = Printf.sprintf "slot%d/v%d/%s" slot_k sl.version (Inputs.describe_template s.Inputs.templates.(t)) in
          Measure.record tally
            (if Rig.plan_fingerprint r.Opt.plan <> fp then Error (what ^ ": served plan differs from a direct optimize")
             else Gate.check ~what ref_ r.Opt.cost))
        served);
    dt
  in
  let finish (latencies, slowness) =
    let st = Plan_cache.stats cache in
    {
      latencies;
      slowness;
      gc;
      requests = !requests;
      hits = st.Plan_cache.hits;
      lookups = st.Plan_cache.hits + st.Plan_cache.misses;
      evictions = st.Plan_cache.evictions;
      fresh = !fresh;
      duplicates = !dups;
      names = !names;
    }
  in
  (op, finish)

(* prairie_serve_search_seconds, merged over every rule-set label of a
   pass, as a bucket-interpolated median in ms. *)
let merged_search_p50 m names =
  let merged = Hashtbl.create 32 in
  List.iter
    (fun name ->
      let h = Metrics.histogram m ~labels:[ ("ruleset", name) ] "prairie_serve_search_seconds" in
      List.iter
        (fun (ub, n) -> Hashtbl.replace merged ub (n + Option.value ~default:0 (Hashtbl.find_opt merged ub)))
        (Metrics.buckets h))
    (List.sort_uniq compare names);
  let bs = List.sort compare (Hashtbl.fold (fun ub n a -> (ub, n) :: a) merged []) in
  let total = match List.rev bs with (_, n) :: _ -> n | [] -> 0 in
  if total = 0 then 0.0
  else
    let target = 0.5 *. float_of_int total in
    let rec go lo prev = function
      | [] -> lo
      | (ub, n) :: rest ->
        if float_of_int n >= target then
          if ub = infinity then lo
          else lo +. ((ub -. lo) *. (target -. float_of_int prev) /. float_of_int (max 1 (n - prev)))
        else go (if ub = infinity then lo else ub) n rest
    in
    ms (go 0.0 0 bs)

let worker_imbalance m names ~jobs =
  let per_worker =
    List.init jobs (fun w ->
        List.fold_left
          (fun acc name ->
            acc
            + Metrics.counter_value
                (Metrics.counter m
                   ~labels:[ ("ruleset", name); ("worker", string_of_int w) ]
                   "prairie_pool_worker_jobs_total"))
          0 (List.sort_uniq compare names))
  in
  let mx = List.fold_left max 0 per_worker and mn = List.fold_left min max_int per_worker in
  float_of_int mx /. float_of_int (max 1 mn)

let replay_batches = 48

let serve_batches_per_s = 170.0

let serve cfg =
  let s = Inputs.serve cfg.seed in
  let tracer = Tracer.create ~on:cfg.trace in
  let flat = Array.concat (Array.to_list s.Inputs.slots) in
  let setup_s, (setup, catalogs) =
    timed_setup tracer (fun tr ->
        (* every slot's statistics versions are catalogs; the first version
           of each slot gets its rule set compiled now *)
        let setup = Rig.setup tr cfg.rules flat in
        let nv = Inputs.serve_versions in
        (setup, Array.init (Array.length s.Inputs.slots) (fun k ->
             Array.init nv (fun v -> setup.Rig.compiled.((k * nv) + v).Rig.catalog))))
  in
  let nv = Inputs.serve_versions in
  let base = Array.init (Array.length s.Inputs.slots) (fun k -> setup.Rig.compiled.(k * nv)) in
  (* gate: a direct optimize and the hand-coded reference for every slot,
     statistics version and request shape *)
  let expected =
    Array.mapi
      (fun k versions ->
        Array.mapi
          (fun v _ ->
            let c = setup.Rig.compiled.((k * nv) + v) in
            Array.map
              (fun (r : Opt.request) ->
                let direct = Opt.optimize c.Rig.opt r.Opt.expr in
                (Rig.plan_fingerprint direct.Opt.plan, Gate.reference c r.Opt.expr))
              (materialize Tracer.off c s.Inputs.templates))
          versions)
      s.Inputs.slots
  in
  let gate_tally = Measure.tally () in
  (* deterministic counters: a sequential replay of the first batches *)
  let replay =
    let op, finish =
      serve_pass s ~ast:setup.Rig.oodb_ast ~catalogs ~base ~expected ~tally:gate_tally
        ~tr:Tracer.off ~jobs:1 ()
    in
    finish (closed_loop ~ops:replay_batches ~seconds:0.0 op)
  in
  let counters =
    p2v_counters setup.Rig.compiled.(0)
    @ [
        ("service.requests", replay.requests);
        ("service.cache_hits", replay.hits);
        ("service.cache_misses", replay.lookups - replay.hits);
        ("service.cache_evictions", replay.evictions);
        ("service.fresh_searches", replay.fresh);
        ("service.batch_duplicates", replay.duplicates);
      ]
  in
  let tally = Measure.tally () in
  let pass ~tr ?metrics () =
    serve_pass s ~ast:setup.Rig.oodb_ast ~catalogs ~base ~expected ~tally ~tr ?metrics
      ~jobs:serve_jobs ()
  in
  let batches = fixed_count ~per_s:serve_batches_per_s ~min:3 cfg.seconds in
  let main, layers =
    if not cfg.trace then begin
      let op, finish = pass ~tr:Tracer.off () in
      (finish (closed_loop ~ops:batches ~max_s:(cap cfg.seconds) ~domains:serve_jobs ~seconds:0.0 op), [])
    end
    else begin
      Array.iter (Rig.p2v_pieces tracer) base;
      let m = Metrics.create () in
      (* untraced, spans, spans + metrics registry: three passes in lockstep *)
      let passes = [ pass ~tr:Tracer.off (); pass ~tr:tracer (); pass ~tr:tracer ~metrics:m () ] in
      let l, slowness =
        lockstep ~ops:(batches / 3) ~max_s:(cap cfg.seconds) ~domains:serve_jobs ~seconds:0.0
          (List.map fst passes)
      in
      let a, b, c =
        match List.mapi (fun j (_, finish) -> finish (l.(j), slowness)) passes with
        | [ a; b; c ] -> (a, b, c)
        | _ -> assert false
      in
      let n = Array.length a.latencies.raw in
      (* prepare + fingerprint of every request shape, outside any batch *)
      Array.iter
        (fun (cc : Rig.compiled) ->
          Array.iter
            (fun (r : Opt.request) ->
              let e, required = cc.Rig.opt.Opt.prepare r.Opt.expr in
              ignore
                (Tracer.span tracer "service.fingerprint" (fun () ->
                     Prairie.Expr.fingerprint ~required e)))
            (materialize Tracer.off cc s.Inputs.templates))
        base;
      let ta = sum a.latencies.raw and tb = sum b.latencies.raw and tc = sum c.latencies.raw in
      ( a,
        runtime_metrics a.gc
        @ overhead_metrics ~untraced:ta ~traced:tb ~ops:n
        @ [
            ("metrics.overhead_frac", (tc -. tb) /. ta, "fraction");
            ("service.search_ms_p50", merged_search_p50 m c.names, "ms");
            ("service.worker_jobs_imbalance", worker_imbalance m c.names ~jobs:serve_jobs, "ratio");
          ]
        @ layer_times tracer (setup_layers @ [ "query.compile"; "service.serve"; "service.fingerprint" ]) )
    end
  in
  let lat_metrics, lat_info =
    latency_metrics ~prefix:"serve_batch" ~throughput:("serve_rps", "requests/s")
      ~items:main.requests ~slowness:main.slowness main.latencies
  in
  let hit_share = ratio main.hits main.lookups in
  let c k = List.assoc k counters in
  let layers =
    if not cfg.trace then []
    else
      layers
      @ [
          ("service.cache_hit_ratio", hit_share, "ratio");
          ("service.dedup_frac", ratio (c "service.batch_duplicates") (c "service.requests"), "fraction");
        ]
  in
  {
    metrics = setup_metrics setup_s @ lat_metrics @ layers;
    counters;
    info =
      [
        ("mix",
         Json.Str
           (Printf.sprintf
              "batches of %d to one of %d catalog slots, Zipf(1) over %d request shapes (E1 and E3 at 1-2 joins, E2 and E4 at 1 join, 9 SQL); a slot's statistics redrawn every %d batches; cache %d entries; jobs %d"
              s.Inputs.batch_size (Array.length s.Inputs.slots) (Array.length s.Inputs.templates)
              s.Inputs.churn_every s.Inputs.cache_capacity serve_jobs));
        ("inputs_digest", inputs_digest (Inputs.describe_serve s));
        ("batches", Json.Int (Array.length main.latencies.raw));
        ("requests", Json.Int main.requests);
        ("cache_hit_share", Json.Num hit_share);
        ("replay_failures", Json.Int gate_tally.Measure.failed);
        ("known_defect", Gate.known_defect setup.Rig.oodb_ast);
      ]
      @ lat_info;
    tally =
      (* failures seen by the replay count against the run too *)
      {
        Measure.attempted = tally.Measure.attempted + gate_tally.Measure.attempted;
        failed = tally.Measure.failed + gate_tally.Measure.failed;
        first_failures = gate_tally.Measure.first_failures @ tally.Measure.first_failures };
    tracer;
  }

(* ------------------------------------------------------------------ *)
(* rulecheck: the rule author's loop                                   *)
(* ------------------------------------------------------------------ *)

let rulecheck cfg =
  let tracer = Tracer.create ~on:cfg.trace in
  let spec = Inputs.spec ~classes:4 ~indexed:true (Prairie_util.Rng.create cfg.seed) in
  let setup_s, setup = timed_setup tracer (fun tr -> Rig.setup tr cfg.rules [| spec |]) in
  let helpers = Prairie_algebra.Helpers.env setup.Rig.compiled.(0).Rig.catalog in
  let docs =
    Inputs.rulecheck cfg.seed
      ~files:[ ("open_oodb", cfg.rules.Rig.oodb); ("relational", cfg.rules.Rig.relational) ]
  in
  (* each document's first verdict; later verdicts must repeat it *)
  let first = Array.make (Array.length docs) None in
  (* deterministic counters: first verdicts of the first [counted_ops]
     documents, which every run executes *)
  let counted_ops = 24 in
  (* whole passes over the documents, one per 20 seconds, so every run
     checks the same documents *)
  let verdicts seconds = Array.length docs * fixed_count ~per_s:0.05 ~min:1 seconds in
  let lint_d = ref 0 and analysis_d = ref 0 and cases = ref 0 and cex = ref 0 in
  let tally = Measure.tally () in
  let gc = alloc () in
  let op tr i =
    let k = i mod Array.length docs in
    let d = docs.(k) in
    Tracer.set_op tr i;
    let v, dt =
      timed gc tr (fun () -> Tracer.span tr "op" (fun () -> Rig.verdict tr ~helpers d.Inputs.text))
    in
    Measure.record tally
      (match v with
      | Error e -> Error (d.Inputs.label ^ ": raised " ^ Printexc.to_string e)
      | Ok v -> (
        match first.(k) with
        | Some codes when codes <> v.Rig.codes ->
          Error (d.Inputs.label ^ ": verdict differs from its first run")
        | Some _ -> Gate.check_verdict ~what:d.Inputs.label d.Inputs.expect v
        | None ->
          first.(k) <- Some v.Rig.codes;
          if i < counted_ops then begin
            lint_d := !lint_d + v.Rig.lint_diags;
            analysis_d := !analysis_d + v.Rig.analysis_diags;
            cases := !cases + v.Rig.verify_cases;
            cex := !cex + v.Rig.verify_counterexamples
          end;
          Gate.check_verdict ~what:d.Inputs.label d.Inputs.expect v));
    dt
  in
  let (lat, slowness), layers =
    if not cfg.trace then
      (closed_loop ~ops:(verdicts cfg.seconds) ~min_ops:counted_ops ~max_s:(cap cfg.seconds)
         ~seconds:0.0 (op Tracer.off), [])
    else begin
      Array.iter (Rig.p2v_pieces tracer) setup.Rig.compiled;
      let l, slowness =
        lockstep ~ops:(verdicts (cfg.seconds /. 2.0)) ~min_ops:counted_ops ~max_s:(cap cfg.seconds)
          ~seconds:0.0 [ op Tracer.off; op tracer ]
      in
      let untraced = l.(0).raw and traced = l.(1).raw in
      let n = Array.length untraced in
      ( (l.(0), slowness),
        runtime_metrics gc
        @ overhead_metrics ~untraced:(sum untraced) ~traced:(sum traced) ~ops:n
        @ layer_times tracer (setup_layers @ [ "lint.check"; "analysis.run"; "verify.run" ]) )
    end
  in
  let counters =
    p2v_counters setup.Rig.compiled.(0)
    @ [
        ("lint.diagnostics", !lint_d);
        ("analysis.diagnostics", !analysis_d);
        ("verify.cases", !cases);
        ("verify.counterexamples", !cex);
      ]
  in
  let ops = Array.length lat.raw in
  let lat_metrics, lat_info =
    latency_metrics ~prefix:"verdict" ~throughput:("verdict_per_s", "verdicts/s") ~items:ops
      ~slowness lat
  in
  {
    metrics = setup_metrics setup_s @ lat_metrics @ layers;
    counters;
    info =
      [
        ("mix",
         Json.Str
           (Printf.sprintf
              "%d documents: every mutant of both shipped rule files (P008, P301, P007, P003, P000 by construction), each followed by its clean file; verify budget %d seed %d"
              (Array.length docs) Rig.verify_config.Prairie_verify.Verify.budget
              Rig.verify_config.Prairie_verify.Verify.seed));
        ("inputs_digest", inputs_digest (Inputs.describe_rulecheck docs));
        ("documents", Json.Int (Array.length docs));
      ]
      @ lat_info;
    tally;
    tracer;
  }

(* Counters and ratios of layers a workload may not exercise: such a
   workload reports 0 for them. *)
let not_exercised =
  List.map (fun k -> (k, "count"))
    (search_counters
    @ [ "service.requests"; "service.cache_hits"; "service.cache_misses";
        "service.cache_evictions"; "service.fresh_searches"; "service.batch_duplicates";
        "lint.diagnostics"; "analysis.diagnostics"; "verify.cases"; "verify.counterexamples" ])
  @ [
      ("volcano.dup_frac", "fraction"); ("volcano.apps_per_new_lexpr", "ratio");
      ("volcano.winner_hit_ratio", "ratio"); ("p2v.codegen_overhead", "ratio");
      ("service.cache_hit_ratio", "ratio"); ("service.dedup_frac", "fraction");
      ("service.worker_jobs_imbalance", "ratio");
    ]

let all = [ ("deep-e3e4", deep); ("sql-ordered", sql); ("serve-mix", serve); ("rulecheck", rulecheck) ]
