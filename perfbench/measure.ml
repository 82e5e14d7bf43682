(* Sample statistics: medians, nearest-rank percentiles and the tail rule,
   plus the pass/fail tally behind fail_frac. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let median samples =
  let n = Array.length samples in
  if n = 0 then nan
  else
    let s = sorted samples in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* 1-based nearest rank of percentile [p] among [n] samples. *)
let rank ~n p =
  let r = int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let percentile samples p =
  let n = Array.length samples in
  if n = 0 then nan else (sorted samples).(rank ~n p - 1)

(* The tail a timing reports is the highest of these percentiles that still
   has at least [min_beyond] samples above its rank.  A fixed ladder keeps
   the reported percentile the same across runs whose sample counts sit in
   the same band.  It stops at p95: on a shared 2-CPU machine the samples
   beyond it move with the host's load more than the calibration corrects
   (serve-mix's p99 batch rose 28% between a lightly and a heavily loaded
   set of runs), while p95 held. *)
let ladder = [ 95.0; 90.0; 75.0; 50.0 ]
let min_beyond = 10

let beyond ~n p = n - rank ~n p

let tail_percentile n =
  List.find_opt (fun p -> beyond ~n p >= min_beyond) ladder

type tail = {
  pct : float;  (** the percentile reported *)
  value : float;
  beyond : int;  (** samples strictly above its rank *)
  samples : int;
  resolved : bool;  (** false when too few samples: [pct] falls back to 50 *)
}

let tail samples =
  let n = Array.length samples in
  let pct, resolved =
    match tail_percentile n with Some p -> (p, true) | None -> (50.0, false)
  in
  {
    pct;
    value = percentile samples pct;
    beyond = (if n = 0 then 0 else beyond ~n pct);
    samples = n;
    resolved;
  }

(* ---------------- correctness tally ---------------- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable first_failures : string list;  (** newest first, at most 8 *)
}

let tally () = { attempted = 0; failed = 0; first_failures = [] }

let record t = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error why ->
    t.attempted <- t.attempted + 1;
    t.failed <- t.failed + 1;
    if List.length t.first_failures < 8 then
      t.first_failures <- why :: t.first_failures

let fail_frac t =
  if t.attempted = 0 then 0.0
  else float_of_int t.failed /. float_of_int t.attempted

(* Costs of the system and its reference must agree; they are computed by
   different rule sets, so allow rounding in the last places only. *)
let cost_agrees a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a)

let check_cost ~what ~reference got =
  if cost_agrees reference got then Ok ()
  else Error (Printf.sprintf "%s: cost %.17g, reference %.17g" what got reference)
