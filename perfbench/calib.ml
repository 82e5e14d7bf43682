(* Machine-speed calibration.

   The machine a run lands on may be slower or faster than usual, for
   seconds or minutes at a time, and such spells move every timing of a run
   by tens of percent.  The timed loops therefore interleave a fixed piece
   of work that no code under test runs (hash-table, string and list work
   of the benchmark's own), about [share] of the ops' time, and record how
   long it takes.  Over stretches of about [segment_s] of op time, the ratio
   of its time to [reference_unit_s] is the machine's slowness factor, and
   dividing an op's latency by the factor of its stretch gives the latency
   at the reference speed.  No code under test runs in the unit, so a
   change to that code shows in the scaled figures; the unit's speed
   depends only a little on the caches and heap the ops leave behind. *)

let now = Unix.gettimeofday

(* One unit of calibration work: build a hash table of string keys and
   list values, probe it, sort a list.  Its garbage dies young, and
   whatever major-GC work it is charged for the heap the code under test
   left was measured at under 1% of its time. *)
let work () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 3999 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 5003)) [ i; i + 1 ]
  done;
  let s = ref 0 in
  for i = 0 to 3999 do
    match Hashtbl.find_opt h (string_of_int i) with
    | Some l -> s := !s + List.length l
    | None -> ()
  done;
  let l = List.init 2000 (fun i -> i * 31 mod 977) in
  !s + List.length (List.sort compare l)

(* The unit's time on the reference machine (2 vCPUs, OCaml 5.1.1, release
   build), interleaved with optimizer work as the timed loops run it: run
   alone, and run on two domains at once. *)
let reference_unit_s = 0.0030
let reference_parallel_unit_s = 0.0044

(* Units per domain in one parallel burst, so the domain spawn is small
   beside it. *)
let burst = 4

let share = 0.10
let segment_s = 1.0

(* Calibration bookkeeping of one timed loop. *)
type t = {
  domains : int;  (** 1, or 2 for a loop whose ops run on two domains *)
  mutable op_s : float;  (** op time so far *)
  mutable cal_s : float;  (** calibration time so far *)
  mutable units : int;
  mutable seg_cal_s : float;  (** calibration time in the open stretch *)
  mutable seg_units : int;
  mutable seg_op_s : float;
  mutable factors : (int * float) list;
      (** per closed stretch, newest first: the first op index after it
          and its slowness factor *)
}

(* A loop whose ops keep both CPUs busy is calibrated on both: a burst of
   units runs on two domains at once, and counts as [burst] units. *)
let create ?(domains = 1) () =
  { domains; op_s = 0.0; cal_s = 0.0; units = 0; seg_cal_s = 0.0; seg_units = 0; seg_op_s = 0.0;
    factors = [] }

let reference t = if t.domains = 1 then reference_unit_s else reference_parallel_unit_s

let run_unit t =
  let units = if t.domains = 1 then 1 else burst in
  let repeat () =
    for _ = 1 to units do
      ignore (Sys.opaque_identity (work ()))
    done
  in
  let t0 = now () in
  if t.domains = 1 then repeat ()
  else begin
    let helpers = List.init (t.domains - 1) (fun _ -> Domain.spawn repeat) in
    repeat ();
    List.iter Domain.join helpers
  end;
  let dt = now () -. t0 in
  t.cal_s <- t.cal_s +. dt;
  t.units <- t.units + units;
  t.seg_cal_s <- t.seg_cal_s +. dt;
  t.seg_units <- t.seg_units + units

let close_segment t ~next =
  if t.seg_units = 0 then run_unit t;
  t.factors <-
    (next, t.seg_cal_s /. float_of_int t.seg_units /. reference t) :: t.factors;
  t.seg_cal_s <- 0.0;
  t.seg_units <- 0;
  t.seg_op_s <- 0.0

(* After ops up to index [next - 1] took [dt] together: calibrate until its
   time is back at [share] of the ops', and close the stretch once it holds
   [segment_s] of op time. *)
let after t ~next dt =
  t.op_s <- t.op_s +. dt;
  t.seg_op_s <- t.seg_op_s +. dt;
  while t.cal_s < share *. t.op_s do
    run_unit t
  done;
  if t.seg_op_s >= segment_s then close_segment t ~next

(* Slowness factor of every op index below [n]; closes the open stretch. *)
let factors t ~n =
  if t.seg_op_s > 0.0 || t.factors = [] then close_segment t ~next:n;
  let f = Array.make n 1.0 in
  let rec fill hi = function
    | [] -> ()
    | (_, factor) :: rest ->
      let lo = match rest with (next, _) :: _ -> next | [] -> 0 in
      for i = lo to min hi n - 1 do
        f.(i) <- factor
      done;
      fill lo rest
  in
  (match t.factors with (next, _) :: _ -> fill (max n next) t.factors | [] -> ());
  f

(* The loop's mean slowness factor. *)
let mean t = if t.units = 0 then 1.0 else t.cal_s /. float_of_int t.units /. reference t
