(* Spans recorded by the benchmark around its calls into each layer.

   A span has a name (the layer metric it feeds, e.g. "volcano.explore"),
   start and end times, the span that was open when it started, and the id
   of the op (query, batch or verdict) it belongs to.  Spans stay in memory
   until the run writes them out.  A disabled tracer calls the function
   straight through. *)

type span = {
  id : int;
  parent : int;  (** -1 for an op's root span *)
  op : int;
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  on : bool;
  mutable next_id : int;
  mutable open_ : int list;
  mutable op : int;
  mutable spans : span list;  (** newest first *)
}

let create ~on = { on; next_id = 0; open_ = []; op = -1; spans = [] }
let off = create ~on:false
let set_op t op = t.op <- op

let span t name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    t.open_ <- id :: t.open_;
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      t.open_ <- List.tl t.open_;
      t.spans <- { id; parent; op = t.op; name; t0; t1 } :: t.spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let spans t = List.rev t.spans

(* Self time: a span's duration minus the time its direct children cover
   (children of one parent never overlap: the benchmark is one client). *)
type layer = { calls : int; self_s : float; total_s : float }

let layers t =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
        Hashtbl.replace child_time s.parent (prev +. (s.t1 -. s.t0)))
    t.spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self =
        dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      let l =
        Option.value ~default:{ calls = 0; self_s = 0.0; total_s = 0.0 }
          (Hashtbl.find_opt acc s.name)
      in
      Hashtbl.replace acc s.name
        { calls = l.calls + 1; self_s = l.self_s +. self; total_s = l.total_s +. dur })
    t.spans;
  List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) acc [])

(* Mean self time per call of one layer, in ms; 0 when it never ran. *)
let self_ms t name =
  match List.assoc_opt name (layers t) with
  | Some l when l.calls > 0 -> l.self_s /. float_of_int l.calls *. 1000.0
  | _ -> 0.0

(* The spans of set-up and of the first [max_op] ops, as JSON (a long
   traced run records far more); self times are computed over all spans. *)
let max_op = 2000

let to_json t =
  let kept = List.filter (fun (s : span) -> s.op < max_op) (spans t) in
  let base = match kept with s :: _ -> s.t0 | [] -> 0.0 in
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("parent", Json.Int s.parent);
             ("op", Json.Int s.op);
             ("name", Json.Str s.name);
             ("start_us", Json.Num (Float.round ((s.t0 -. base) *. 1e6)));
             ("end_us", Json.Num (Float.round ((s.t1 -. base) *. 1e6)));
           ])
       kept)
