(* Shared machinery for the benchmark harness: timing, sweeps, table
   printing. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Search = Prairie_volcano.Search
module Stats = Prairie_volcano.Stats
module Memo = Prairie_volcano.Memo

let seeds = [ 101; 202; 303; 404; 505 ]
(* the paper varies base-class cardinalities five times per data point *)

let now () = Unix.gettimeofday ()

(* Milliseconds per optimization, averaged over enough repetitions to get a
   stable reading (the paper loops 3000 times because 1994 clocks were
   coarse; we adapt the repetition count to the measured cost). *)
let time_once f =
  let t0 = now () in
  f ();
  now () -. t0

let time_ms f =
  let first = time_once f in
  if first > 0.5 then first *. 1000.0
  else
    let reps = max 3 (min 200 (int_of_float (0.2 /. Float.max 1e-6 first))) in
    let t0 = now () in
    for _ = 1 to reps do
      f ()
    done;
    (now () -. t0) /. float_of_int reps *. 1000.0

(* ------------------------------------------------------------------ *)
(* Machine-readable results (--json FILE)                              *)
(*                                                                     *)
(* Sections push flat row objects into a run-global collector; the     *)
(* driver serializes them with run metadata at exit.  Rows are          *)
(* heterogeneous on purpose — each carries a "section" field and        *)
(* whatever measurements that section produces — so downstream tooling  *)
(* filters by section instead of depending on a rigid schema.          *)
(*                                                                     *)
(* Schema prairie-bench/2: per-section wall timings live in their own  *)
(* "walls" array instead of being interleaved with data rows as        *)
(* {"section":"wall"} objects (the v1 layout).  [load_baseline] reads  *)
(* both versions.                                                      *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type v =
    | Int of int
    | Float of float
    | Str of string
    | Obj of (string * v) list
    | Arr of v list

  (* The shortest "%.*g" rendering that reads back as the same float, so a
     dump compared against itself under [--check --tolerance 0] agrees
     bit for bit.  Integral values keep a ".0" so they parse back as
     floats, not ints. *)
  let float_repr f =
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || Float.equal (float_of_string s) f then s else go (p + 1)
    in
    let s = go 1 in
    if String.exists (function '.' | 'e' -> true | _ -> false) s then s
    else s ^ ".0"

  let rec output buf = function
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
    | Str s -> Buffer.add_string buf (Prairie_util.Json.quote s)
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (Prairie_util.Json.quote k);
          Buffer.add_char buf ':';
          output buf v)
        fields;
      Buffer.add_char buf '}'
    | Arr vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          output buf v)
        vs;
      Buffer.add_char buf ']'

  exception Parse_error of string

  (* A minimal recursive-descent parser for the subset this harness
     writes: objects, arrays, strings, numbers and null (non-finite
     floats serialize as null and parse back as nan).  true/false only
     ever appear as the strings we write, but accept the literals too. *)
  let parse (s : string) : v =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg =
      raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos))
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal lit value =
      let l = String.length lit in
      if !pos + l <= n && String.equal (String.sub s !pos l) lit then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "bad literal (wanted %s)" lit)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' ->
            incr pos;
            Buffer.contents buf
          | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' | '\\' | '/' ->
              Buffer.add_char buf s.[!pos];
              incr pos
            | 'n' ->
              Buffer.add_char buf '\n';
              incr pos
            | 't' ->
              Buffer.add_char buf '\t';
              incr pos
            | 'r' ->
              Buffer.add_char buf '\r';
              incr pos
            | 'b' ->
              Buffer.add_char buf '\b';
              incr pos
            | 'f' ->
              Buffer.add_char buf '\012';
              incr pos
            | 'u' ->
              if !pos + 4 >= n then fail "bad \\u escape";
              (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | None -> fail "bad \\u escape"
              | Some code ->
                (* the writer only \u-escapes control characters; anything
                   outside ASCII is not round-trippable here *)
                Buffer.add_char buf (if code < 128 then Char.chr code else '?');
                pos := !pos + 5)
            | _ -> fail "bad escape");
            go ()
          | c ->
            Buffer.add_char buf c;
            incr pos;
            go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              members ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            items := parse_value () :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              elements ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          Arr (List.rev !items)
        end
      | Some 't' -> literal "true" (Str "true")
      | Some 'f' -> literal "false" (Str "false")
      | Some 'n' -> literal "null" (Float nan)
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
end

let json_rows : Json.v list ref = ref []
let record_row fields = json_rows := Json.Obj fields :: !json_rows

let wall_rows : (string * float) list ref = ref []
let record_wall ~name ~wall_ms = wall_rows := (name, wall_ms) :: !wall_rows

let write_json file ~full ~sections =
  let buf = Buffer.create 4096 in
  Json.output buf
    (Json.Obj
       [
         ("schema", Json.Str "prairie-bench/2");
         ("full", Json.Str (if full then "true" else "false"));
         ("sections", Json.Arr (List.map (fun s -> Json.Str s) sections));
         ("rows", Json.Arr (List.rev !json_rows));
         ( "walls",
           Json.Arr
             (List.rev_map
                (fun (name, ms) ->
                  Json.Obj
                    [ ("name", Json.Str name); ("wall_ms", Json.Float ms) ])
                !wall_rows) );
       ]);
  Buffer.add_char buf '\n';
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Buffer.output_buffer oc buf)

(* -------- reading results back (--check BASELINE) ------------------ *)

type baseline = {
  b_schema : string;
  b_sections : string list;
  b_rows : (string * Json.v) list list;  (* v1 wall rows split out *)
  b_walls : (string * float) list;
}

let load_baseline file =
  let ic = open_in_bin file in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.parse s with
  | Json.Obj top ->
    let str k =
      match List.assoc_opt k top with Some (Json.Str s) -> Some s | _ -> None
    in
    let strings k =
      match List.assoc_opt k top with
      | Some (Json.Arr vs) ->
        List.filter_map (function Json.Str s -> Some s | _ -> None) vs
      | _ -> []
    in
    let objects k =
      match List.assoc_opt k top with
      | Some (Json.Arr vs) ->
        List.filter_map (function Json.Obj o -> Some o | _ -> None) vs
      | _ -> []
    in
    let wall_of o =
      let name =
        match List.assoc_opt "name" o with Some (Json.Str s) -> s | _ -> "?"
      in
      let ms =
        match List.assoc_opt "wall_ms" o with
        | Some (Json.Float f) -> f
        | Some (Json.Int i) -> float_of_int i
        | _ -> nan
      in
      (name, ms)
    in
    let is_wall o =
      match List.assoc_opt "section" o with
      | Some (Json.Str "wall") -> true
      | _ -> false
    in
    let v1_walls, data_rows = List.partition is_wall (objects "rows") in
    {
      b_schema = Option.value ~default:"prairie-bench/1" (str "schema");
      b_sections = strings "sections";
      b_rows = data_rows;
      b_walls = List.map wall_of v1_walls @ List.map wall_of (objects "walls");
    }
  | _ | (exception Json.Parse_error _) ->
    failwith (file ^ ": not a prairie-bench JSON document")

(* The stable identity of a row: its classification fields.  Everything
   else a row carries is a measurement. *)
let row_key fields =
  String.concat " "
    (List.filter_map
       (fun k ->
         match List.assoc_opt k fields with
         | Some (Json.Str s) -> Some (k ^ "=" ^ s)
         | Some (Json.Int i) -> Some (k ^ "=" ^ string_of_int i)
         | _ -> None)
       [ "section"; "query"; "name"; "joins" ])

let numeric = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let is_timing_field k =
  let l = String.length k in
  l > 3 && String.equal (String.sub k (l - 3) 3) "_ms"

(* Compare the current run against a baseline file: every deterministic
   numeric field (group counts, rule-match counts, costs — everything
   except the machine-dependent *_ms timings and wall rows) of every
   baseline row whose section ran this time must agree within a relative
   [tolerance].  Returns the mismatches, oldest first. *)
let check_against ~file ~tolerance =
  let baseline = load_baseline file in
  let current =
    List.filter_map
      (function Json.Obj o -> Some o | _ -> None)
      (List.rev !json_rows)
  in
  let section_of o =
    match List.assoc_opt "section" o with Some (Json.Str s) -> s | _ -> ""
  in
  let ran = List.sort_uniq compare (List.map section_of current) in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  List.iter
    (fun brow ->
      if List.mem (section_of brow) ran then begin
        let key = row_key brow in
        match List.find_opt (fun c -> String.equal (row_key c) key) current with
        | None -> err "missing row: %s" key
        | Some crow ->
          List.iter
            (fun (k, bv) ->
              if not (is_timing_field k) then
                match numeric bv with
                | None -> ()
                | Some b -> (
                  match Option.bind (List.assoc_opt k crow) numeric with
                  | None -> err "%s: field %s missing from this run" key k
                  | Some c ->
                    (* relative on large values, absolute near zero; nan on
                       both sides (serialized null) compares equal *)
                    let scale =
                      Float.max 1.0 (Float.max (Float.abs b) (Float.abs c))
                    in
                    if Float.abs (c -. b) > tolerance *. scale then
                      err "%s: %s = %g, baseline %g (tolerance %g%%)" key k c
                        b
                        (tolerance *. 100.0)))
            brow
      end)
    baseline.b_rows;
  (baseline, List.rev !errors)

type point = {
  joins : int;
  prairie_ms : float;
  volcano_ms : float;
  groups : int;
  lexprs : int;
  memo_hits : int;
  cost : float;
}

(* One data point of Figures 10-13: average optimization time over the five
   catalog instances, for both contestants. *)
let measure_point q ~joins =
  let instances = W.Queries.instances q ~joins ~seeds in
  let total_p = ref 0.0 and total_v = ref 0.0 in
  let groups = ref 0 and cost = ref 0.0 in
  let lexprs = ref 0 and memo_hits = ref 0 in
  List.iter
    (fun (inst : W.Queries.instance) ->
      let cat = inst.W.Queries.catalog in
      let prairie = Opt.oodb_prairie cat in
      let volcano = Opt.oodb_volcano cat in
      total_p := !total_p +. time_ms (fun () -> ignore (Opt.optimize prairie inst.W.Queries.expr));
      total_v := !total_v +. time_ms (fun () -> ignore (Opt.optimize volcano inst.W.Queries.expr));
      let r = Opt.optimize prairie inst.W.Queries.expr in
      groups := Search.group_count r.Opt.search;
      lexprs := Memo.lexpr_count (Search.memo r.Opt.search);
      memo_hits := (Search.stats r.Opt.search).Stats.memo_hits;
      cost := r.Opt.cost)
    instances;
  let n = float_of_int (List.length instances) in
  {
    joins;
    prairie_ms = !total_p /. n;
    volcano_ms = !total_v /. n;
    groups = !groups;
    lexprs = !lexprs;
    memo_hits = !memo_hits;
    cost = !cost;
  }

(* Sweep the join count until a per-point time budget is exhausted (the
   paper stops when virtual memory is exhausted; we stop on wall clock). *)
let sweep q ~max_joins ~budget_s =
  let rec go acc joins =
    if joins > max_joins then List.rev acc
    else
      let t0 = now () in
      let pt = measure_point q ~joins in
      let elapsed = now () -. t0 in
      if elapsed > budget_s && joins < max_joins then List.rev (pt :: acc)
      else go (pt :: acc) (joins + 1)
  in
  go [] 1

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader title = Printf.printf "\n-- %s --\n" title

let print_points ?section name points =
  Printf.printf "%s\n" name;
  Printf.printf "  %6s  %12s  %12s  %8s  %10s  %7s\n" "joins" "Prairie(ms)"
    "Volcano(ms)" "ratio" "groups" "cost";
  List.iter
    (fun p ->
      Printf.printf "  %6d  %12.3f  %12.3f  %7.2f%%  %10d  %7.1f\n" p.joins
        p.prairie_ms p.volcano_ms
        ((p.prairie_ms /. Float.max 1e-9 p.volcano_ms -. 1.0) *. 100.0)
        p.groups p.cost;
      match section with
      | None -> ()
      | Some sec ->
        record_row
          [
            ("section", Json.Str sec);
            ("query", Json.Str name);
            ("joins", Json.Int p.joins);
            ("prairie_ms", Json.Float p.prairie_ms);
            ("volcano_ms", Json.Float p.volcano_ms);
            ("groups", Json.Int p.groups);
            ("lexprs", Json.Int p.lexprs);
            ("memo_hits", Json.Int p.memo_hits);
            ("cost", Json.Float p.cost);
          ])
    points
