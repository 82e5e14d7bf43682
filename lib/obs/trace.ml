module Json = Prairie_util.Json

type reason =
  | Test_failed
  | Pruned of float
  | Budget_exhausted
  | No_input_plan

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
      old_cost : float option;
      new_cost : float;
    }
  | Budget_hit of { groups : int }

type t = {
  buf : event option array;
  mutable n : int;  (* total emitted; the next sequence number *)
  mutex : Mutex.t;
      (* guards [buf] and [n]: a sink may be shared by concurrent emitters
         (the plan service's worker domains, parallel exploration), and an
         unguarded [n] increment would both lose events and let a reader
         observe a slot/counter mismatch *)
}

let create ?(capacity = 65536) () =
  { buf = Array.make (max 1 capacity) None; n = 0; mutex = Mutex.create () }

let capacity t = Array.length t.buf

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let emit t ev =
  with_lock t (fun () ->
      t.buf.(t.n mod Array.length t.buf) <- Some ev;
      t.n <- t.n + 1)

let seq t = with_lock t (fun () -> t.n)

let length_unlocked t = min t.n (Array.length t.buf)
let length t = with_lock t (fun () -> length_unlocked t)
let dropped t = with_lock t (fun () -> t.n - length_unlocked t)

let events t =
  with_lock t (fun () ->
      List.init (length_unlocked t) (fun i ->
          let s = t.n - length_unlocked t + i in
          match t.buf.(s mod Array.length t.buf) with
          | Some ev -> (s, ev)
          | None -> assert false (* slots below [length] are always filled *)))

let clear t =
  with_lock t (fun () ->
      Array.fill t.buf 0 (Array.length t.buf) None;
      t.n <- 0)

let kind = function
  | Group_created _ -> "group_created"
  | Groups_merged _ -> "groups_merged"
  | Trans_matched _ -> "trans_matched"
  | Trans_applied _ -> "trans_applied"
  | Trans_rejected _ -> "trans_rejected"
  | Impl_matched _ -> "impl_matched"
  | Impl_applied _ -> "impl_applied"
  | Impl_rejected _ -> "impl_rejected"
  | Enforcer_inserted _ -> "enforcer_inserted"
  | Memo_hit _ -> "memo_hit"
  | Winner_changed _ -> "winner_changed"
  | Budget_hit _ -> "budget_hit"

let reason_label = function
  | Test_failed -> "test_failed"
  | Pruned _ -> "pruned"
  | Budget_exhausted -> "budget_exhausted"
  | No_input_plan -> "no_input_plan"

(* JSON has no infinity; costs can be infinite before the first winner *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f
  else if f > 0.0 then "\"inf\""
  else "\"-inf\""

let reason_fields = function
  | Test_failed | Budget_exhausted | No_input_plan -> ""
  | Pruned limit -> Printf.sprintf ",\"limit\":%s" (json_float limit)

let event_to_json ~seq ev =
  let tail =
    match ev with
    | Group_created { gid } -> Printf.sprintf "\"gid\":%d" gid
    | Groups_merged { survivor; dead } ->
      Printf.sprintf "\"survivor\":%d,\"dead\":%d" survivor dead
    | Trans_matched { rule; gid; bindings } ->
      Printf.sprintf "\"rule\":%s,\"gid\":%d,\"bindings\":%d"
        (Json.quote rule) gid bindings
    | Trans_applied { rule; gid } | Impl_applied { rule; gid } ->
      Printf.sprintf "\"rule\":%s,\"gid\":%d" (Json.quote rule) gid
    | Impl_matched { rule; gid } ->
      Printf.sprintf "\"rule\":%s,\"gid\":%d" (Json.quote rule) gid
    | Trans_rejected { rule; gid; reason } | Impl_rejected { rule; gid; reason }
      ->
      Printf.sprintf "\"rule\":%s,\"gid\":%d,\"reason\":%s%s"
        (Json.quote rule) gid
        (Json.quote (reason_label reason))
        (reason_fields reason)
    | Enforcer_inserted { alg; gid } ->
      Printf.sprintf "\"alg\":%s,\"gid\":%d" (Json.quote alg) gid
    | Memo_hit { gid } -> Printf.sprintf "\"gid\":%d" gid
    | Winner_changed { gid; alg; old_cost; new_cost } ->
      Printf.sprintf "\"gid\":%d,\"alg\":%s,\"old_cost\":%s,\"new_cost\":%s"
        gid (Json.quote alg)
        (match old_cost with None -> "null" | Some c -> json_float c)
        (json_float new_cost)
    | Budget_hit { groups } -> Printf.sprintf "\"groups\":%d" groups
  in
  Printf.sprintf "{\"seq\":%d,\"event\":%s,%s}" seq (Json.quote (kind ev))
    tail

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (seq, ev) ->
      Buffer.add_string buf (event_to_json ~seq ev);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

let output_jsonl oc t = output_string oc (to_jsonl t)
