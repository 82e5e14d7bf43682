module Value = Prairie_value.Value

let rule_error fmt = Printf.ksprintf (fun m -> raise (Eval.Rule_error m)) fmt

type env = Descriptor.t array

(* Slots are handed out while the rule compiles, in order of first use:
   resolving a variable and laying out the environment are one pass. *)
type layout = { mutable names : string array; mutable count : int }

let layout () = { names = Array.make 8 ""; count = 0 }

let rec find_slot l d i =
  if i = l.count then begin
    if i = Array.length l.names then begin
      let names = Array.make (2 * i) "" in
      Array.blit l.names 0 names 0 i;
      l.names <- names
    end;
    l.names.(i) <- d;
    l.count <- i + 1;
    i
  end
  else if String.equal l.names.(i) d then i
  else find_slot l d (i + 1)

let slot l d = find_slot l d 0

let slots l = Array.sub l.names 0 l.count

let rec expr helpers layout (e : Action.expr) : env -> Value.t =
  match e with
  | Action.Const v -> fun _ -> v
  | Action.Desc d ->
    rule_error
      "descriptor %s used as a value (whole-descriptor reads are only legal \
       in whole-descriptor assignments)"
      d
  | Action.Prop (d, p) ->
    let s = slot layout d in
    fun env -> Descriptor.get env.(s) p
  | Action.Call (name, args) ->
    (* the helper is resolved once, at compilation time *)
    let fn =
      match Helper_env.find helpers name with
      | Some fn -> fn
      | None -> raise (Helper_env.Unknown_helper name)
    in
    let cargs = List.map (expr helpers layout) args in
    fun env -> fn (List.map (fun c -> c env) cargs)
  | Action.Binop (Action.And, e1, e2) ->
    let c1 = expr helpers layout e1 and c2 = expr helpers layout e2 in
    fun env -> if Value.truthy (c1 env) then c2 env else Value.Bool false
  | Action.Binop (Action.Or, e1, e2) ->
    let c1 = expr helpers layout e1 and c2 = expr helpers layout e2 in
    fun env -> if Value.truthy (c1 env) then Value.Bool true else c2 env
  | Action.Binop (op, e1, e2) ->
    let c1 = expr helpers layout e1 and c2 = expr helpers layout e2 in
    let f =
      match op with
      | Action.Add -> Value.add
      | Action.Sub -> Value.sub
      | Action.Mul -> Value.mul
      | Action.Div -> Value.div
      | Action.Cmp c -> fun a b -> Value.Bool (Value.cmp c a b)
      | Action.And | Action.Or -> assert false
    in
    fun env -> f (c1 env) (c2 env)
  | Action.Unop (Action.Not, e1) ->
    let c1 = expr helpers layout e1 in
    fun env -> Value.Bool (not (Value.truthy (c1 env)))
  | Action.Unop (Action.Neg, e1) ->
    let c1 = expr helpers layout e1 in
    fun env ->
      (match c1 env with
      | Value.Int i -> Value.Int (-i)
      | v -> Value.Float (-.Value.to_float v))

let test helpers layout e =
  let c = expr helpers layout e in
  fun env ->
    match c env with
    | Value.Bool v -> v
    | v -> rule_error "rule test evaluated to non-boolean %s" (Value.to_repr v)

let stmt ~protected helpers layout (s : Action.stmt) : env -> unit =
  let target = Action.assigned_descriptor s in
  if Pattern.mem_string target protected then
    rule_error "action assigns to LHS descriptor %s (immutable)" target;
  match s with
  | Action.Assign_desc (d, Action.Desc src) ->
    let sd = slot layout d and ss = slot layout src in
    fun env -> env.(sd) <- env.(ss)
  | Action.Assign_desc (d, Action.Const Value.Null) ->
    let sd = slot layout d in
    fun env -> env.(sd) <- Descriptor.empty
  | Action.Assign_desc (d, _) ->
    rule_error
      "whole-descriptor assignment to %s requires a descriptor on the \
       right-hand side"
      d
  | Action.Assign_prop (d, p, e) ->
    let sd = slot layout d in
    let c = expr helpers layout e in
    fun env ->
      let v = c env in
      env.(sd) <- Descriptor.update env.(sd) p v

let stmts ~protected helpers layout ss =
  match List.map (stmt ~protected helpers layout) ss with
  | [] -> fun _ -> ()
  | [ c ] -> c
  | cs -> fun env -> List.iter (fun c -> c env) cs

(* Only drafts are written back, so sealing a slot that holds an
   interned descriptor costs one comparison. *)
let seal env =
  for s = 0 to Array.length env - 1 do
    let d = env.(s) in
    let d' = Descriptor.seal d in
    if d' != d then env.(s) <- d'
  done
