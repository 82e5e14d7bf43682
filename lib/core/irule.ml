type t = {
  name : string;
  lhs : Pattern.t;
  rhs : Pattern.tmpl;
  test : Action.expr;
  pre_opt : Action.stmt list;
  post_opt : Action.stmt list;
}

let null_algorithm = "Null"

let make ?(test = Action.tt) ?(pre_opt = []) ?(post_opt = []) ~name ~lhs ~rhs
    () =
  { name; lhs; rhs; test; pre_opt; post_opt }

let operator t =
  match t.lhs with
  | Pattern.Pop (name, _, _) -> name
  | Pattern.Pvar _ -> invalid_arg "Irule.operator: LHS is a stream variable"

let algorithm t =
  match t.rhs with
  | Pattern.Tnode (name, _, _) -> name
  | Pattern.Tvar _ -> invalid_arg "Irule.algorithm: RHS is a stream variable"

let is_null_rule t = String.equal (algorithm t) null_algorithm

let operator_descriptor t =
  match t.lhs with
  | Pattern.Pop (_, dvar, _) -> dvar
  | Pattern.Pvar _ -> invalid_arg "Irule.operator_descriptor"

let algorithm_descriptor t =
  match t.rhs with
  | Pattern.Tnode (_, dvar, _) -> dvar
  | Pattern.Tvar _ -> invalid_arg "Irule.algorithm_descriptor"

let redescriptored_inputs t =
  match t.rhs with
  | Pattern.Tnode (_, _, subs) ->
    List.filter_map
      (function Pattern.Tvar (i, Some d) -> Some (i, d) | _ -> None)
      subs
  | Pattern.Tvar _ -> []

let input_descriptors t = Pattern.desc_vars t.lhs

let output_descriptors t =
  let inputs = input_descriptors t in
  List.filter
    (fun d -> not (Pattern.mem_string d inputs))
    (Pattern.tmpl_desc_vars t.rhs)

let rec distinct = function
  | [] -> true
  | x :: rest -> (not (Pattern.mem_int x rest)) && distinct rest

let validate t =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  match (t.lhs, t.rhs) with
  | Pattern.Pvar _, _ -> err "rule %s: I-rule LHS must be an operator" t.name
  | _, Pattern.Tvar _ -> err "rule %s: I-rule RHS must be an algorithm" t.name
  | Pattern.Pop (_, _, subpats), Pattern.Tnode (_, _, subs) ->
    let lhs_vars =
      List.map
        (function
          | Pattern.Pvar i -> i
          | Pattern.Pop _ -> -1)
        subpats
    in
    if Pattern.mem_int (-1) lhs_vars then
      err "rule %s: I-rule LHS inputs must be stream variables" t.name
    else if not (distinct lhs_vars) then
      err "rule %s: duplicate stream variables in LHS" t.name
    else
      let rhs_vars =
        List.map
          (function
            | Pattern.Tvar (i, _) -> i
            | Pattern.Tnode _ -> -1)
          subs
      in
      if rhs_vars <> lhs_vars then
        err
          "rule %s: I-rule RHS must apply the algorithm to the same stream \
           variables, in order"
          t.name
      else
        let inputs = input_descriptors t in
        let stmts = t.pre_opt @ t.post_opt in
        match
          List.find_opt
            (fun s -> Pattern.mem_string (Action.assigned_descriptor s) inputs)
            stmts
        with
        | Some s ->
          err "rule %s: action assigns to LHS descriptor %s" t.name
            (Action.assigned_descriptor s)
        | None -> Ok ()

let pp ppf t =
  Format.fprintf ppf "@[<v 2>I-rule %s:@,%a ==> %a" t.name Pattern.pp t.lhs
    Pattern.pp_tmpl t.rhs;
  Format.fprintf ppf "@,test: %a" Action.pp_expr t.test;
  if t.pre_opt <> [] then
    Format.fprintf ppf "@,pre-opt: %a" Action.pp_stmts t.pre_opt;
  if t.post_opt <> [] then
    Format.fprintf ppf "@,post-opt: %a" Action.pp_stmts t.post_opt;
  Format.fprintf ppf "@]"
