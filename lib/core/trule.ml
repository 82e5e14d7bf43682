type t = {
  name : string;
  lhs : Pattern.t;
  rhs : Pattern.tmpl;
  pre_test : Action.stmt list;
  test : Action.expr;
  post_test : Action.stmt list;
}

let make ?(pre_test = []) ?(test = Action.tt) ?(post_test = []) ~name ~lhs ~rhs
    () =
  { name; lhs; rhs; pre_test; test; post_test }

let input_descriptors t = Pattern.desc_vars t.lhs

let output_descriptors t =
  let inputs = input_descriptors t in
  List.filter
    (fun d -> not (Pattern.mem_string d inputs))
    (Pattern.tmpl_desc_vars t.rhs)

let validate t =
  let inputs = input_descriptors t in
  let lhs_vars = Pattern.vars t.lhs in
  let rhs_vars = Pattern.tmpl_vars t.rhs in
  let unbound =
    List.filter (fun v -> not (Pattern.mem_int v lhs_vars)) rhs_vars
  in
  if unbound <> [] then
    Error
      (Printf.sprintf "rule %s: RHS stream variable ?%d not bound by the LHS"
         t.name (List.hd unbound))
  else
    let stmts = t.pre_test @ t.post_test in
    let bad_write =
      List.find_opt
        (fun s -> Pattern.mem_string (Action.assigned_descriptor s) inputs)
        stmts
    in
    match bad_write with
    | Some s ->
      Error
        (Printf.sprintf
           "rule %s: action assigns to LHS descriptor %s (LHS descriptors are \
            immutable)"
           t.name
           (Action.assigned_descriptor s))
    | None ->
      let known = ref inputs in
      let check_stmt s =
        let reads = Action.stmt_read_descriptors s in
        let missing =
          List.filter (fun d -> not (Pattern.mem_string d !known)) reads
        in
        known := Action.assigned_descriptor s :: !known;
        missing
      in
      let missing = List.concat_map check_stmt stmts in
      let missing_test =
        List.filter (fun d -> not (Pattern.mem_string d !known))
          (Action.read_descriptors t.test)
      in
      (match missing @ missing_test with
      | [] -> Ok ()
      | d :: _ ->
        Error
          (Printf.sprintf "rule %s: descriptor %s read before being defined"
             t.name d))

let pp ppf t =
  Format.fprintf ppf "@[<v 2>T-rule %s:@,%a ==> %a" t.name Pattern.pp t.lhs
    Pattern.pp_tmpl t.rhs;
  if t.pre_test <> [] then
    Format.fprintf ppf "@,pre-test: %a" Action.pp_stmts t.pre_test;
  Format.fprintf ppf "@,test: %a" Action.pp_expr t.test;
  if t.post_test <> [] then
    Format.fprintf ppf "@,post-test: %a" Action.pp_stmts t.post_test;
  Format.fprintf ppf "@]"
