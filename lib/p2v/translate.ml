module Descriptor = Prairie.Descriptor
module Pattern = Prairie.Pattern
module Binding = Prairie.Pattern.Binding
module Trule = Prairie.Trule
module Irule = Prairie.Irule
module Eval = Prairie.Eval
module Expr = Prairie.Expr
module Rule = Prairie_volcano.Rule
module Compiled = Prairie.Compiled

type mode =
  [ `Compiled
  | `Interpreted
  ]

type t = {
  merge : Merge.result;
  classification : Classify.classification;
  volcano : Rule.ruleset;
  dead_trans : string list;
}

(* The two code-generation strategies: staging the statement lists into
   closures over slot environments once (the default — the analog of P2V
   emitting C code), or re-interpreting the ASTs on every rule invocation
   over a name-keyed binding (the [ablation-codegen] configuration, and the
   differential reference for the staged code).  Both run in place on a
   slot environment, so one rule shape serves both. *)
type evaluator = {
  ev_stmts :
    protected:string list ->
    Compiled.layout ->
    Prairie.Action.stmt list ->
    Compiled.env ->
    unit;
  ev_test : Compiled.layout -> Prairie.Action.expr -> Compiled.env -> bool;
}

let binding_of_env layout (env : Compiled.env) =
  let names = Compiled.slots layout in
  {
    Binding.streams = [];
    descs = List.init (Array.length names) (fun s -> (names.(s), env.(s)));
  }

(* The interpreter resolves nothing while compiling, so it gives the
   variables it will read or write their slots up front: the environment
   must have a slot for each. *)
let resolve layout names =
  List.iter (fun d -> ignore (Compiled.slot layout d)) names

let evaluator mode helpers =
  match mode with
  | `Compiled ->
    {
      ev_stmts =
        (fun ~protected layout ss ->
          Compiled.stmts ~protected helpers layout ss);
      ev_test = (fun layout e -> Compiled.test helpers layout e);
    }
  | `Interpreted ->
    {
      ev_stmts =
        (fun ~protected layout ss ->
          List.iter
            (fun s ->
              resolve layout
                (Prairie.Action.assigned_descriptor s
                :: Prairie.Action.stmt_read_descriptors s))
            ss;
          fun env ->
            let b =
              Eval.exec_stmts ~protected helpers (binding_of_env layout env) ss
            in
            Array.iteri
              (fun s d -> env.(s) <- Binding.desc b d)
              (Compiled.slots layout));
      ev_test =
        (fun layout e ->
          resolve layout (Prairie.Action.read_descriptors e);
          fun env -> Eval.eval_test helpers (binding_of_env layout env) e);
    }

let trans_of_trule ?(mode = `Compiled) helpers (t : Trule.t) : Rule.trans_rule =
  let ev = evaluator mode helpers in
  let protected = Trule.input_descriptors t in
  (* Both statement blocks leave drafts; the rule seals them when the
     application returns, so a failed test interns nothing. *)
  Rule.trans_rule ~name:t.Trule.name ~lhs:t.Trule.lhs ~rhs:t.Trule.rhs
    (fun layout ->
      let pre = ev.ev_stmts ~protected layout t.Trule.pre_test in
      let tst = ev.ev_test layout t.Trule.test in
      let post = ev.ev_stmts ~protected layout t.Trule.post_test in
      ( (fun env ->
          pre env;
          tst env),
        post ))

(* Stream variables of an I-rule LHS in positional order. *)
let positional_vars (r : Irule.t) =
  match r.Irule.lhs with
  | Pattern.Pop (_, _, subs) ->
    List.map
      (function
        | Pattern.Pvar i -> i
        | Pattern.Pop _ -> invalid_arg "I-rule LHS inputs must be variables")
      subs
  | Pattern.Pvar _ -> invalid_arg "I-rule LHS must be an operator"

(* An I-rule's compiled pieces over one layout: its test and two statement
   blocks, and the slots of the operator and algorithm descriptors. *)
type irule_code = {
  layout : Compiled.layout;
  op_s : int;
  alg_s : int;
  tst : Compiled.env -> bool;
  pre : Compiled.env -> unit;
  post : Compiled.env -> unit;
}

let irule_code ev (r : Irule.t) =
  let layout = Compiled.layout () in
  let op_s = Compiled.slot layout (Irule.operator_descriptor r) in
  let alg_s = Compiled.slot layout (Irule.algorithm_descriptor r) in
  let protected = Irule.input_descriptors r in
  let tst = ev.ev_test layout r.Irule.test in
  let pre = ev.ev_stmts ~protected layout r.Irule.pre_opt in
  let post =
    ev.ev_stmts
      ~protected:[ Irule.operator_descriptor r ]
      layout r.Irule.post_opt
  in
  { layout; op_s; alg_s; tst; pre; post }

(* A fresh environment from (slot, descriptor) bindings, the first binding
   of a slot winning. *)
let env_of n bindings =
  let env = Array.make n Descriptor.empty in
  List.iter (fun (s, d) -> env.(s) <- d) (List.rev bindings);
  env

let impl_of_irule ?(mode = `Compiled) helpers ~physical (r : Irule.t) :
    Rule.impl_rule =
  let c = irule_code (evaluator mode helpers) r in
  let slot = Compiled.slot c.layout in
  let pos_vars = positional_vars r in
  let in_slots =
    List.map (fun v -> slot (Pattern.stream_desc_name v)) pos_vars
  in
  let redescs = Irule.redescriptored_inputs r in
  (* per input position, the slot of its re-descriptored variable *)
  let redesc_slots =
    List.map (fun v -> Option.map slot (List.assoc_opt v redescs)) pos_vars
  in
  let n = Array.length (Compiled.slots c.layout) in
  let physical = Descriptor.String_set.of_list physical in
  let mk_env ~op_arg ~req ~inputs =
    env_of n
      ((c.op_s, Descriptor.merge ~base:op_arg ~overrides:req)
      :: List.mapi (fun k s -> (s, inputs.(k))) in_slots)
  in
  {
    Rule.ir_name = r.Irule.name;
    ir_op = Irule.operator r;
    ir_alg = Irule.algorithm r;
    ir_arity = List.length pos_vars;
    ir_cond = (fun ~op_arg ~req ~inputs -> c.tst (mk_env ~op_arg ~req ~inputs));
    ir_input_reqs =
      (fun ~op_arg ~req ~inputs ->
        let env = mk_env ~op_arg ~req ~inputs in
        c.pre env;
        Array.of_list
          (List.map
             (function
               | Some s -> Descriptor.restrict_set env.(s) physical
               | None -> Descriptor.empty)
             redesc_slots));
    ir_finalize =
      (fun ~op_arg ~req ~inputs ->
        (* pre-opt over the achieved input descriptors, then rebind the
           re-descriptored variables to the achieved descriptors (paper
           §2.4: post-opt runs after the inputs are optimized), then
           post-opt. *)
        let env = mk_env ~op_arg ~req ~inputs in
        c.pre env;
        List.iteri
          (fun k -> function Some s -> env.(s) <- inputs.(k) | None -> ())
          redesc_slots;
        c.post env;
        Descriptor.seal env.(c.alg_s));
  }

let enforcer_of_irule ?(mode = `Compiled) helpers ~enforced (r : Irule.t) :
    Rule.enforcer =
  let c = irule_code (evaluator mode helpers) r in
  let stream_s =
    match positional_vars r with
    | [ v ] -> Compiled.slot c.layout (Pattern.stream_desc_name v)
    | _ -> invalid_arg "enforcer-algorithm rules take a single stream input"
  in
  let n = Array.length (Compiled.slots c.layout) in
  {
    Rule.en_name = r.Irule.name;
    en_alg = Irule.algorithm r;
    en_applies = (fun ~req -> c.tst (env_of n [ (c.op_s, req) ]));
    en_relaxed = (fun ~req -> Descriptor.without req enforced);
    en_finalize =
      (fun ~req ~input ->
        let env =
          env_of n
            [
              (c.op_s, Descriptor.merge ~base:input ~overrides:req);
              (stream_s, input);
            ]
        in
        c.pre env;
        c.post env;
        Descriptor.seal env.(c.alg_s));
  }

let translate ?compose ?(mode = `Compiled) (ruleset : Prairie.Ruleset.t) =
  let merge = Merge.merge ?compose ruleset in
  let classification = Classify.classify ruleset in
  let helpers = ruleset.Prairie.Ruleset.helpers in
  let physical = classification.Classify.physical in
  (* A T-rule whose test constant-folds to FALSE can never fire; dropping
     it here — before codegen — keeps the indexed and un-indexed search
     paths in exact agreement (neither ever sees the rule, so neither
     records a match for it). *)
  let live_trules, dead_trules =
    List.partition
      (fun (t : Trule.t) ->
        Prairie.Action.fold_const t.Trule.test
        <> Some (Prairie_value.Value.Bool false))
      merge.Merge.trans_trules
  in
  let trans = List.map (trans_of_trule ~mode helpers) live_trules in
  let impl =
    List.map (impl_of_irule ~mode helpers ~physical) merge.Merge.impl_irules
  in
  let enforcers =
    List.concat_map
      (fun (info : Enforcers.info) ->
        List.map
          (enforcer_of_irule ~mode helpers
             ~enforced:info.Enforcers.enforced_properties)
          info.Enforcers.algorithm_rules)
      merge.Merge.enforcer_infos
  in
  let volcano =
    Rule.make_ruleset ~trans ~impl ~enforcers ~physical
      (ruleset.Prairie.Ruleset.name ^ "-p2v")
  in
  {
    merge;
    classification;
    volcano;
    dead_trans = List.map (fun (t : Trule.t) -> t.Trule.name) dead_trules;
  }

let prepare_query t expr =
  let infos = t.merge.Merge.enforcer_infos in
  let info_of op =
    List.find_opt
      (fun (i : Enforcers.info) -> String.equal i.Enforcers.operator op)
      infos
  in
  (* Collect enforced properties of root-level enforcer-operators into the
     required physical properties; delete interior occurrences. *)
  let rec strip_root req = function
    | Expr.Node (Expr.Operator, name, d, [ child ]) as e -> (
      match info_of name with
      | Some info ->
        let props =
          Descriptor.restrict d info.Enforcers.enforced_properties
        in
        strip_root (Descriptor.merge ~base:req ~overrides:props) child
      | None -> (e, req))
    | e -> (e, req)
  in
  let rec strip_interior = function
    | Expr.Stored _ as e -> e
    | Expr.Node (kind, name, d, inputs) -> (
      let inputs = List.map strip_interior inputs in
      match (info_of name, inputs) with
      | Some _, [ child ] -> child
      | _ -> Expr.Node (kind, name, d, inputs))
  in
  let root, req = strip_root Descriptor.empty expr in
  let root =
    match root with
    | Expr.Stored _ -> root
    | Expr.Node (kind, name, d, inputs) ->
      Expr.Node (kind, name, d, List.map strip_interior inputs)
  in
  (root, req)
