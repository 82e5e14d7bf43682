(* The system under test, driven only through its public entry points: set
   up (catalogs, then parse, elaborate and P2V-translate the shipped rule
   files) and the ops the workloads time.  Every call into a layer is
   wrapped in a tracer span named after the layer metric it feeds. *)

module W = Prairie_workload
module Opt = Prairie_optimizers.Optimizers
module Search = Prairie_volcano.Search
module Memo = Prairie_volcano.Memo
module Plan = Prairie_volcano.Plan
module Dsl = Prairie_dsl
module P2v = Prairie_p2v

type rule_texts = { oodb : string; relational : string }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_rules ~dir =
  {
    oodb = read_file (Filename.concat dir "open_oodb.prairie");
    relational = read_file (Filename.concat dir "relational.prairie");
  }

(* One DSL-compiled optimizer: the rule file elaborated against a catalog's
   helpers and translated by P2V. *)
type compiled = {
  catalog : Prairie_catalog.Catalog.t;
  ruleset : Prairie.Ruleset.t;
  translation : P2v.Translate.t;
  opt : Opt.t;
}

let compile tr ~name ast catalog =
  let helpers = Prairie_algebra.Helpers.env catalog in
  let ruleset =
    Tracer.span tr "ruledsl.elaborate" (fun () ->
        Dsl.Elaborate.elaborate ~helpers ast)
  in
  let translation =
    Tracer.span tr "p2v.translate" (fun () -> P2v.Translate.translate ruleset)
  in
  {
    catalog;
    ruleset;
    translation;
    opt =
      {
        Opt.name;
        volcano = translation.P2v.Translate.volcano;
        prepare = P2v.Translate.prepare_query translation;
      };
  }

type setup = {
  oodb_ast : Dsl.Ast.spec;
  compiled : compiled array;  (** the open_oodb rules, one per catalog *)
}

let parse tr text = Tracer.span tr "ruledsl.parse" (fun () -> Dsl.Parser.parse text)

let setup tr rules specs =
  let catalogs =
    Tracer.span tr "setup.catalogs" (fun () -> Array.map W.Catalogs.make specs)
  in
  let oodb_ast = parse tr rules.oodb in
  let rel_ast = parse tr rules.relational in
  let compiled =
    Array.mapi
      (fun i c -> compile tr ~name:(Printf.sprintf "oodb-prairie/%d" i) oodb_ast c)
      catalogs
  in
  (* the relational rules are set up too, though no workload optimizes
     with them *)
  ignore (compile tr ~name:"relational" rel_ast catalogs.(0));
  { oodb_ast; compiled }

(* The P2V pipeline's pieces, called one by one on a compiled rule set
   (traced runs only: Translate.translate runs them internally). *)
let p2v_pieces tr (c : compiled) =
  ignore (Tracer.span tr "p2v.enforcers" (fun () -> P2v.Enforcers.detect c.ruleset));
  ignore (Tracer.span tr "p2v.merge" (fun () -> P2v.Merge.merge c.ruleset));
  ignore (Tracer.span tr "p2v.classify" (fun () -> P2v.Classify.classify c.ruleset))

(* ---------------- one query optimization ---------------- *)

type query = Expr of Prairie.Expr.t | Sql of string

type outcome = { plan : Plan.t option; cost : float; search : Search.t }

(* SQL compile where the input is text, then prepare and a search from a
   fresh memo: memo insert of the prepared tree, exploration of its root
   group, then costing. *)
let optimize tr (c : compiled) q =
  let expr =
    match q with
    | Expr e -> e
    | Sql text ->
      Tracer.span tr "query.compile" (fun () ->
          Prairie_query.Query.compile_string c.catalog text)
  in
  let expr, required = Tracer.span tr "optimizers.prepare" (fun () -> c.opt.Opt.prepare expr) in
  let search = Search.create ~jobs:1 c.opt.Opt.volcano in
  let root =
    Tracer.span tr "volcano.memo_insert" (fun () ->
        Memo.insert_expr (Search.memo search) expr)
  in
  Tracer.span tr "volcano.explore" (fun () -> Search.explore_group search root);
  let plan = Tracer.span tr "volcano.cost" (fun () -> Search.optimize ~required search expr) in
  { plan; cost = (match plan with Some p -> Plan.cost p | None -> infinity); search }

let plan_fingerprint = function
  | None -> "-"
  | Some p -> Prairie.Expr.fingerprint (Plan.to_expr p)

(* ---------------- one rule-file verdict ---------------- *)

module Diag = Prairie.Diagnostic

type verdict = {
  codes : string list;  (** sorted distinct codes at warning or error *)
  elaborated : bool;
  translated : bool;
  lint_diags : int;
  analysis_diags : int;
  verify_cases : int;
  verify_counterexamples : int;
}

let verify_config = { Prairie_verify.Verify.default_config with budget = 2; seed = 42 }

let serious ds =
  List.filter_map
    (fun d -> match d.Diag.severity with Diag.Info -> None | _ -> Some d.Diag.code)
    ds

(* Parse, elaborate, lint, analyze, verify at a fixed budget and seed, then
   translate.  Elaboration failures stop before verify and translate. *)
let verdict tr ~helpers text =
  let ast =
    match parse tr text with
    | ast -> Some ast
    | exception (Dsl.Parser.Parse_error _ | Dsl.Lexer.Lex_error _) -> None
  in
  let ruleset =
    match ast with
    | None -> None
    | Some ast -> (
      match
        Tracer.span tr "ruledsl.elaborate" (fun () ->
            Dsl.Elaborate.elaborate ~helpers ast)
      with
      | rs -> Some rs
      | exception Dsl.Elaborate.Elab_error _ -> None)
  in
  let lint = Tracer.span tr "lint.check" (fun () -> Prairie_lint.Lint.lint_string ~helpers text) in
  let analysis =
    Tracer.span tr "analysis.run" (fun () -> Prairie_analysis.Analysis.analyze_string text)
  in
  let verify =
    Option.map
      (fun _ ->
        Tracer.span tr "verify.run" (fun () ->
            Prairie_verify.Verify.verify_string ~config:verify_config text))
      ruleset
  in
  let translated =
    Option.map (fun rs -> Tracer.span tr "p2v.translate" (fun () -> P2v.Translate.translate rs)) ruleset
  in
  let vdiags =
    match verify with Some r -> r.Prairie_verify.Verify.diagnostics | None -> []
  in
  {
    codes =
      List.sort_uniq compare
        (serious lint @ serious analysis.Prairie_analysis.Analysis.diagnostics @ serious vdiags);
    elaborated = Option.is_some ruleset;
    translated = Option.is_some translated;
    lint_diags = List.length lint;
    analysis_diags = List.length analysis.Prairie_analysis.Analysis.diagnostics;
    verify_cases =
      (match verify with Some r -> r.Prairie_verify.Verify.cases_generated | None -> 0);
    verify_counterexamples =
      (match verify with Some r -> r.Prairie_verify.Verify.counterexamples | None -> 0);
  }
