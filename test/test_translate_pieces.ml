(* The exposed P2V code-generation pieces, driven directly: generated
   cond/appl closures for a trans rule, and the generated impl-rule
   functions (cond, input requirements, finalize) in both codegen modes. *)

module P2v = Prairie_p2v
module Rule = Prairie_volcano.Rule
module D = Prairie.Descriptor
module V = Prairie_value.Value
module O = Prairie_value.Order
module P = Prairie_value.Predicate
module A = Prairie_value.Attribute
module Rel = Prairie_algebra.Relational
module Catalog = Prairie_catalog.Catalog
module CM = Prairie_algebra.Cost_model

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let attr o n = A.make ~owner:o ~name:n
let eq a b = P.Cmp (P.Eq, P.T_attr a, P.T_attr b)

let catalog =
  Catalog.of_files
    [
      Rel.relation ~name:"R1" ~cardinality:100 [ ("a", 10) ];
      Rel.relation ~name:"R2" ~cardinality:40 [ ("a", 10) ];
      Rel.relation ~name:"R3" ~cardinality:20 [ ("a", 10) ];
    ]

let ruleset = Rel.ruleset catalog
let helpers = ruleset.Prairie.Ruleset.helpers
let find_t name = Option.get (Prairie.Ruleset.find_trule ruleset name)
let find_i name = Option.get (Prairie.Ruleset.find_irule ruleset name)

(* descriptors playing the role of memo-bound group/lexpr descriptors *)
let join_arg ~pred ~card =
  D.of_list
    [
      ("join_predicate", V.Pred pred);
      ("num_records", V.Int card);
      ("tuple_size", V.Int 200);
      ( "attributes",
        V.Attrs [ attr "R1" "a"; attr "R2" "a" ] );
    ]

let stream_desc ~owner ~card =
  D.of_list
    [
      ("attributes", V.Attrs [ attr owner "a" ]);
      ("num_records", V.Int card);
      ("tuple_size", V.Int 100);
    ]

let per_mode f =
  List.iter (fun mode -> f mode) [ `Compiled; `Interpreted ]

let trans_tests =
  [
    Alcotest.test_case "generated commutativity cond/appl" `Quick (fun () ->
        per_mode (fun mode ->
            let tr = P2v.Translate.trans_of_trule ~mode helpers (find_t "join_commute") in
            let denv =
              Rule.denv_of_list tr
                [ ("D3", join_arg ~pred:(eq (attr "R1" "a") (attr "R2" "a")) ~card:400) ]
            in
            if not (tr.Rule.tr_cond denv) then
              Alcotest.fail "commutativity is unconditional";
            tr.Rule.tr_appl denv;
            check "D4 computed" true
              (D.equal (Rule.denv_get tr denv "D4") (Rule.denv_get tr denv "D3"))));
    Alcotest.test_case "generated associativity rejects cross products" `Quick
      (fun () ->
        per_mode (fun mode ->
            let tr = P2v.Translate.trans_of_trule ~mode helpers (find_t "join_assoc_left") in
            (* outer predicate references R1 (part of the left subtree):
               the rewrite would make the inner join a cross product *)
            let denv =
              Rule.denv_of_list tr
              [
                ("D5", join_arg ~pred:(eq (attr "R1" "a") (attr "R3" "a")) ~card:100);
                ("D4", join_arg ~pred:(eq (attr "R1" "a") (attr "R2" "a")) ~card:400);
                ("D1", stream_desc ~owner:"R1" ~card:100);
                ("D2", stream_desc ~owner:"R2" ~card:40);
                ("D3", stream_desc ~owner:"R3" ~card:20);
              ]
            in
            check "rejected" false (tr.Rule.tr_cond denv)));
    Alcotest.test_case "generated associativity computes inner statistics"
      `Quick (fun () ->
        per_mode (fun mode ->
            let tr = P2v.Translate.trans_of_trule ~mode helpers (find_t "join_assoc_left") in
            let denv =
              Rule.denv_of_list tr
              [
                ("D5", join_arg ~pred:(eq (attr "R2" "a") (attr "R3" "a")) ~card:100);
                ("D4", join_arg ~pred:(eq (attr "R1" "a") (attr "R2" "a")) ~card:400);
                ("D1", stream_desc ~owner:"R1" ~card:100);
                ("D2", stream_desc ~owner:"R2" ~card:40);
                ("D3", stream_desc ~owner:"R3" ~card:20);
              ]
            in
            if not (tr.Rule.tr_cond denv) then Alcotest.fail "should apply";
            tr.Rule.tr_appl denv;
            let d6 = Rule.denv_get tr denv "D6" in
            (* |R2| * |R3| / max distinct = 40 * 20 / 10 *)
            Alcotest.(check int) "inner card" 80 (D.get_int d6 "num_records");
            Alcotest.(check int) "inner size" 200 (D.get_int d6 "tuple_size")));
  ]

let impl_tests =
  [
    Alcotest.test_case "generated Nested_loops impl-rule functions" `Quick
      (fun () ->
        per_mode (fun mode ->
            let ir =
              P2v.Translate.impl_of_irule ~mode helpers
                ~physical:[ "tuple_order" ]
                (find_i "join_nested_loops")
            in
            Alcotest.(check string) "op" "JOIN" ir.Rule.ir_op;
            Alcotest.(check string) "alg" "Nested_loops" ir.Rule.ir_alg;
            let op_arg = join_arg ~pred:(eq (attr "R1" "a") (attr "R2" "a")) ~card:400 in
            let inputs =
              [| stream_desc ~owner:"R1" ~card:100; stream_desc ~owner:"R2" ~card:40 |]
            in
            let req =
              D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "a"))) ]
            in
            check "always applicable" true (ir.Rule.ir_cond ~op_arg ~req ~inputs);
            (* the required order flows to the outer input only *)
            let reqs = ir.Rule.ir_input_reqs ~op_arg ~req ~inputs in
            check "outer carries the order" true
              (O.equal (D.get_order reqs.(0) "tuple_order") (O.sorted_on (attr "R1" "a")));
            check "inner unconstrained" true (D.is_empty reqs.(1));
            (* finalize computes the Fig. 6 cost from achieved inputs *)
            let achieved =
              [|
                D.set_cost (stream_desc ~owner:"R1" ~card:100) 7.0;
                D.set_cost (stream_desc ~owner:"R2" ~card:40) 2.0;
              |]
            in
            let out = ir.Rule.ir_finalize ~op_arg ~req ~inputs:achieved in
            checkf "7 + 100 * 2" 207.0 (D.cost out)));
    Alcotest.test_case "generated Index_scan cond consults the file's indexes"
      `Quick (fun () ->
        per_mode (fun mode ->
            let ir =
              P2v.Translate.impl_of_irule ~mode helpers
                ~physical:[ "tuple_order" ]
                (find_i "ret_index_scan")
            in
            let sel = P.Cmp (P.Eq, P.T_attr (attr "R1" "a"), P.T_int 3) in
            let op_arg =
              D.of_list
                [ ("selection_predicate", V.Pred sel); ("num_records", V.Int 10) ]
            in
            let indexed =
              D.of_list
                [
                  ("num_records", V.Int 100);
                  ("tuple_size", V.Int 100);
                  ("indexes", V.Attrs [ attr "R1" "a" ]);
                ]
            in
            let bare = D.without indexed [ "indexes" ] in
            check "applies with the index" true
              (ir.Rule.ir_cond ~op_arg ~req:D.empty ~inputs:[| indexed |]);
            check "rejected without" false
              (ir.Rule.ir_cond ~op_arg ~req:D.empty ~inputs:[| bare |]);
            (* achieved order is the index order *)
            let out = ir.Rule.ir_finalize ~op_arg ~req:D.empty ~inputs:[| indexed |] in
            check "order delivered" true
              (O.equal (D.get_order out "tuple_order") (O.sorted_on (attr "R1" "a")));
            checkf "cost model"
              (CM.index_scan ~card:100 ~tuple_size:100 ~selectivity:0.1)
              (D.cost out)));
    Alcotest.test_case "generated enforcer functions" `Quick (fun () ->
        per_mode (fun mode ->
            let info = List.hd (P2v.Enforcers.detect ruleset) in
            let en =
              P2v.Translate.enforcer_of_irule ~mode helpers
                ~enforced:info.P2v.Enforcers.enforced_properties
                (List.hd info.P2v.Enforcers.algorithm_rules)
            in
            Alcotest.(check string) "alg" "Merge_sort" en.Rule.en_alg;
            let req =
              D.of_list [ ("tuple_order", V.Order (O.sorted_on (attr "R1" "a"))) ]
            in
            check "applies" true (en.Rule.en_applies ~req);
            check "relaxed empty" true (D.is_empty (en.Rule.en_relaxed ~req));
            let input = D.set_cost (stream_desc ~owner:"R1" ~card:8) 1.0 in
            let out = en.Rule.en_finalize ~req ~input in
            checkf "1 + cpu * 8 * 3" (1.0 +. (CM.cpu_per_tuple *. 8.0 *. 3.0)) (D.cost out)));
  ]

(* Staged against interpreted code generation, rule by rule: for every
   T- and I-rule of both shipped rule files, on seeded catalogs and on
   expressions generated to match the rule's LHS, both modes must accept
   the same bindings, raise the same errors, and return physically equal
   (==) descriptors.  Interpreted actions intern after every write, so
   pointer equality proves the staged actions sealed everything they
   built: no draft escapes an action. *)

module Gen = Prairie_workload.Generate
module Pattern = Prairie.Pattern
module Trule = Prairie.Trule
module Irule = Prairie.Irule

type 'a outcome = Done of 'a | Raised of string

let run f = try Done (f ()) with e -> Raised (Printexc.to_string e)

(* A pool generation reset between the two runs would break pointer
   equality without any action being at fault; run the pair again then
   (a second reset needs another full generation of new descriptors). *)
let pair f =
  let size () = (D.pool_stats ()).D.size in
  let before = size () in
  let r = (f `Compiled, f `Interpreted) in
  if size () < before then (f `Compiled, f `Interpreted) else r

let same_descs a b = Array.length a = Array.length b && Array.for_all2 ( == ) a b

let agree name same (c, i) =
  match (c, i) with
  | Done x, Done y ->
    if not (same x y) then Alcotest.failf "%s: modes disagree" name
  | Raised x, Raised y -> Alcotest.(check string) (name ^ ": same error") x y
  | Done _, Raised e | Raised e, Done _ ->
    Alcotest.failf "%s: only one mode raised %s" name e

let shipped = [ ("open_oodb", Prairie_algebra.Oodb.ruleset);
                ("relational", Rel.ruleset) ]

let with_cost d c = D.set d "cost" (V.Float c)

let differential () =
  let accepted = ref 0 and rejected = ref 0 and implemented = ref 0 in
  List.iter
    (fun (file, factory) ->
      for seed = 1 to 40 do
        let rng = Prairie_util.Rng.create (1000 * seed) in
        let w = Gen.world rng in
        let rs = factory w.Gen.catalog in
        let helpers = rs.Prairie.Ruleset.helpers in
        let ops = rs.Prairie.Ruleset.operators in
        List.iter
          (fun (t : Trule.t) ->
            let e = Gen.of_pattern rng w ~ops t.Trule.lhs in
            match Pattern.matches t.Trule.lhs e with
            | None -> ()
            | Some b ->
              let name = Printf.sprintf "%s/%s seed %d" file t.Trule.name seed in
              let bound =
                List.map (fun d -> (d, Pattern.Binding.desc b d)) (Pattern.desc_vars t.Trule.lhs)
              in
              let apply mode =
                run (fun () ->
                    let tr = P2v.Translate.trans_of_trule ~mode helpers t in
                    let denv = Rule.denv_of_list tr bound in
                    if tr.Rule.tr_cond denv then begin
                      tr.Rule.tr_appl denv;
                      Some denv
                    end
                    else None)
              in
              let c, i = pair apply in
              (match c with
              | Done (Some _) -> incr accepted
              | Done None -> incr rejected
              | Raised _ -> ());
              agree name (Option.equal same_descs) (c, i))
          rs.Prairie.Ruleset.trules;
        let enforcing =
          List.concat_map
            (fun (info : P2v.Enforcers.info) -> info.P2v.Enforcers.algorithm_rules)
            (P2v.Merge.merge rs).P2v.Merge.enforcer_infos
        in
        List.iter
          (fun (r : Irule.t) ->
            let e = Gen.of_pattern rng w ~ops r.Irule.lhs in
            let name = Printf.sprintf "%s/%s seed %d" file r.Irule.name seed in
            let op_arg = Prairie.Expr.descriptor e in
            let inputs =
              Array.of_list
                (List.mapi
                   (fun k sub -> with_cost (Prairie.Expr.descriptor sub) (float_of_int (10 * (k + 1))))
                   (Prairie.Expr.inputs e))
            in
            let orders =
              D.empty
              :: List.map
                   (fun a -> D.of_list [ ("tuple_order", V.Order (O.sorted [ a ])) ])
                   (D.get_attrs op_arg "attributes")
            in
            List.iter
              (fun req ->
                let impl mode =
                  run (fun () ->
                      let ir =
                        P2v.Translate.impl_of_irule ~mode helpers
                          ~physical:[ "tuple_order" ] r
                      in
                      if Array.length inputs <> ir.Rule.ir_arity then None
                      else if not (ir.Rule.ir_cond ~op_arg ~req ~inputs) then None
                      else
                        Some
                          ( ir.Rule.ir_input_reqs ~op_arg ~req ~inputs,
                            ir.Rule.ir_finalize ~op_arg ~req ~inputs ))
                in
                let c, i = pair impl in
                (match c with Done (Some _) -> incr implemented | _ -> ());
                agree name
                  (Option.equal (fun (r1, f1) (r2, f2) -> same_descs r1 r2 && f1 == f2))
                  (c, i);
                if List.memq r enforcing && Array.length inputs = 1 then
                  let enf mode =
                    run (fun () ->
                        let en =
                          P2v.Translate.enforcer_of_irule ~mode helpers
                            ~enforced:[ "tuple_order" ] r
                        in
                        if en.Rule.en_applies ~req then
                          Some (en.Rule.en_finalize ~req ~input:inputs.(0))
                        else None)
                  in
                  agree (name ^ " (enforcer)") (Option.equal ( == )) (pair enf))
              orders)
          rs.Prairie.Ruleset.irules
      done)
    shipped;
  (* the seeds reach both branches of the tests and real implementations *)
  check "some bindings accepted" true (!accepted > 100);
  check "some bindings rejected" true (!rejected > 10);
  check "some implementations costed" true (!implemented > 100)

let suites =
  [
    ("translate_pieces.trans", trans_tests);
    ("translate_pieces.impl", impl_tests);
    ( "translate_pieces.diff",
      [
        Alcotest.test_case
          "staged and interpreted actions agree, descriptors physically equal"
          `Quick differential;
      ] );
  ]
