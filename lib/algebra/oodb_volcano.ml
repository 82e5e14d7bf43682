module Value = Prairie_value.Value
module Attribute = Prairie_value.Attribute
module Predicate = Prairie_value.Predicate
module Order = Prairie_value.Order
module Catalog = Prairie_catalog.Catalog
module Stats = Prairie_catalog.Stats
module Descriptor = Prairie.Descriptor
module Expr = Prairie.Expr
module Rule = Prairie_volcano.Rule
module N = Names
module F = Helpers.F

open Build (* pattern shorthand: p, v, t, tv *)

(* ------------------------------------------------------------------ *)
(* Descriptor accessors (local shorthand)                              *)
(* ------------------------------------------------------------------ *)

let attrs d = Descriptor.get_attrs d N.p_attributes
let card d = Descriptor.get_int d N.p_num_records
let size d = Descriptor.get_int d N.p_tuple_size
let order d = Descriptor.get_order d N.p_tuple_order
let jpred d = Descriptor.get_pred d N.p_join_predicate
let spred d = Descriptor.get_pred d N.p_selection_predicate
let mat_attr d = Descriptor.get_attrs d N.p_mat_attribute
let unnest_attr d = Descriptor.get_attrs d N.p_unnest_attribute
let indexes d = Descriptor.get_attrs d N.p_indexes
let dcost d = Descriptor.cost d
(* Writes build drafts (see [Descriptor.update]); what a rule hands back
   to the search is sealed once: a trans rule's application seals its
   environment when it returns, and [sealed] wraps the impl rules. *)
let set_attrs d v = Descriptor.update d N.p_attributes (Value.Attrs v)
let set_card d v = Descriptor.update d N.p_num_records (Value.Int v)
let set_size d v = Descriptor.update d N.p_tuple_size (Value.Int v)
let set_order d v = Descriptor.update d N.p_tuple_order (Value.Order v)
let set_jpred d v = Descriptor.update d N.p_join_predicate (Value.Pred v)
let set_spred d v = Descriptor.update d N.p_selection_predicate (Value.Pred v)
let set_mat d v = Descriptor.update d N.p_mat_attribute (Value.Attrs v)
let set_unnest d v = Descriptor.update d N.p_unnest_attribute (Value.Attrs v)
let set_cost d v = Descriptor.update d "cost" (Value.Float v)

(* ------------------------------------------------------------------ *)
(* trans_rules                                                          *)
(* ------------------------------------------------------------------ *)

(* [make slot] returns a rule's condition and application code, given the
   environment slot of each descriptor variable. *)
let rule name lhs rhs make =
  Rule.trans_rule ~name ~lhs ~rhs (fun layout ->
      make (Prairie.Compiled.slot layout))

(* JOIN(MAT(?1):D3, ?2):D4 ==> MAT(JOIN(?1,?2):D5):D6 and its mirror.  MAT
   keeps cardinality, so the pulled-up join keeps D4's row count rather
   than re-estimating it under another association. *)
let mat_pull name lhs =
  rule name lhs (t N.mat "D6" [ t N.join "D5" [ tv 1; tv 2 ] ]) (fun slot ->
      let s1 = slot "D1" and s2 = slot "D2" and s3 = slot "D3"
      and s4 = slot "D4" and s5 = slot "D5" and s6 = slot "D6" in
      ( (fun env ->
          let a = F.union_attrs (attrs env.(s1)) (attrs env.(s2)) in
          env.(s5) <- set_attrs Descriptor.empty a;
          F.pred_refs_only (jpred env.(s4)) a),
        (fun env ->
          let d4 = env.(s4) and d3 = env.(s3) in
          let d1 = env.(s1) and d2 = env.(s2) in
          let d5 = env.(s5) in
          let d5 = set_jpred d5 (jpred d4) in
          let d5 = set_card d5 (card d4) in
          let d5 = set_size d5 (size d1 + size d2) in
          env.(s5) <- d5;
          let d6 = set_jpred d4 Predicate.True in
          env.(s6) <- set_mat d6 (mat_attr d3)) ))

let trans catalog : Rule.trans_rule list =
  let join_card l r pred = Stats.join_cardinality catalog ~left:l ~right:r pred in
  let sel_card n pred = Stats.select_cardinality catalog ~input:n pred in
  [
    rule "join_commute" (p N.join "D3" [ v 1; v 2 ])
      (t N.join "D4" [ tv 2; tv 1 ])
      (fun slot ->
        let s3 = slot "D3" and s4 = slot "D4" in
        ( (fun _ -> true),
          (fun env -> env.(s4) <- env.(s3)) ));
    rule "join_assoc_left" (p N.join "D5" [ p N.join "D4" [ v 1; v 2 ]; v 3 ])
      (t N.join "D7" [ tv 1; t N.join "D6" [ tv 2; tv 3 ] ])
      (fun slot ->
        let s2 = slot "D2" and s3 = slot "D3" and s4 = slot "D4"
        and s5 = slot "D5" and s6 = slot "D6" and s7 = slot "D7" in
        ( (fun env ->
            let a =
              F.union_attrs (attrs env.(s2)) (attrs env.(s3))
            in
            env.(s6) <- set_attrs Descriptor.empty a;
            let pred = jpred env.(s5) in
            (not (Predicate.equal pred Predicate.True))
            && F.pred_refs_only pred a),
          (fun env ->
            let d5 = env.(s5) and d4 = env.(s4) in
            let d2 = env.(s2) and d3 = env.(s3) in
            let d6 = env.(s6) in
            let d6 = set_jpred d6 (jpred d5) in
            let d6 = set_card d6 (join_card (card d2) (card d3) (jpred d5)) in
            let d6 = set_size d6 (size d2 + size d3) in
            env.(s6) <- d6;
            env.(s7) <- set_jpred d5 (jpred d4)) ));
    rule "join_assoc_right" (p N.join "D5" [ v 1; p N.join "D4" [ v 2; v 3 ] ])
      (t N.join "D7" [ t N.join "D6" [ tv 1; tv 2 ]; tv 3 ])
      (fun slot ->
        let s1 = slot "D1" and s2 = slot "D2" and s4 = slot "D4"
        and s5 = slot "D5" and s6 = slot "D6" and s7 = slot "D7" in
        ( (fun env ->
            let a =
              F.union_attrs (attrs env.(s1)) (attrs env.(s2))
            in
            env.(s6) <- set_attrs Descriptor.empty a;
            let pred = jpred env.(s5) in
            (not (Predicate.equal pred Predicate.True))
            && F.pred_refs_only pred a),
          (fun env ->
            let d5 = env.(s5) and d4 = env.(s4) in
            let d1 = env.(s1) and d2 = env.(s2) in
            let d6 = env.(s6) in
            let d6 = set_jpred d6 (jpred d5) in
            let d6 = set_card d6 (join_card (card d1) (card d2) (jpred d5)) in
            let d6 = set_size d6 (size d1 + size d2) in
            env.(s6) <- d6;
            env.(s7) <- set_jpred d5 (jpred d4)) ));
    rule "select_split" (p N.select "D2" [ v 1 ])
      (t N.select "D4" [ t N.select "D3" [ tv 1 ] ])
      (fun slot ->
        let s1 = slot "D1" and s2 = slot "D2" and s3 = slot "D3"
        and s4 = slot "D4" in
        ( (fun env ->
            List.length (Predicate.conjuncts (spred env.(s2))) >= 2),
          (fun env ->
            let d2 = env.(s2) and d1 = env.(s1) in
            let conjs = Predicate.conjuncts (spred d2) in
            let first, rest =
              match conjs with
              | [] -> (Predicate.True, Predicate.True)
              | x :: xs -> (x, Predicate.of_conjuncts xs)
            in
            let d3 = set_spred Descriptor.empty rest in
            let d3 = set_attrs d3 (attrs d1) in
            let d3 = set_card d3 (sel_card (card d1) rest) in
            let d3 = set_size d3 (size d1) in
            env.(s3) <- d3;
            env.(s4) <- set_spred d2 first) ));
    rule "select_merge" (p N.select "D4" [ p N.select "D3" [ v 1 ] ])
      (t N.select "D5" [ tv 1 ])
      (fun slot ->
        let s3 = slot "D3" and s4 = slot "D4" and s5 = slot "D5" in
        ( (fun _ -> true),
          (fun env ->
          let d4 = env.(s4) and d3 = env.(s3) in
          env.(s5) <- set_spred d4 (F.canonical_and (spred d4) (spred d3))) ));
    rule "select_commute" (p N.select "D4" [ p N.select "D3" [ v 1 ] ])
      (t N.select "D6" [ t N.select "D5" [ tv 1 ] ])
      (fun slot ->
        let s1 = slot "D1" and s3 = slot "D3" and s4 = slot "D4"
        and s5 = slot "D5" and s6 = slot "D6" in
        ( (fun _ -> true),
          (fun env ->
          let d4 = env.(s4) and d3 = env.(s3) in
          let d1 = env.(s1) in
          let d5 = set_spred d3 (spred d4) in
          let d5 = set_card d5 (sel_card (card d1) (spred d4)) in
          env.(s5) <- d5;
          env.(s6) <- set_spred d4 (spred d3)) ));
    rule "select_push_join_left"
      (p N.select "D4" [ p N.join "D3" [ v 1; v 2 ] ])
      (t N.join "D6" [ t N.select "D5" [ tv 1 ]; tv 2 ])
      (fun slot ->
        let s1 = slot "D1" and s3 = slot "D3" and s4 = slot "D4"
        and s5 = slot "D5" and s6 = slot "D6" in
        ( (fun env ->
            let pred = spred env.(s4) in
            if
              (not (Predicate.equal pred Predicate.True))
              && F.pred_refs_only pred (attrs env.(s1))
            then true else false),
          (fun env ->
            let d4 = env.(s4) and d3 = env.(s3) in
            let d1 = env.(s1) in
            let d5 = set_spred Descriptor.empty (spred d4) in
            let d5 = set_attrs d5 (attrs d1) in
            let d5 = set_card d5 (sel_card (card d1) (spred d4)) in
            let d5 = set_size d5 (size d1) in
            env.(s5) <- d5;
            env.(s6) <- set_card d3 (card d4)) ));
    rule "select_push_join_right"
      (p N.select "D4" [ p N.join "D3" [ v 1; v 2 ] ])
      (t N.join "D6" [ tv 1; t N.select "D5" [ tv 2 ] ])
      (fun slot ->
        let s2 = slot "D2" and s3 = slot "D3" and s4 = slot "D4"
        and s5 = slot "D5" and s6 = slot "D6" in
        ( (fun env ->
            let pred = spred env.(s4) in
            if
              (not (Predicate.equal pred Predicate.True))
              && F.pred_refs_only pred (attrs env.(s2))
            then true else false),
          (fun env ->
            let d4 = env.(s4) and d3 = env.(s3) in
            let d2 = env.(s2) in
            let d5 = set_spred Descriptor.empty (spred d4) in
            let d5 = set_attrs d5 (attrs d2) in
            let d5 = set_card d5 (sel_card (card d2) (spred d4)) in
            let d5 = set_size d5 (size d2) in
            env.(s5) <- d5;
            env.(s6) <- set_card d3 (card d4)) ));
    rule "select_push_mat" (p N.select "D4" [ p N.mat "D3" [ v 1 ] ])
      (t N.mat "D6" [ t N.select "D5" [ tv 1 ] ])
      (fun slot ->
        let s1 = slot "D1" and s3 = slot "D3" and s4 = slot "D4"
        and s5 = slot "D5" and s6 = slot "D6" in
        ( (fun env ->
            let pred = spred env.(s4) in
            if
              (not (Predicate.equal pred Predicate.True))
              && F.pred_refs_only pred (attrs env.(s1))
            then true else false),
          (fun env ->
            let d4 = env.(s4) and d3 = env.(s3) in
            let d1 = env.(s1) in
            let d5 = set_spred Descriptor.empty (spred d4) in
            let d5 = set_attrs d5 (attrs d1) in
            let d5 = set_card d5 (sel_card (card d1) (spred d4)) in
            let d5 = set_size d5 (size d1) in
            env.(s5) <- d5;
            env.(s6) <- set_card d3 (card d4)) ));
    rule "select_push_unnest" (p N.select "D4" [ p N.unnest "D3" [ v 1 ] ])
      (t N.unnest "D6" [ t N.select "D5" [ tv 1 ] ])
      (fun slot ->
        let s1 = slot "D1" and s3 = slot "D3" and s4 = slot "D4"
        and s5 = slot "D5" and s6 = slot "D6" in
        ( (fun env ->
            let pred = spred env.(s4) in
            if
              (not (Predicate.equal pred Predicate.True))
              && not (F.pred_refs_any pred (unnest_attr env.(s3)))
            then true else false),
          (fun env ->
            let d4 = env.(s4) and d3 = env.(s3) in
            let d1 = env.(s1) in
            let d5 = set_spred Descriptor.empty (spred d4) in
            let d5 = set_attrs d5 (attrs d1) in
            let d5 = set_card d5 (sel_card (card d1) (spred d4)) in
            let d5 = set_size d5 (size d1) in
            env.(s5) <- d5;
            env.(s6) <- set_card d3 (card d4)) ));
    rule "select_into_ret" (p N.select "D4" [ p N.ret "D3" [ v 1 ] ])
      (t N.ret "D5" [ tv 1 ])
      (fun slot ->
        let s3 = slot "D3" and s4 = slot "D4" and s5 = slot "D5" in
        ( (fun _ -> true),
          (fun env ->
          let d4 = env.(s4) and d3 = env.(s3) in
          let d5 = set_spred d3 (F.canonical_and (spred d3) (spred d4)) in
          env.(s5) <- set_card d5 (card d4)) ));
    mat_pull "mat_pull_join_left" (p N.join "D4" [ p N.mat "D3" [ v 1 ]; v 2 ]);
    mat_pull "mat_pull_join_right" (p N.join "D4" [ v 1; p N.mat "D3" [ v 2 ] ]);
    rule "mat_push_join_left" (p N.mat "D4" [ p N.join "D3" [ v 1; v 2 ] ])
      (t N.join "D6" [ t N.mat "D5" [ tv 1 ]; tv 2 ])
      (fun slot ->
        let s1 = slot "D1" and s2 = slot "D2" and s3 = slot "D3"
        and s4 = slot "D4" and s5 = slot "D5" and s6 = slot "D6" in
        ( (fun env ->
            F.attrs_subset (mat_attr env.(s4)) (attrs env.(s1))),
          (fun env ->
            let d4 = env.(s4) and d3 = env.(s3) in
            let d1 = env.(s1) and d2 = env.(s2) in
            let ma = mat_attr d4 in
            let d5 = set_mat Descriptor.empty ma in
            let d5 =
              set_attrs d5
                (F.union_attrs (attrs d1) (F.mat_added_attrs catalog ma))
            in
            let d5 = set_card d5 (card d1) in
            let d5 = set_size d5 (size d1 + F.mat_added_size catalog ma) in
            env.(s5) <- d5;
            let d6 = set_attrs d3 (F.union_attrs (attrs d5) (attrs d2)) in
            env.(s6) <- set_size d6 (size d5 + size d2)) ));
    rule "mat_push_join_right" (p N.mat "D4" [ p N.join "D3" [ v 1; v 2 ] ])
      (t N.join "D6" [ tv 1; t N.mat "D5" [ tv 2 ] ])
      (fun slot ->
        let s1 = slot "D1" and s2 = slot "D2" and s3 = slot "D3"
        and s4 = slot "D4" and s5 = slot "D5" and s6 = slot "D6" in
        ( (fun env ->
            F.attrs_subset (mat_attr env.(s4)) (attrs env.(s2))),
          (fun env ->
            let d4 = env.(s4) and d3 = env.(s3) in
            let d1 = env.(s1) and d2 = env.(s2) in
            let ma = mat_attr d4 in
            let d5 = set_mat Descriptor.empty ma in
            let d5 =
              set_attrs d5
                (F.union_attrs (attrs d2) (F.mat_added_attrs catalog ma))
            in
            let d5 = set_card d5 (card d2) in
            let d5 = set_size d5 (size d2 + F.mat_added_size catalog ma) in
            env.(s5) <- d5;
            let d6 = set_attrs d3 (F.union_attrs (attrs d1) (attrs d5)) in
            env.(s6) <- set_size d6 (size d1 + size d5)) ));
    rule "mat_commute" (p N.mat "D4" [ p N.mat "D3" [ v 1 ] ])
      (t N.mat "D6" [ t N.mat "D5" [ tv 1 ] ])
      (fun slot ->
        let s1 = slot "D1" and s3 = slot "D3" and s4 = slot "D4"
        and s5 = slot "D5" and s6 = slot "D6" in
        ( (fun env ->
            F.attrs_subset (mat_attr env.(s4)) (attrs env.(s1))),
          (fun env ->
            let d4 = env.(s4) and d3 = env.(s3) in
            let d1 = env.(s1) in
            let ma = mat_attr d4 in
            let d5 = set_mat Descriptor.empty ma in
            let d5 =
              set_attrs d5
                (F.union_attrs (attrs d1) (F.mat_added_attrs catalog ma))
            in
            let d5 = set_card d5 (card d1) in
            let d5 = set_size d5 (size d1 + F.mat_added_size catalog ma) in
            env.(s5) <- d5;
            env.(s6) <- set_mat d4 (mat_attr d3)) ));
    rule "unnest_join_swap" (p N.unnest "D4" [ p N.join "D3" [ v 1; v 2 ] ])
      (t N.join "D6" [ t N.unnest "D5" [ tv 1 ]; tv 2 ])
      (fun slot ->
        let s1 = slot "D1" and s3 = slot "D3" and s4 = slot "D4"
        and s5 = slot "D5" and s6 = slot "D6" in
        ( (fun env ->
            let ua = unnest_attr env.(s4) in
            if
              F.attrs_subset ua (attrs env.(s1))
              && not (F.pred_refs_any (jpred env.(s3)) ua)
            then true else false),
          (fun env ->
            let d4 = env.(s4) and d3 = env.(s3) in
            let d1 = env.(s1) in
            let ua = unnest_attr d4 in
            let d5 = set_unnest Descriptor.empty ua in
            let d5 = set_attrs d5 (attrs d1) in
            let d5 = set_card d5 (card d1 * F.unnest_fanout catalog ua) in
            let d5 = set_size d5 (size d1) in
            env.(s5) <- d5;
            env.(s6) <- set_card d3 (card d4)) ));
  ]

(* ------------------------------------------------------------------ *)
(* impl_rules                                                           *)
(* ------------------------------------------------------------------ *)

let merged op_arg req = Descriptor.merge ~base:op_arg ~overrides:req
let no_reqs n = Array.make n Descriptor.empty

let order_req req =
  match order req with
  | Order.Any -> Descriptor.empty
  | o -> Descriptor.seal (set_order Descriptor.empty o)

let sealed (r : Rule.impl_rule) =
  {
    r with
    Rule.ir_finalize =
      (fun ~op_arg ~req ~inputs ->
        Descriptor.seal (r.Rule.ir_finalize ~op_arg ~req ~inputs));
  }

let impl catalog : Rule.impl_rule list =
  List.map sealed
  [
    {
      Rule.ir_name = "ret_file_scan";
      ir_op = N.ret;
      ir_alg = N.file_scan;
      ir_arity = 1;
      ir_cond =
        (fun ~op_arg ~req ~inputs:_ -> Order.is_any (order (merged op_arg req)));
      ir_input_reqs = (fun ~op_arg:_ ~req:_ ~inputs:_ -> no_reqs 1);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d3 = merged op_arg req in
          set_cost d3
            (Cost_model.file_scan ~card:(card inputs.(0))
               ~tuple_size:(size inputs.(0))));
    };
    {
      Rule.ir_name = "ret_index_scan";
      ir_op = N.ret;
      ir_alg = N.index_scan;
      ir_arity = 1;
      ir_cond =
        (fun ~op_arg ~req ~inputs ->
          let d2 = merged op_arg req in
          let ixs = indexes inputs.(0) in
          F.indexed_selection (spred d2) ixs
          && Order.satisfies ~required:(order d2)
               ~actual:(F.index_order (spred d2) ixs));
      ir_input_reqs = (fun ~op_arg:_ ~req:_ ~inputs:_ -> no_reqs 1);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d2 = merged op_arg req in
          let ixs = indexes inputs.(0) in
          let d3 = set_order d2 (F.index_order (spred d2) ixs) in
          set_cost d3
            (Cost_model.index_scan ~card:(card inputs.(0))
               ~tuple_size:(size inputs.(0))
               ~selectivity:(F.indexed_selectivity catalog (spred d2) ixs)));
    };
    {
      Rule.ir_name = "join_hash";
      ir_op = N.join;
      ir_alg = N.hash_join;
      ir_arity = 2;
      ir_cond =
        (fun ~op_arg ~req ~inputs:_ ->
          let d3 = merged op_arg req in
          Predicate.is_equijoin (jpred d3) && Order.is_any (order d3));
      ir_input_reqs = (fun ~op_arg:_ ~req:_ ~inputs:_ -> no_reqs 2);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d4 = merged op_arg req in
          set_cost d4
            (Cost_model.hash_join
               ~left_cost:(dcost inputs.(0))
               ~right_cost:(dcost inputs.(1))
               ~left_card:(card inputs.(0))
               ~right_card:(card inputs.(1))));
    };
    {
      Rule.ir_name = "join_pointer";
      ir_op = N.join;
      ir_alg = N.pointer_join;
      ir_arity = 2;
      ir_cond =
        (fun ~op_arg ~req ~inputs:_ ->
          F.is_ref_join catalog (jpred (merged op_arg req)));
      ir_input_reqs =
        (fun ~op_arg ~req ~inputs:_ -> [| order_req (merged op_arg req); Descriptor.empty |]);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d5 = merged op_arg req in
          let outer = inputs.(0) in
          let d5 =
            set_cost d5
              (Cost_model.pointer_join ~outer_cost:(dcost outer)
                 ~inner_cost:(dcost inputs.(1))
                 ~outer_card:(card outer))
          in
          set_order d5 (order outer));
    };
    (let preserving name op alg cost_fn =
       {
         Rule.ir_name = name;
         ir_op = op;
         ir_alg = alg;
         ir_arity = 1;
         ir_cond = (fun ~op_arg:_ ~req:_ ~inputs:_ -> true);
         ir_input_reqs =
           (fun ~op_arg ~req ~inputs:_ -> [| order_req (merged op_arg req) |]);
         ir_finalize =
           (fun ~op_arg ~req ~inputs ->
             let d4 = merged op_arg req in
             let i0 = inputs.(0) in
             let d4 = set_cost d4 (cost_fn ~input:i0 ~out:d4) in
             set_order d4 (order i0));
       }
     in
     preserving "select_filter" N.select N.filter (fun ~input ~out:_ ->
         Cost_model.filter ~input_cost:(dcost input) ~input_card:(card input)));
    {
      Rule.ir_name = "project_apply";
      ir_op = N.project;
      ir_alg = N.project_alg;
      ir_arity = 1;
      ir_cond = (fun ~op_arg:_ ~req:_ ~inputs:_ -> true);
      ir_input_reqs =
        (fun ~op_arg ~req ~inputs:_ -> [| order_req (merged op_arg req) |]);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d4 = merged op_arg req in
          let i0 = inputs.(0) in
          let d4 =
            set_cost d4
              (Cost_model.project ~input_cost:(dcost i0) ~input_card:(card i0))
          in
          set_order d4 (order i0));
    };
    {
      Rule.ir_name = "mat_pointer";
      ir_op = N.mat;
      ir_alg = N.mat_deref;
      ir_arity = 1;
      ir_cond = (fun ~op_arg:_ ~req:_ ~inputs:_ -> true);
      ir_input_reqs =
        (fun ~op_arg ~req ~inputs:_ -> [| order_req (merged op_arg req) |]);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d4 = merged op_arg req in
          let i0 = inputs.(0) in
          let d4 =
            set_cost d4
              (Cost_model.mat_ordered ~input_cost:(dcost i0) ~card:(card i0))
          in
          set_order d4 (order i0));
    };
    {
      Rule.ir_name = "mat_batch";
      ir_op = N.mat;
      ir_alg = N.mat_deref;
      ir_arity = 1;
      ir_cond =
        (fun ~op_arg ~req ~inputs:_ -> Order.is_any (order (merged op_arg req)));
      ir_input_reqs = (fun ~op_arg:_ ~req:_ ~inputs:_ -> no_reqs 1);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d4 = merged op_arg req in
          let i0 = inputs.(0) in
          set_cost d4
            (Cost_model.mat_unordered ~input_cost:(dcost i0) ~card:(card i0)));
    };
    {
      Rule.ir_name = "unnest_scan";
      ir_op = N.unnest;
      ir_alg = N.unnest_scan;
      ir_arity = 1;
      ir_cond = (fun ~op_arg:_ ~req:_ ~inputs:_ -> true);
      ir_input_reqs =
        (fun ~op_arg ~req ~inputs:_ -> [| order_req (merged op_arg req) |]);
      ir_finalize =
        (fun ~op_arg ~req ~inputs ->
          let d4 = merged op_arg req in
          let i0 = inputs.(0) in
          let d4 =
            set_cost d4
              (Cost_model.unnest ~input_cost:(dcost i0) ~output_card:(card d4))
          in
          set_order d4 (order i0));
    };
  ]

(* ------------------------------------------------------------------ *)
(* enforcer                                                             *)
(* ------------------------------------------------------------------ *)

let merge_sort_enforcer : Rule.enforcer =
  {
    Rule.en_name = "sort_merge_sort";
    en_alg = N.merge_sort;
    en_applies = (fun ~req -> not (Order.is_any (order req)));
    en_relaxed = (fun ~req -> Descriptor.without req [ N.p_tuple_order ]);
    en_finalize =
      (fun ~req ~input ->
        let d3 = Descriptor.merge ~base:input ~overrides:req in
        let cost =
          Cost_model.merge_sort ~input_cost:(dcost input) ~card:(card d3)
        in
        Descriptor.seal (set_cost d3 cost));
  }

let ruleset catalog =
  Rule.make_ruleset ~trans:(trans catalog) ~impl:(impl catalog)
    ~enforcers:[ merge_sort_enforcer ]
    ~physical:[ N.p_tuple_order ]
    "open-oodb-volcano"

let rec prepare_query expr =
  match expr with
  | Expr.Node (Expr.Operator, name, d, [ child ]) when String.equal name N.sort
    ->
    let sub, req = prepare_query child in
    let props = Descriptor.restrict d [ N.p_tuple_order ] in
    (sub, Descriptor.merge ~base:req ~overrides:props)
  | e -> (e, Descriptor.empty)
