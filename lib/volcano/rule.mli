(** Volcano rules: trans_rules, impl_rules and enforcers.

    This is the rule interface of the Volcano optimizer generator (paper
    §3.1–3.2).  Where Prairie rules are data (statement lists), Volcano
    rules are code: condition and application functions.  Hand-coded rule
    sets supply OCaml closures (the analog of the C support functions the
    paper counts in §4.2); the P2V pre-processor generates the closures
    from Prairie rules automatically. *)

type denv = Prairie.Descriptor.t array
(** Descriptor environments: one descriptor per slot of a trans rule's
    {!field-tr_slots}, filled by pattern matching and extended in place by
    condition/application code.  Descriptor variables are resolved to
    slots once, when the rule is built, so neither the matcher nor the
    actions search for a variable by name. *)

(** The LHS pattern with every descriptor variable resolved to its slot:
    [S_var (i, s)] binds stream variable [?i] and puts its group descriptor
    in slot [s]; [S_op (op, s, inputs)] puts the operator's descriptor in
    slot [s]. *)
type slot_pat =
  | S_var of int * int
  | S_op of string * int * slot_pat list

(** The RHS template likewise: [S_leaf i] is stream variable [?i]'s group,
    [S_node (op, s, inputs)] an output node whose descriptor is slot [s]. *)
type slot_tmpl =
  | S_leaf of int
  | S_node of string * int * slot_tmpl list

type trans_rule = {
  tr_name : string;
  tr_lhs : Prairie.Pattern.t;
      (** pattern over operators; stream variable [?i] binds group
          descriptors to [Di] *)
  tr_rhs : Prairie.Pattern.tmpl;
  tr_slots : string array;  (** the descriptor variable of each slot *)
  tr_match : slot_pat;  (** [tr_lhs], staged *)
  tr_build : slot_tmpl;  (** [tr_rhs], staged *)
  tr_cond : denv -> bool;
      (** cond_code: pre-test statements + test.  Writes the pre-test
          results into the environment; [true] when the test passes. *)
  tr_appl : denv -> unit;
      (** appl_code: post-test statements computing the remaining output
          descriptors.  On return every descriptor the rule built is
          interned ({!Prairie.Compiled.seal}). *)
}

val trans_rule :
  name:string ->
  lhs:Prairie.Pattern.t ->
  rhs:Prairie.Pattern.tmpl ->
  (Prairie.Compiled.layout -> (denv -> bool) * (denv -> unit)) ->
  trans_rule
(** Build a trans rule.  The LHS and RHS variables get the first slots of
    a fresh layout; [make layout] compiles the condition and application
    code against it (resolving further variables adds slots).  The
    application the rule carries also seals every draft the code left in
    the environment, so the search receives interned descriptors only. *)

val denv_of_list : trans_rule -> (string * Prairie.Descriptor.t) list -> denv
(** An environment binding the named variables (earlier bindings win);
    every other slot holds the empty descriptor.  For driving a rule
    outside the search. *)

val denv_get : trans_rule -> denv -> string -> Prairie.Descriptor.t

type impl_rule = {
  ir_name : string;
  ir_op : string;  (** the operator implemented *)
  ir_alg : string;  (** the algorithm chosen *)
  ir_arity : int;
  ir_cond :
    op_arg:Prairie.Descriptor.t ->
    req:Prairie.Descriptor.t ->
    inputs:Prairie.Descriptor.t array ->
    bool;
      (** cond_code + do_any_good: is the algorithm applicable and can it
          contribute to the required physical properties?  [inputs] are the
          input groups' logical descriptors (e.g. a file's catalog
          annotations, which an index-scan test inspects). *)
  ir_input_reqs :
    op_arg:Prairie.Descriptor.t ->
    req:Prairie.Descriptor.t ->
    inputs:Prairie.Descriptor.t array ->
    Prairie.Descriptor.t array;
      (** get_input_pv: required physical properties for each input.
          [inputs] are the input groups' logical descriptors. *)
  ir_finalize :
    op_arg:Prairie.Descriptor.t ->
    req:Prairie.Descriptor.t ->
    inputs:Prairie.Descriptor.t array ->
    Prairie.Descriptor.t;
      (** derive_phy_prop + cost: given the achieved descriptors of the
          optimized input plans, the full algorithm descriptor (argument,
          achieved physical properties, cost). *)
}

type enforcer = {
  en_name : string;
  en_alg : string;
  en_applies : req:Prairie.Descriptor.t -> bool;
      (** can the enforcer establish part of [req]? *)
  en_relaxed : req:Prairie.Descriptor.t -> Prairie.Descriptor.t;
      (** the requirement passed down to the input once the enforcer runs *)
  en_finalize :
    req:Prairie.Descriptor.t -> input:Prairie.Descriptor.t -> Prairie.Descriptor.t;
      (** the enforcer algorithm's descriptor given its optimized input *)
}

type ruleset = {
  rs_name : string;
  rs_trans : trans_rule list;
  rs_impl : impl_rule list;
  rs_enforcers : enforcer list;
  rs_physical : string list;  (** the physical property names *)
  rs_physical_set : Prairie.Descriptor.String_set.t;
      (** [rs_physical] as a set, built once by {!make_ruleset} so
          {!restrict_physical} never rebuilds it *)
  rs_impl_index : (string, impl_rule list) Hashtbl.t;
      (** impl rules grouped by operator (in [rs_impl] order), built once
          by {!make_ruleset}; {!impl_rules_for} reads it *)
  rs_match_index : (string, (int * trans_rule) list) Hashtbl.t;
      (** trans rules grouped by LHS root operator, each paired with its
          [rs_trans] position — the rule id of the memo's tried table, so
          indexed and un-indexed search share one id space.  Buckets
          preserve [rs_trans] order and include wildcard-rooted rules.
          Built once by {!make_ruleset}; {!trans_rules_for} reads it. *)
  rs_match_wildcard : (int * trans_rule) list;
      (** trans rules whose LHS root is a bare stream variable (they match
          any node — including the stored-file case, where the engine
          rejects them with the same [Invalid_argument] either way) *)
  rs_satisfies :
    required:Prairie.Descriptor.t -> actual:Prairie.Descriptor.t -> bool;
      (** does an achieved physical-property vector satisfy a required
          one? *)
}

val default_satisfies :
  required:Prairie.Descriptor.t -> actual:Prairie.Descriptor.t -> bool
(** Per-property check: [tuple_order] via {!Prairie_value.Order.satisfies},
    anything else by equality.  Properties absent from [required] are
    unconstrained. *)

val make_ruleset :
  ?trans:trans_rule list ->
  ?impl:impl_rule list ->
  ?enforcers:enforcer list ->
  ?physical:string list ->
  ?satisfies:
    (required:Prairie.Descriptor.t -> actual:Prairie.Descriptor.t -> bool) ->
  string ->
  ruleset

val impl_rules_for : ruleset -> string -> impl_rule list
(** O(1) lookup of the impl rules for an operator, in [rs_impl] order. *)

val trans_rules_for : ruleset -> string option -> (int * trans_rule) list
(** O(1) lookup of the trans rules whose LHS root could match a node:
    [Some op] for an operator node (that operator's bucket, or just the
    wildcard rules when no rule is rooted there), [None] for a stored
    file (wildcard rules only).  Rules a bucket omits are exactly those
    whose match would return no bindings — skipping them leaves matches,
    applications, stats, traces and plans untouched. *)

val restrict_physical : ruleset -> Prairie.Descriptor.t -> Prairie.Descriptor.t
(** Project a descriptor onto the rule set's physical properties. *)
