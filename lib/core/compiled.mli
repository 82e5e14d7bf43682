(** Action compilation: statement lists staged into closures.

    The paper's P2V emits C code for rule actions; the analog here is
    staging — an {!Action.expr} or statement list is traversed {e once},
    resolving helper-function lookups, operator dispatch and descriptor
    variables, and yields a closure evaluated on every rule invocation.
    Semantics are identical to {!Eval} (property-tested); the cost of
    interpretation is paid at translation time instead of per firing.

    Descriptor variables are staged to slots: a rule's {!layout} gives each
    variable a slot as compilation first meets it, and the closures read
    and write an {!env} array at fixed indices instead of searching a
    name-keyed binding.

    Property writes build {e drafts} ({!Descriptor.update}); the caller
    {!seal}s the environment when the action's results leave it, so each
    built descriptor is interned once.

    Compilation also front-loads the static checks: unknown helpers and
    assignments to protected descriptors are detected when the rule is
    compiled, not when it first fires. *)

type env = Descriptor.t array
(** One descriptor per slot of a layout; unbound slots hold
    {!Descriptor.empty}, which is how an unbound variable reads. *)

type layout
(** A rule's slot table, filled while the rule is compiled: each
    descriptor variable gets a slot the first time it is resolved. *)

val layout : unit -> layout
(** An empty table. *)

val slot : layout -> string -> int
(** The variable's slot, added to the table if it has none yet. *)

val slots : layout -> string array
(** The variable of each slot so far.  An environment for the compiled
    code has this many slots. *)

val expr : Helper_env.t -> layout -> Action.expr -> env -> Prairie_value.Value.t
(** @raise Helper_env.Unknown_helper at compile time for unregistered
    helpers.
    @raise Eval.Rule_error at compile time for whole-descriptor reads
    outside a copy. *)

val test : Helper_env.t -> layout -> Action.expr -> env -> bool

val stmts :
  protected:string list ->
  Helper_env.t ->
  layout ->
  Action.stmt list ->
  env ->
  unit
(** Run the statements in order, in place.  Property writes leave drafts
    in the assigned slots.
    @raise Eval.Rule_error at compile time when a statement assigns to a
    protected (LHS) descriptor. *)

val seal : env -> unit
(** Intern every draft in the environment ({!Descriptor.seal}). *)
