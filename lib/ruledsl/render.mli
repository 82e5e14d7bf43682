(** Pretty-printer from Prairie rule sets back to the rule-specification
    language.  [parse (render rs)] elaborates to a rule set whose rules and
    properties equal those of [rs] (round-trip tested). *)

val expr : Format.formatter -> Prairie.Action.expr -> unit
(** @raise Invalid_argument on a constant the language cannot write (only
    booleans, numbers, strings, [DONT_CARE] and [TRUE_PRED] have literals). *)

val stmt : Format.formatter -> Prairie.Action.stmt -> unit

val pattern : Format.formatter -> Prairie.Pattern.t -> unit

val template : Format.formatter -> Prairie.Pattern.tmpl -> unit

val ruleset : Format.formatter -> Prairie.Ruleset.t -> unit

val ruleset_to_string : Prairie.Ruleset.t -> string
