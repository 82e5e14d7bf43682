(** The shipped rule sets are the files [rules/open_oodb.prairie] and
    [rules/relational.prairie].  A dune rule embeds their text as
    [Shipped_text] at build time, so nothing is looked up at run time, and
    the files lint, analyze and verify check are the rules the built-in
    optimizers run. *)

val ruleset : string -> Prairie_catalog.Catalog.t -> Prairie.Ruleset.t
(** [ruleset text] parses [text] once per process, on first use, and
    elaborates it against each catalog's helpers ({!Helpers.env}). *)
