(** JSON string literals, shared by every JSON writer in the tree
    (diagnostics, traces, spans, metrics, the CLI and the bench). *)

val quote : string -> string
(** [quote s] is [s] as a JSON string literal per RFC 8259: surrounding
    double quotes, with quote, backslash and the control characters below
    0x20 escaped ([\n], [\r] and [\t] by name, the rest as [\u00XX]).
    Bytes from 0x20 up are copied as they are. *)
