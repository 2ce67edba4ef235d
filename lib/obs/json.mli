(** The one JSON string escaper of every JSON writer in the tree
    (metrics, traces, lint call graphs, DST repro files, bench gates).

    Rule: the double quote, the backslash, newline, carriage return and
    tab get their short two-byte forms; every other byte below 0x20 or
    at or above 0x7f is written as [\u00XX] (lowercase hex). Any other
    byte is copied. The output is always 7-bit ASCII, hence valid UTF-8
    whatever the input holds (binary keys included), and each input
    byte maps to one escape, so a reader that decodes [\u00XX] to the
    byte XX gets the input back byte for byte. *)

(** [add_escaped buf s] appends the escaped body of [s] (no quotes). *)
val add_escaped : Buffer.t -> string -> unit

(** [escape s] is the escaped body of [s] (no quotes). *)
val escape : string -> string
