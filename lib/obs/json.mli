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

(** {1 Reading}

    The one JSON reader (DST repro files, the Chrome trace check). *)

(** A parsed value. [Num] keeps the number's literal, so an integer (a
    seed, a count) reads back exactly with [int_of_string] and a float
    with [float_of_string]. *)
type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(** [parse s] reads one value with optional surrounding whitespace.
    Strings decode every escape {!add_escaped} writes, plus [\/], [\b]
    and [\f]; [\uXXXX] above 0xff reads as ['?']. Raises {!Parse_error}
    (message with the byte offset) on malformed input or trailing
    bytes. *)
val parse : string -> t
