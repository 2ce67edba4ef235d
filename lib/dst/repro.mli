(** Plan (de)serialization: JSON seed files for failing-case replay.

    Invariant: [of_json (to_json p) = p] for every generated plan — the
    round-trip property the repro corpus in [test/repros/] depends on.
    The writer emits a stable field order and the reader is the tree's
    one JSON reader ({!Obs.Json.parse}, no external deps), so a
    checked-in repro replays byte-identically years later regardless of
    library drift. *)

val to_json : Plan.t -> string

(** [save path plan] writes [to_json plan] to [path]. *)
val save : string -> Plan.t -> unit

(** {!Obs.Json.Parse_error}: malformed JSON or a plan field missing or
    of the wrong kind. *)
exception Parse_error of string

(** [of_json s] parses a plan; raises {!Parse_error} with a path-ish
    message on malformed input. *)
val of_json : string -> Plan.t

(** [load path] reads and parses a plan file. *)
val load : string -> Plan.t
