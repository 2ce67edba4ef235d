(** LEB128-style variable-length integer encoding, used by the SSTable
    record format and the write-ahead log. *)

(** [write buf n] appends the varint encoding of [n >= 0]. *)
val write : Buffer.t -> int -> unit

(** [set b pos n] writes the varint encoding of [n >= 0] into [b] at
    [pos]; returns the position after it. Raises [Invalid_argument] when
    [b] is too short. *)
val set : Bytes.t -> int -> int -> int

(** [read s pos] decodes at [pos]: [(value, next_pos)]. Raises
    [Invalid_argument] on truncated or oversized input. *)
val read : string -> int -> int * int

(** [read_within s pos ~stop] decodes the minimal varint at [pos], which
    must end before [stop]; the next field starts [size v] bytes on.
    Returns the value alone (no tuple). Raises [Invalid_argument] if it
    is truncated by [stop], overlong, or negative. *)
val read_within : string -> int -> stop:int -> int

val read_bytes : bytes -> int -> int * int
[@@lint.allow "U001"] (* bytes variant kept beside [read] *)

(** Encoded length of [n], in bytes. *)
val size : int -> int
