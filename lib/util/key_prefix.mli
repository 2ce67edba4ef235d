(** Integer key prefixes for ordered searches over byte-string keys.

    A set of keys that share a common prefix [c] is ordered, past [c],
    mostly by the next 7 bytes; packed big-endian into a non-negative
    int, those compare in one machine instruction. Two keys whose ints
    differ compare the same way as the keys; equal ints (a tie) need the
    key strings. The SSTable fence index and C0's order index both search
    this way. *)

(** [prefix_at s off] is the 7 bytes of [s] from [off], big-endian, zero
    past its end: 56 bits, so the int stays non-negative. *)
val prefix_at : string -> int -> int

(** [mismatch a b] is the length of the common prefix of [a] and [b]. *)
val mismatch : string -> string -> int

(** [against_common common key] is 0 when [key] starts with [common],
    else below (< 0) or above (> 0) every key that starts with it. *)
val against_common : string -> string -> int
