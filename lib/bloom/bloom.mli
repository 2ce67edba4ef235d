(** Bloom filter with double hashing (§4.4.3).

    Probes are g_i(x) = h1(x) + i*h2(x) (Kirsch–Mitzenmacher), giving the
    asymptotics of k independent hashes from two. At the paper's 10
    bits/item with the optimal hash count, false positives stay below 1%
    (§3.1). Updates are monotonic (bits only go 0 -> 1), so readers never
    need to be insulated from concurrent updates. *)

(** Filter memory layout. [Standard]: k probes spread over the whole bit
    array (the seed's filter, best false-positive rate). [Blocked]: all
    of a key's probes confined to one 64-byte block chosen by h1, two
    9-bit probe positions carved from each derived hash — one cache
    line per membership test and half the hash arithmetic, at a small
    block-load-variance false-positive penalty (same bits-per-key
    budget). *)
type kind = Standard | Blocked

(** Bits per cache-line block of the {!Blocked} layout (512). *)
val block_bits : int

type t

(** [create ?kind ?bits_per_item ~expected_items ()] sizes the filter
    for [expected_items] insertions. [bits_per_item] defaults to 10,
    [kind] to {!Standard}; {!Blocked} rounds the array up to whole
    512-bit blocks. *)
val create : ?kind:kind -> ?bits_per_item:int -> expected_items:int -> unit -> t

val kind : t -> kind

(** [add t key] inserts [key]; there is no delete (components are
    append-only). *)
val add : t -> string -> unit

(** [mem t key] is [false] only if [key] was definitely never added. *)
val mem : t -> string -> bool

val inserted : t -> int
val size_bytes : t -> int

(** Expected false-positive rate at the current fill:
    (1 - e^(-kn/m))^k. *)
val expected_fp_rate : t -> float

(** {1 Serialization} — tests, tooling, and the optional persisted-filter
    path; bLSM's default does not persist filters (rebuilt by post-crash
    scans, §4.4.3). The [Standard] encoding is byte-identical to the
    seed's; [Blocked] is flagged by a leading 0x00 (impossible for the
    Standard form, whose leading nbits varint is >= 64). *)

val to_string : t -> string

(** [of_string s] decodes {!to_string}'s output. [Error why] unless the
    header is one {!create} can produce and the bit array has exactly the
    length it states: at least 64 bits, whole 512-bit blocks for
    [Blocked], at least one hash, [(nbits + 7) / 8] bytes and nothing
    after them. *)
val of_string : string -> (t, string) result
