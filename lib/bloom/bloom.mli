(** Bloom filter with double hashing (§4.4.3).

    Probes are g_i(x) = h1(x) + i*h2(x) (Kirsch–Mitzenmacher), giving the
    asymptotics of k independent hashes from two. At the paper's 10
    bits/item with the optimal hash count, false positives stay below 1%
    (§3.1). Updates are monotonic (bits only go 0 -> 1), so readers never
    need to be insulated from concurrent updates. *)

(** The filter layout. There is one: k probes spread over the whole bit
    array. The type stays so that configurations naming the layout
    ([Blsm.Config.t.bloom_kind], which the perfbench replay passes on)
    keep building. *)
type kind = Standard

type t

(** [create ?bits_per_item ~expected_items ()] sizes the filter for
    [expected_items] insertions. [bits_per_item] defaults to 10. *)
val create : ?bits_per_item:int -> expected_items:int -> unit -> t

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
    scans, §4.4.3). The encoding is byte-identical to the seed's:
    [varint nbits][varint hashes][varint inserted][bits]. *)

val to_string : t -> string

(** [of_string s] decodes {!to_string}'s output. [Error why] unless the
    header is one {!create} can produce and the bit array has exactly the
    length it states: at least 64 bits, at least one hash,
    [(nbits + 7) / 8] bytes and nothing after them. *)
val of_string : string -> (t, string) result
