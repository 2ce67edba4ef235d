(** CRC32C (Castagnoli) checksums. Page headers and log records carry a
    CRC so recovery can detect torn writes (§4.4.2). The fold runs in a C
    kernel: the SSE4.2 [crc32] instruction on x86-64 CPUs that have it
    (three interleaved chains over long slices), a portable slice-by-8
    table loop elsewhere, picked once at first use.
    Both give identical values, so the on-disk format does not depend on
    the host. *)

(** [update crc s pos len] folds a slice into a running (pre-inverted)
    state; compose incrementally or use {!string}/{!bytes}. Raises
    [Invalid_argument] unless [0 <= pos], [0 <= len] and
    [pos + len <= String.length s]. *)
val update : int -> string -> int -> int -> int

(** CRC32C of a whole string (CRC32C("123456789") = 0xE3069283). *)
val string : string -> int

(** CRC32C of a byte-buffer slice; same bounds as {!update}. *)
val bytes : bytes -> int -> int -> int

(** The kernel {!update} dispatches to: ["sse4.2"] or ["slice8"]. *)
val kernel : unit -> string

(** {!update} forced onto the portable slice-by-8 kernel, whatever the
    host. For tests that cover the kernel an SSE4.2 host never selects. *)
val update_slice8 : int -> string -> int -> int -> int
