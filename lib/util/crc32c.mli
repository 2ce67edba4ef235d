(** CRC32C (Castagnoli) checksums. Page headers and log records carry a
    CRC so recovery can detect torn writes (§4.4.2). The fold runs in a C
    kernel picked once at first use: carry-less-multiply folding on
    x86-64 (four 512-bit VPCLMULQDQ accumulators where the CPU has
    AVX-512, four 128-bit PCLMULQDQ ones otherwise), a portable
    slice-by-8 table loop elsewhere. All give identical values, so the
    on-disk format does not depend on the host. *)

(** [update crc s pos len] folds a slice into a running (pre-inverted)
    state; compose incrementally or use {!string}/{!bytes}. Raises
    [Invalid_argument] unless [0 <= pos], [0 <= len] and
    [pos + len <= String.length s]. *)
val update : int -> string -> int -> int -> int

(** [copy_update crc src spos dst dpos len] copies [len] bytes of [src]
    from [spos] to [dst] at [dpos] and returns [update crc src spos len],
    reading each byte once. Raises [Invalid_argument] unless both slices
    are in range and, when [dst] is [src]'s buffer, the slices are the
    same or disjoint (the same slice is only folded). *)
val copy_update : int -> string -> int -> bytes -> int -> int -> int

(** CRC32C of a whole string (CRC32C("123456789") = 0xE3069283). *)
val string : string -> int

(** CRC32C of a byte-buffer slice; same bounds as {!update}. *)
val bytes : bytes -> int -> int -> int

(** The kernels, narrowest first. *)
type kernel = Slice8 | Pclmul128 | Vpclmul512

val all : kernel list

(** ["slice8"], ["pclmul128"] or ["vpclmul512"]. *)
val name : kernel -> string

(** Whether this host can run the kernel: slice-by-8 everywhere, and
    every x86 width up to the one {!update} selected. *)
val supported : kernel -> bool

(** The name of the kernel {!update} and {!copy_update} dispatch to. *)
val kernel : unit -> string

(** {!update} and {!copy_update} forced onto one kernel, for tests that
    cover the kernels a host does not select. Raise [Invalid_argument]
    when the host cannot run it ({!supported}). *)
val update_with : kernel -> int -> string -> int -> int -> int

val copy_update_with :
  kernel -> int -> string -> int -> bytes -> int -> int -> int
