(** CRC32C (Castagnoli) checksums.

    Page headers and log records carry a CRC so that recovery can detect
    torn writes, mirroring the checks Stasis performs for bLSM (§4.4.2).

    The fold runs in C ([crc32c_stubs.c]): on x86-64 CPUs with SSE4.2 it
    uses the [crc32] instruction, 8 bytes per instruction; elsewhere a
    portable slice-by-8 table loop. The kernel is picked once, at first
    use. Both compute the same function, so stored checksums do not
    depend on the host. The bounds check below is the only guard before
    the stub reads raw memory. *)

external raw_update :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) = "caml_crc32c_update_byte" "caml_crc32c_update"
[@@noalloc]

external raw_update_slice8 :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) = "caml_crc32c_update_slice8_byte" "caml_crc32c_update_slice8"
[@@noalloc]

external raw_kernel : unit -> (int[@untagged])
  = "caml_crc32c_kernel_byte" "caml_crc32c_kernel"
[@@noalloc]

(* [pos + len] could overflow; [length - len] cannot once [len >= 0]. *)
let check_slice name s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg name

(** [update crc s pos len] folds [len] bytes of [s] starting at [pos] into
    a running checksum. Start from [0xFFFFFFFF]-complemented state via
    {!string} unless composing incrementally. *)
let update crc s pos len =
  check_slice "Crc32c.update" s pos len;
  raw_update crc s pos len

let update_slice8 crc s pos len =
  check_slice "Crc32c.update_slice8" s pos len;
  raw_update_slice8 crc s pos len

let kernel () = if raw_kernel () = 1 then "sse4.2" else "slice8"

(** [string s] is the CRC32C of the whole string. *)
let string s =
  let crc = update 0xFFFFFFFF s 0 (String.length s) in
  crc lxor 0xFFFFFFFF

(** [bytes b pos len] checksums a slice of a byte buffer (no copy: the
    buffer is aliased for the duration of the fold). *)
let bytes b pos len =
  let crc = update 0xFFFFFFFF (Bytes.unsafe_to_string b) pos len in
  crc lxor 0xFFFFFFFF
