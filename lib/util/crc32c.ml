(** CRC32C (Castagnoli) checksums.

    Page headers and log records carry a CRC so that recovery can detect
    torn writes, mirroring the checks Stasis performs for bLSM (§4.4.2).

    The fold runs in C ([crc32c_stubs.c]): on x86-64 it folds 64-byte
    blocks with carry-less multiplies, in four 512-bit accumulators where
    the CPU has AVX-512 VPCLMULQDQ and four 128-bit ones where it has
    PCLMULQDQ; elsewhere a portable slice-by-8 table loop. The kernel is
    picked once, at first use. All compute the same function, so stored
    checksums do not depend on the host. The bounds checks below are the
    only guard before the stub reads or writes raw memory. *)

external raw_update :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) ->
  (int[@untagged]) = "caml_crc32c_update_byte" "caml_crc32c_update"
[@@noalloc]

external raw_copy_update :
  (int[@untagged]) -> string -> (int[@untagged]) -> bytes ->
  (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "caml_crc32c_copy_update_byte" "caml_crc32c_copy_update"
[@@noalloc]

external raw_update_with :
  (int[@untagged]) -> (int[@untagged]) -> string -> (int[@untagged]) ->
  (int[@untagged]) -> (int[@untagged])
  = "caml_crc32c_update_with_byte" "caml_crc32c_update_with"
[@@noalloc]

external raw_copy_update_with :
  (int[@untagged]) -> (int[@untagged]) -> string -> (int[@untagged]) ->
  bytes -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "caml_crc32c_copy_update_with_byte" "caml_crc32c_copy_update_with"
[@@noalloc]

external raw_kernel : unit -> (int[@untagged])
  = "caml_crc32c_kernel_byte" "caml_crc32c_kernel"
[@@noalloc]

external raw_supported : (int[@untagged]) -> (int[@untagged])
  = "caml_crc32c_supported_byte" "caml_crc32c_supported"
[@@noalloc]

(* [pos + len] could overflow; [length - len] cannot once [len >= 0]. *)
let check_slice name s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg name

(* Both slices in range, and not two different overlapping slices of
   one buffer: the kernel stores each block after loading it, which is
   exact only when the slices are disjoint or the same. *)
let check_copy name src spos dst dpos len =
  check_slice name src spos len;
  check_slice name (Bytes.unsafe_to_string dst) dpos len;
  if src == Bytes.unsafe_to_string dst && spos <> dpos
     && spos < dpos + len && dpos < spos + len
  then invalid_arg name

(** [update crc s pos len] folds [len] bytes of [s] starting at [pos] into
    a running checksum. Start from [0xFFFFFFFF]-complemented state via
    {!string} unless composing incrementally. *)
let update crc s pos len =
  check_slice "Crc32c.update" s pos len;
  raw_update crc s pos len

let copy_update crc src spos dst dpos len =
  check_copy "Crc32c.copy_update" src spos dst dpos len;
  raw_copy_update crc src spos dst dpos len

type kernel = Slice8 | Pclmul128 | Vpclmul512

(* The stub's ids. *)
let id = function Slice8 -> 0 | Pclmul128 -> 1 | Vpclmul512 -> 2
let all = [ Slice8; Pclmul128; Vpclmul512 ]

let name = function
  | Slice8 -> "slice8"
  | Pclmul128 -> "pclmul128"
  | Vpclmul512 -> "vpclmul512"

let supported k = raw_supported (id k) = 1
let kernel () = name (List.find (fun k -> id k = raw_kernel ()) all)

let check_supported fname k =
  if not (supported k) then invalid_arg (fname ^ ": " ^ name k ^ " unsupported")

let update_with k crc s pos len =
  check_supported "Crc32c.update_with" k;
  check_slice "Crc32c.update_with" s pos len;
  raw_update_with (id k) crc s pos len

let copy_update_with k crc src spos dst dpos len =
  check_supported "Crc32c.copy_update_with" k;
  check_copy "Crc32c.copy_update_with" src spos dst dpos len;
  raw_copy_update_with (id k) crc src spos dst dpos len

(** [string s] is the CRC32C of the whole string. *)
let string s =
  let crc = update 0xFFFFFFFF s 0 (String.length s) in
  crc lxor 0xFFFFFFFF

(** [bytes b pos len] checksums a slice of a byte buffer (no copy: the
    buffer is aliased for the duration of the fold). *)
let bytes b pos len =
  let crc = update 0xFFFFFFFF (Bytes.unsafe_to_string b) pos len in
  crc lxor 0xFFFFFFFF
