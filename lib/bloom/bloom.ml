(** Bloom filter with double hashing.

    Follows §4.4.3: the filter is "based upon double hashing" (Kirsch and
    Mitzenmacher: two independent hashes g_i(x) = h1(x) + i*h2(x) give the
    same asymptotic false-positive rate as k independent hashes). One
    filter guards each on-disk tree component; it is created when a merge
    creates the component, sized from the component's key count for a
    false-positive rate below 1%, and never needs deletions because the
    on-disk trees are append-only.

    10 bits per item with the optimal number of hashes gives ~1% false
    positives (§3.1); at 1000-byte values this is the paper's ~5% memory
    overhead (Appendix A). *)

type kind = Standard

type t = {
  bits : Bytes.t;
  nbits : int;
  hashes : int;
  mutable inserted : int;
}

(* 64-bit FNV-1a over the key, then two mixes to derive h1/h2. A
   closure-free loop over a local ref, inlined into its callers: the
   compiler keeps every Int64 unboxed, so hashing a key allocates
   nothing. *)
let[@inline] fnv1a s =
  let h = ref 0xCBF29CE484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001B3L
  done;
  !h

let[@inline] mix h =
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xFF51AFD7ED558CCDL in
  Int64.logxor h (Int64.shift_right_logical h 29)

let[@inline] hash1 h = Int64.to_int (Int64.logand h 0x3FFFFFFFFFFFFFFFL)

(* Odd, so the stride hits every bit position. *)
let[@inline] hash2 h =
  Int64.to_int (Int64.logand (mix h) 0x3FFFFFFFFFFFFFFFL) lor 1

(** [create ~expected_items ~bits_per_item ()] sizes the filter for
    [expected_items] insertions. [bits_per_item] defaults to 10 (the
    paper's choice, <1% false positives). *)
let create ?(bits_per_item = 10) ~expected_items () =
  let expected_items = max 1 expected_items in
  let nbits = max 64 (expected_items * bits_per_item) in
  (* Optimal hash count k = m/n * ln 2 ~= 0.693 * bits_per_item. *)
  let hashes = max 1 (int_of_float (0.6931 *. float_of_int bits_per_item +. 0.5)) in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; hashes; inserted = 0 }

let set_bit t i =
  let byte = i lsr 3 and bit = i land 7 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))

let get_bit t i =
  let byte = i lsr 3 and bit = i land 7 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

(* Probe i is (h1 + i*h2) mod nbits, both hashes first
   reduced below nbits so the arithmetic cannot overflow (a zero stride
   would probe one bit repeatedly, so it becomes 1). The probes walk
   [b := b + stride], less nbits on wrap: b and the stride are both
   below nbits, so one subtraction is the whole reduction and probe i
   lands on exactly (h1 + i*h2) mod nbits, with no division per probe. *)
let[@inline] standard_stride t h2 =
  let h = h2 mod t.nbits in
  if h = 0 then 1 else h

(** [add t key] inserts [key]. Updates are monotonic (bits only go 0->1),
    which is why bLSM readers never need to be insulated from concurrent
    filter updates (§4.4.3). *)
let add t key =
  let h = fnv1a key in
  let stride = standard_stride t (hash2 h) in
  let b = ref (hash1 h mod t.nbits) in
  for _ = 1 to t.hashes do
    set_bit t !b;
    b := !b + stride;
    if !b >= t.nbits then b := !b - t.nbits
  done;
  t.inserted <- t.inserted + 1

(** [mem t key] is [false] only if [key] was definitely never added. *)
let mem t key =
  let h = fnv1a key in
  let stride = standard_stride t (hash2 h) in
  let b = ref (hash1 h mod t.nbits) and i = ref 0 in
  while !i < t.hashes && get_bit t !b do
    b := !b + stride;
    if !b >= t.nbits then b := !b - t.nbits;
    incr i
  done;
  !i >= t.hashes

let inserted t = t.inserted

let size_bytes t = Bytes.length t.bits

(** Expected false-positive rate at the current fill. *)
let expected_fp_rate t =
  let k = float_of_int t.hashes in
  let n = float_of_int t.inserted in
  let m = float_of_int t.nbits in
  (1.0 -. exp (-.k *. n /. m)) ** k

(** {1 Serialization} — used by tests, tooling, and the optional
    persisted-filter path; bLSM's default deliberately does *not*
    persist filters (they are rebuilt by post-crash merges, §4.4.3). *)

let to_string t =
  let buf = Buffer.create (size_bytes t + 16) in
  Repro_util.Varint.write buf t.nbits;
  Repro_util.Varint.write buf t.hashes;
  Repro_util.Varint.write buf t.inserted;
  Buffer.add_bytes buf t.bits;
  Buffer.contents buf

(* A persisted blob is trusted only once its header is consistent with
   what [create] can produce and with its own length: a blob that passed
   its checksum can still carry a bad header (a writer bug, a different
   encoder), and a probe of such a filter would divide by zero or read
   out of bounds. *)
let of_string s =
  match
    let nbits, pos = Repro_util.Varint.read s 0 in
    let hashes, pos = Repro_util.Varint.read s pos in
    let inserted, pos = Repro_util.Varint.read s pos in
    (nbits, hashes, inserted, pos)
  with
  | exception Invalid_argument _ -> Error "truncated header"
  | nbits, hashes, inserted, pos ->
      let nbytes = (nbits + 7) / 8 in
      if nbits < 64 then Error "fewer than 64 bits"
      else if hashes < 1 then Error "no hash functions"
      else if String.length s - pos <> nbytes then
        Error "bit array length mismatch"
      else
        let bits = Bytes.of_string (String.sub s pos nbytes) in
        Ok { bits; nbits; hashes; inserted }
