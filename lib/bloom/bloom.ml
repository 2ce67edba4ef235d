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
    overhead (Appendix A).

    Two layouts share that budget. [Standard] spreads the k probes over
    the whole bit array — the seed's filter, best false-positive rate.
    [Blocked] confines all probes of a key to one 64-byte (512-bit)
    block chosen by h1, so a membership test touches a single cache
    line; probe positions come in pairs carved from each derived hash
    (two 9-bit fields of g_i — the "double-probe" scheme), halving the
    hash arithmetic per test. The price is a small false-positive
    penalty from block-load variance (Poisson-distributed keys per
    block); see DESIGN.md §12 for the math. *)

type kind = Standard | Blocked

(** Bits per cache-line block of the {!Blocked} layout. *)
let block_bits = 512

type t = {
  kind : kind;
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
    paper's choice, <1% false positives); [kind] to {!Standard}. The
    {!Blocked} layout rounds the array up to whole 512-bit blocks. *)
let create ?(kind = Standard) ?(bits_per_item = 10) ~expected_items () =
  let expected_items = max 1 expected_items in
  let nbits = max 64 (expected_items * bits_per_item) in
  let nbits =
    match kind with
    | Standard -> nbits
    | Blocked -> (nbits + block_bits - 1) / block_bits * block_bits
  in
  (* Optimal hash count k = m/n * ln 2 ~= 0.693 * bits_per_item. *)
  let hashes = max 1 (int_of_float (0.6931 *. float_of_int bits_per_item +. 0.5)) in
  { kind; bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; hashes; inserted = 0 }

let kind t = t.kind

let set_bit t i =
  let byte = i lsr 3 and bit = i land 7 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))

let get_bit t i =
  let byte = i lsr 3 and bit = i land 7 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

(* Standard layout: probe i is (h1 + i*h2) mod nbits, both hashes first
   reduced below nbits so the arithmetic cannot overflow (a zero stride
   would probe one bit repeatedly, so it becomes 1). The probes walk
   [b := b + stride], less nbits on wrap: b and the stride are both
   below nbits, so one subtraction is the whole reduction and probe i
   lands on exactly (h1 + i*h2) mod nbits, with no division per probe. *)
let[@inline] standard_stride t h2 =
  let h = h2 mod t.nbits in
  if h = 0 then 1 else h

(* Blocked layout: h1 picks the 512-bit block; each derived value yields
   two 9-bit in-block positions, so ceil(k/2) derived hashes cover all k
   probes. Derivation is a multiplicative congruential step per pair
   (g := g * K mod 2^62, K odd, h2 odd so the state never degenerates),
   reading the two positions from g's well-mixed high bits. The feedback
   matters: an additive walk (g += h2) makes g_i a small multiple of h2,
   and high-bit windows of u, 2u, 3u, ... overlap almost bit-for-bit, so
   probe pairs correlate across derivations and the measured
   false-positive rate lands several times above the block-load-variance
   bound; the per-step multiply gives pair i the effective multiplier
   K^(i+1), decorrelating the windows (measured FP sits at the Poisson
   floor, ~1.15x Standard). [add] and [mem] each run this walk inline,
   so a probe builds no closure. *)
let blocked_mul = 0x2545F4914F6CDD1D

let[@inline] blocked_base t h1 = h1 mod (t.nbits / block_bits) * block_bits
let[@inline] blocked_step g = g * blocked_mul land max_int
let[@inline] blocked_first base v = base + (v land (block_bits - 1))
let[@inline] blocked_second base v = base + (v lsr 9 land (block_bits - 1))

(** [add t key] inserts [key]. Updates are monotonic (bits only go 0->1),
    which is why bLSM readers never need to be insulated from concurrent
    filter updates (§4.4.3). *)
let add t key =
  let h = fnv1a key in
  (match t.kind with
  | Standard ->
      let stride = standard_stride t (hash2 h) in
      let b = ref (hash1 h mod t.nbits) in
      for _ = 1 to t.hashes do
        set_bit t !b;
        b := !b + stride;
        if !b >= t.nbits then b := !b - t.nbits
      done
  | Blocked ->
      let base = blocked_base t (hash1 h) in
      let g = ref (hash2 h) in
      for i = 0 to ((t.hashes + 1) / 2) - 1 do
        g := blocked_step !g;
        let v = !g lsr 38 in
        set_bit t (blocked_first base v);
        if (2 * i) + 1 < t.hashes then set_bit t (blocked_second base v)
      done);
  t.inserted <- t.inserted + 1

(** [mem t key] is [false] only if [key] was definitely never added. *)
let mem t key =
  let h = fnv1a key in
  match t.kind with
  | Standard ->
      let stride = standard_stride t (hash2 h) in
      let b = ref (hash1 h mod t.nbits) and i = ref 0 in
      while !i < t.hashes && get_bit t !b do
        b := !b + stride;
        if !b >= t.nbits then b := !b - t.nbits;
        incr i
      done;
      !i >= t.hashes
  | Blocked ->
      let base = blocked_base t (hash1 h) in
      let npairs = (t.hashes + 1) / 2 in
      let g = ref (hash2 h) and i = ref 0 and hit = ref true in
      while !hit && !i < npairs do
        g := blocked_step !g;
        let v = !g lsr 38 in
        hit :=
          get_bit t (blocked_first base v)
          && ((2 * !i) + 1 >= t.hashes || get_bit t (blocked_second base v));
        incr i
      done;
      !hit

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
  (* Standard stays byte-identical to the seed's encoding. Blocked is
     flagged by a leading 0x00 byte — impossible as the first byte of
     the Standard form, whose leading varint (nbits) is >= 64. *)
  (match t.kind with Standard -> () | Blocked -> Buffer.add_char buf '\000');
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
  let kind, start =
    if String.length s > 0 && Char.equal s.[0] '\000' then (Blocked, 1)
    else (Standard, 0)
  in
  match
    let nbits, pos = Repro_util.Varint.read s start in
    let hashes, pos = Repro_util.Varint.read s pos in
    let inserted, pos = Repro_util.Varint.read s pos in
    (nbits, hashes, inserted, pos)
  with
  | exception Invalid_argument _ -> Error "truncated header"
  | nbits, hashes, inserted, pos ->
      let nbytes = (nbits + 7) / 8 in
      let whole_blocks =
        match kind with Standard -> true | Blocked -> nbits mod block_bits = 0
      in
      if nbits < 64 then Error "fewer than 64 bits"
      else if not whole_blocks then
        Error "blocked bit count not a multiple of 512"
      else if hashes < 1 then Error "no hash functions"
      else if String.length s - pos <> nbytes then
        Error "bit array length mismatch"
      else
        let bits = Bytes.of_string (String.sub s pos nbytes) in
        Ok { kind; bits; nbits; hashes; inserted }
