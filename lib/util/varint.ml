(** LEB128-style variable-length integer encoding.

    Used by the SSTable data-page format and the write-ahead log so that
    small keys and values pay small headers, as in the paper's append-only
    data page layout (Appendix A.2). *)

(** [write buf n] appends the varint encoding of [n] (must be >= 0). *)
let write buf n =
  if n < 0 then invalid_arg "Varint.write: negative";
  (* A loop, not a local recursive closure over [buf]: writing a varint
     allocates nothing once the buffer has room. *)
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!n land 0x7F)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

(** [set b pos n] writes the varint encoding of [n] (must be >= 0) into
    [b] at [pos] and returns the position after it: the in-place twin of
    {!write}, for writers that size their output up front. *)
let set b pos n =
  if n < 0 then invalid_arg "Varint.set: negative";
  let n = ref n and p = ref pos in
  while !n >= 0x80 do
    Bytes.set b !p (Char.unsafe_chr (0x80 lor (!n land 0x7F)));
    n := !n lsr 7;
    incr p
  done;
  Bytes.set b !p (Char.unsafe_chr !n);
  !p + 1

(** [read s pos] decodes a varint at [pos]; returns [(value, next_pos)].
    Raises [Invalid_argument] on truncated or oversized input. *)
let read s pos =
  let len = String.length s in
  let rec go acc shift pos =
    if pos >= len then invalid_arg "Varint.read: truncated";
    if shift > 62 then invalid_arg "Varint.read: overflow";
    let b = Char.code s.[pos] in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b < 0x80 then (acc, pos + 1) else go acc (shift + 7) (pos + 1)
  in
  go 0 0 pos

(** [read_within s pos ~stop] decodes the varint at [pos], which must end
    before [stop] and be minimal (as {!write} emits it), so the next field
    starts exactly [size v] bytes on. No tuple is built: bounded in-place
    decoders call it once per field. Raises [Invalid_argument] when the
    varint is truncated by [stop], overlong, or does not fit in 62 bits. *)
let read_within s pos ~stop =
  if stop > String.length s then invalid_arg "Varint.read_within: stop";
  (* A loop over local refs, not a recursive closure: nothing allocates. *)
  let acc = ref 0 and shift = ref 0 and p = ref pos and more = ref true in
  while !more do
    if !p >= stop then invalid_arg "Varint.read_within: truncated";
    let b = Char.code (String.unsafe_get s !p) in
    acc := !acc lor ((b land 0x7F) lsl !shift);
    if b >= 0x80 then begin
      if !shift >= 56 then invalid_arg "Varint.read_within: overflow";
      shift := !shift + 7;
      incr p
    end
    else begin
      if b = 0 && !p > pos then invalid_arg "Varint.read_within: overlong";
      more := false
    end
  done;
  if !acc < 0 then invalid_arg "Varint.read_within: overflow";
  !acc

(** [read_bytes b pos] is [read] over a [Bytes.t] buffer. *)
let read_bytes b pos =
  read (Bytes.unsafe_to_string b) pos

(** [size n] is the encoded length of [n] in bytes. *)
let size n =
  if n < 0 then invalid_arg "Varint.size: negative";
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1
