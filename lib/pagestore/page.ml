(** Page-level byte helpers shared by the SSTable and B-Tree formats.

    Pages are fixed-size byte buffers. bLSM uses 4 KB pages — the minimum
    SSD transfer size, which also improves cache behaviour for workloads
    with poor locality (Appendix A.2) — while InnoDB used 16 KB (§5.3);
    both engines take the page size from their store's configuration. *)

let default_size = 4096

type id = int

(* A page format's read-side check; see page.mli. *)
type check = Bytes.t -> int -> Bytes.t -> page:id -> unit

(** Little-endian fixed-width integer accessors. *)

let get_u16 b pos = Char.code (Bytes.get b pos) lor (Char.code (Bytes.get b (pos + 1)) lsl 8)

let set_u16 b pos v =
  Bytes.set b pos (Char.chr (v land 0xFF));
  Bytes.set b (pos + 1) (Char.chr ((v lsr 8) land 0xFF))

let get_u32 b pos =
  get_u16 b pos lor (get_u16 b (pos + 2) lsl 16)

let set_u32 b pos v =
  set_u16 b pos (v land 0xFFFF);
  set_u16 b (pos + 2) ((v lsr 16) land 0xFFFF)

let get_u64 b pos =
  (* Fits OCaml's 63-bit int for every quantity we store (offsets, counts,
     timestamps); asserts if the top byte would overflow. *)
  let lo = get_u32 b pos in
  let hi = get_u32 b (pos + 4) in
  assert (hi land 0x8000_0000 = 0 || hi lsr 31 = 0);
  lo lor (hi lsl 32)

let set_u64 b pos v =
  set_u32 b pos (v land 0xFFFF_FFFF);
  set_u32 b (pos + 4) ((v lsr 32) land 0x7FFF_FFFF)

(** [blit_string s b pos] copies all of [s] into [b] at [pos]. *)
let blit_string s b pos = Bytes.blit_string s 0 b pos (String.length s)

(** [sub_string b pos len] extracts a string slice. *)
let sub_string b pos len = Bytes.sub_string b pos len
