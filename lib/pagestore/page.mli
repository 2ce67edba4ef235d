(** Page-level byte helpers shared by the SSTable and B-Tree formats.
    Little-endian fixed-width accessors over fixed-size page buffers. *)

(** 4096: the minimum SSD transfer size (Appendix A.2). *)
val default_size : int

type id = int

(** A page format's read-side check, run while a page is copied off the
    platter: [check src pos dst ~page] copies the page at
    [src.[pos, pos + Bytes.length dst)] into [dst] and raises unless it
    carries a valid checksum, folding the checksum over the bytes as it
    copies them, so they are read once. It copies the whole page before
    it raises. [check b 0 b ~page] checks [b] in place. *)
type check = Bytes.t -> int -> Bytes.t -> page:id -> unit

val get_u16 : Bytes.t -> int -> int
[@@lint.allow "U001"] (* accessor family kept symmetric with the setters *)
val set_u16 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int
[@@lint.allow "U001"] (* accessor family kept symmetric with the setters *)
val set_u32 : Bytes.t -> int -> int -> unit
val get_u64 : Bytes.t -> int -> int
[@@lint.allow "U001"] (* accessor family kept symmetric with the setters *)
val set_u64 : Bytes.t -> int -> int -> unit

(** [blit_string s b pos] copies all of [s] into [b] at [pos]. *)
val blit_string : string -> Bytes.t -> int -> unit

val sub_string : Bytes.t -> int -> int -> string
[@@lint.allow "U001"] (* accessor family completeness *)
