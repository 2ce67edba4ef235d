(** On-disk format of a tree component (see the .ml for the layout).

    A component is a chain of contiguous extents holding data pages, index
    pages, and one footer page. Data pages use the paper's append-only
    format with records spanning pages (Appendix A.2); each record stores
    the newest WAL LSN folded into it (recovery's replay filter). Every
    data page carries a CRC32C; index/Bloom blobs and the footer are
    sealed with whole-blob CRCs, so torn writes and bit rot are detected
    (typed {!Corrupt}) instead of decoded into garbage. *)

(** A checksum mismatch: the page (or blob, [page = -1]) does not contain
    what was written. *)
exception Corrupt of { what : string; page : int }

val header_bytes : int
val payload_capacity : page_size:int -> int

(** [seal_page b] computes and stores the page checksum (header and
    payload final). *)
val seal_page : Bytes.t -> unit

(** [page_ok_bytes b] checks a data page's checksum in place. *)
val page_ok_bytes : Bytes.t -> bool

(** [check_page src pos dst ~page] copies the data page at [src] from
    [pos] into [dst], folding its checksum over the bytes as it copies
    them, and raises {!Corrupt} (reporting [page]) on a mismatch, the
    whole page copied. [check_page b 0 b ~page] checks [b] in place. *)
val check_page : Pagestore.Page.check

(** [record_starts b] derives the in-page restart points (payload offset
    of each record beginning in this page, key order) from a
    CRC-verified data page; the on-disk format is unchanged. Only the
    final offset may belong to a record spilling past the page end. *)
val record_starts : Bytes.t -> int array

(** The page/record layout. There is one: every record stores its full
    key. The type stays so that configurations naming the layout
    ([Blsm.Config.t.page_format], which the perfbench replay passes on)
    keep building. *)
type version = V1

(** {2 In-place decoders}

    Each parses a record body lying at [[pos, stop)] of [s] without
    copying it out, materializing only the key and the entry. Every
    field must end by [stop] and the entry exactly at it; otherwise they
    raise {!Corrupt} (a short or long body, a bad entry tag). *)

(** [decode_body_at s pos ~stop] parses a body: [(key, entry, lsn)]. *)
val decode_body_at : string -> int -> stop:int -> string * Kv.Entry.t * int

(** A body's [[varint lsn][entry]] tail in two calls, building no
    pair: [lsn_at s pos ~stop] is its LSN, and [entry_after_lsn_at s pos
    ~lsn ~stop] the entry after that LSN's varint, which must end
    exactly at [stop]. *)
val lsn_at : string -> int -> stop:int -> int

val entry_after_lsn_at : string -> int -> lsn:int -> stop:int -> Kv.Entry.t

(** A record held as its wire bytes [[varint body_len][body]] in a
    reused buffer, with its key and LSN. The builder appends every
    record from one; a merge passes an unchanged input record on through
    one, never decoding its value. *)
module Framed : sig
  type t

  (** An empty frame; its buffer grows to the largest record it holds. *)
  val create : unit -> t

  (** [set t key ~lsn entry] encodes a record into [t], each field once
      (the body length comes from the field sizes). *)
  val set : t -> string -> lsn:int -> Kv.Entry.t -> unit

  (** [copy_body t s pos ~stop] takes the stored body at [[pos, stop)] of
      [s]: it checks every field against [stop] and the entry to end
      exactly there, as {!decode_body_at} does, then copies the body
      into [t] behind a minimal length varint. Only the key string is
      built. Raises {!Corrupt} on a malformed body. *)
  val copy_body : t -> string -> int -> stop:int -> unit

  val key : t -> string
  val lsn : t -> int

  (** Whether the entry is a tombstone. *)
  val tombstone : t -> bool

  (** The decoded entry (a record that must be merged). *)
  val entry : t -> Kv.Entry.t

  (** Key bytes plus encoded entry bytes: what a merge meters per input
      record. *)
  val record_bytes : t -> int

  (** The wire bytes are [[0, length t)] of [bytes t]. *)
  val bytes : t -> Bytes.t

  val length : t -> int
end

(** Per-table fence pointers: the page index in RAM, laid out in
    Eytzinger (BFS) order so the page-locating floor search walks a
    cache-resident, branch-predictable root-to-leaf path. Slots are
    1-indexed Eytzinger positions; in-order traversal visits them in
    sorted key order. Each slot also keeps its key's 7 bytes after the
    fence's common prefix as an unboxed int, so the descent compares
    integers and reads a key string only on a prefix tie. *)
module Fence : sig
  type t

  (** [of_sorted ~keys ~pos] builds the fence from the sorted index
      arrays (first key starting in each page and its chain position). *)
  val of_sorted : keys:string array -> pos:int array -> t

  (** Number of fenced pages. *)
  val length : t -> int

  (** First key starting in the slot's page. *)
  val key : t -> int -> string

  (** Chain position of the slot's data page. *)
  val page_pos : t -> int -> int

  (** Slot of the rightmost fence key [<= key] ([None]: key precedes the
      table). A probe that does not start with the fence's common prefix
      is settled by one comparison against it; otherwise a branch-free
      Eytzinger descent over integer key prefixes. *)
  val locate : t -> string -> int option

  (** [locate_pos t key] is the chain position of {!locate}'s slot, or
      [-1] where it is [None]: the point read's form, which allocates
      nothing. *)
  val locate_pos : t -> string -> int

  (** Reference linear in-order walk — the QCheck oracle {!locate} is
      held to. *)
  val locate_linear : t -> string -> int option

  (** Smallest slot in key order. *)
  val first_slot : t -> int option

  (** In-order successor slot ([None] at the maximum). *)
  val succ_slot : t -> int -> int option
end

(** Component descriptor: logical timestamp (§4.4.1), counts, LSN range,
    extents, index location, blob checksums. Doubles as the commit-root
    metadata blob; sealed by a trailing CRC of its own. *)
type footer = {
  timestamp : int;
  record_count : int;
  tombstone_count : int;
  data_bytes : int;  (** sum of record body bytes (user data) *)
  min_lsn : int;  (** smallest WAL LSN folded into any record (0: none) *)
  max_lsn : int;
  min_key : string;
  max_key : string;
  extents : (int * int) list;  (** (start page id, length), chain order *)
  data_pages : int;
  index_pages : int;
  index_entries : int;
  index_bytes : int;  (** exact blob length before page padding *)
  index_crc : int;  (** CRC32C of the index blob *)
  bloom_pages : int;  (** optional persisted Bloom filter after the index *)
  bloom_bytes : int;
  bloom_crc : int;  (** CRC32C of the Bloom blob *)
}

val encode_footer : footer -> string

(** Raises {!Corrupt} on bad magic (anything but ["SSTF"]), garbled encoding, or checksum
    mismatch. *)
val decode_footer : string -> footer
