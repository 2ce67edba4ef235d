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

(** [verify_page_bytes b ~page] raises {!Corrupt} on mismatch, reporting
    [page]. *)
val verify_page_bytes : Bytes.t -> page:int -> unit

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

(** [encode_record buf key ~lsn entry] appends one framed record,
    encoding each field once (the body length comes from the field
    sizes). *)
val encode_record : Buffer.t -> string -> lsn:int -> Kv.Entry.t -> unit

(** {2 In-place decoders}

    Each parses a record body lying at [[pos, stop)] of [s] without
    copying it out, materializing only the key and the entry. Every
    field must end by [stop] and the entry exactly at it; otherwise they
    raise {!Corrupt} (a short or long body, a bad entry tag). *)

(** [decode_body_at s pos ~stop] parses a body: [(key, entry, lsn)]. *)
val decode_body_at : string -> int -> stop:int -> string * Kv.Entry.t * int

(** [decode_value_at s pos ~stop] parses a body's [[varint lsn][entry]]
    tail: [(entry, lsn)]. *)
val decode_value_at : string -> int -> stop:int -> Kv.Entry.t * int

(** Per-table fence pointers: the page index in RAM, laid out in
    Eytzinger (BFS) order so the page-locating floor search walks a
    cache-resident, branch-predictable root-to-leaf path. Slots are
    1-indexed Eytzinger positions; in-order traversal visits them in
    sorted key order. *)
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
      table). Branch-free Eytzinger descent. *)
  val locate : t -> string -> int option

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
