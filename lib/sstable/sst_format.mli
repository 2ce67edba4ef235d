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

(** Page/record layout version. [V1]: full key per record (the seed's
    format, bytes unchanged). [V2]: keys prefix-compressed within a page
    (restart points every {!restart_interval} records) and a per-page
    zone map (last key starting in the page) in the index; stamped with
    the "SST2" footer magic. The outer record framing is identical, so
    {!record_starts} and spill handling are version-blind. *)
type version = V1 | V2

(** Every [restart_interval]-th record starting in a V2 page stores its
    full key; the ones between store only a suffix. *)
val restart_interval : int

(** Length of the longest common prefix. *)
val shared_prefix_len : string -> string -> int
[@@lint.allow "U001"] (* format-inspection helper for tooling *)

(** [encode_record buf key ~lsn entry] appends one framed record. *)
val encode_record : Buffer.t -> string -> lsn:int -> Kv.Entry.t -> unit

(** [decode_body s] parses a record body: [(key, entry, lsn)]. *)
val decode_body : string -> string * Kv.Entry.t * int

(** [encode_record_v2 buf ~prev key ~lsn entry] appends one framed V2
    record; [prev] is the previous key starting in the same page ([""]
    forces a restart). *)
val encode_record_v2 :
  Buffer.t -> prev:string -> string -> lsn:int -> Kv.Entry.t -> unit

(** [decode_body_v2 ~prev s] parses a V2 body, reconstructing the key
    from [prev]'s shared prefix plus the stored suffix. Raises
    {!Corrupt} if the shared length exceeds [prev] (rotted varint). *)
val decode_body_v2 : prev:string -> string -> string * Kv.Entry.t * int

(** Per-table fence pointers: the page index in RAM, laid out in
    Eytzinger (BFS) order so the page-locating floor search walks a
    cache-resident, branch-predictable root-to-leaf path. Slots are
    1-indexed Eytzinger positions; in-order traversal visits them in
    sorted key order. *)
module Fence : sig
  type t

  (** [of_sorted ?maxes ~keys ~pos ()] builds the fence from the sorted
      index arrays (first key starting in each page, its chain position,
      and optionally the page zone maps). *)
  val of_sorted :
    ?maxes:string array -> keys:string array -> pos:int array -> unit -> t

  (** Number of fenced pages. *)
  val length : t -> int

  (** First key starting in the slot's page. *)
  val key : t -> int -> string

  (** Chain position of the slot's data page. *)
  val page_pos : t -> int -> int

  (** Largest key starting in the slot's page; [None] when the format
      carries no zone maps (V1). *)
  val zone_max : t -> int -> string option

  val has_zone_maps : t -> bool
  [@@lint.allow "U001"] (* format-inspection probe *)

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
  version : version;  (** layout version, encoded as the footer magic *)
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

(** Raises {!Corrupt} on bad magic, garbled encoding, or checksum
    mismatch. *)
val decode_footer : string -> footer
