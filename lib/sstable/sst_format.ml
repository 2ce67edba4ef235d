(** On-disk format of a tree component.

    A component is a chain of contiguous extents holding, in order: data
    pages, index pages, and one footer page. Data pages use the paper's
    "simple append-only data page format that efficiently stores records
    that span multiple pages and bounds the fraction of space wasted by
    inconveniently sized records" (Appendix A.2).

    Data page layout:
    {v
      u16 @0  n_starts   records beginning in this page
      u32 @2  cont_len   leading payload bytes that belong to a record
                         begun on an earlier page
      u32 @6  crc32c     over header [0,6) ++ payload [10, page_size)
      payload [10, page_size)
    v}

    Every data page carries a CRC32C so that torn writes and bit rot are
    *detected* — the read path verifies before decoding, and a mismatch
    raises the typed {!Corrupt} instead of yielding garbage records.
    Index and Bloom pages are raw blob bytes; their integrity is covered
    by whole-blob CRCs stored in the footer, and the footer blob itself
    is sealed with a trailing CRC.

    A record on the wire is [varint body_len][body] where
    [body = varint key_len ++ key ++ varint lsn ++ entry] (see
    {!Kv.Entry.write}). The LSN is the newest write-ahead-log sequence
    number folded into the record; recovery uses it to skip WAL records
    whose effect is already durable — without it, replaying a delta that
    a committed merge already applied would apply it twice (Rose, the
    paper's substrate, tracks LSNs for the same reason).
    Bodies flow across page boundaries without padding, so the waste per
    page is at most the final partial varint — a few bytes. *)

(** A checksum mismatch: the page (or blob, [page = -1]) does not contain
    what was written. Never decoded past — "no silent garbage". *)
exception Corrupt of { what : string; page : int }

let header_bytes = 10

let crc_offset = 6

let payload_capacity ~page_size = page_size - header_bytes

(* CRC32C over the page with the checksum field skipped: header [0,6)
   then payload [10, page_size). *)
let page_crc s =
  let c = Repro_util.Crc32c.update 0xFFFFFFFF s 0 crc_offset in
  let c = Repro_util.Crc32c.update c s header_bytes (String.length s - header_bytes) in
  c lxor 0xFFFFFFFF

(** [seal_page b] computes and stores the page checksum; the builder
    calls this once the header and payload are final. *)
let seal_page b =
  Pagestore.Page.set_u32 b crc_offset (page_crc (Bytes.unsafe_to_string b))

let stored_page_crc s =
  Char.code s.[crc_offset]
  lor (Char.code s.[crc_offset + 1] lsl 8)
  lor (Char.code s.[crc_offset + 2] lsl 16)
  lor (Char.code s.[crc_offset + 3] lsl 24)

(** [page_ok_bytes b] checks a data page's checksum in place (the buffer
    is aliased only for the duration of the fold). *)
let page_ok_bytes b =
  let s = Bytes.unsafe_to_string b in
  page_crc s = stored_page_crc s

(** [check_page src pos dst ~page] copies the data page at [src.[pos,
    pos + Bytes.length dst)] into [dst] and raises {!Corrupt} (reporting
    [page], the platter page id) unless its checksum holds. The checksum
    is folded over the bytes as they are copied, header [0,6) and payload
    [10, page_size), the stored field copied between them; [check_page b
    0 b ~page] checks [b] in place. The read side of the page format
    ({!Pagestore.Page.check}). *)
let check_page src pos dst ~page =
  let s = Bytes.unsafe_to_string src in
  let n = Bytes.length dst in
  let c = Repro_util.Crc32c.copy_update 0xFFFFFFFF s pos dst 0 crc_offset in
  Bytes.blit src (pos + crc_offset) dst crc_offset (header_bytes - crc_offset);
  let c =
    Repro_util.Crc32c.copy_update c s (pos + header_bytes) dst header_bytes
      (n - header_bytes)
  in
  if c lxor 0xFFFFFFFF <> stored_page_crc (Bytes.unsafe_to_string dst) then
    raise (Corrupt { what = "data page checksum"; page })

(** [record_starts b] derives the in-page restart points: the payload
    offset of each record that *begins* in this page, in key order. The
    read path binary-searches this array instead of decoding every record
    before the target (Appendix A.2's format stays byte-identical on
    disk; the array is cached per buffer-pool frame). Only the last entry
    may belong to a record that spills past the page end — its offset is
    still exact, the spill is the reader's problem. Call only on a
    CRC-verified page: the walk trusts the length varints. *)
let record_starts b =
  let s = Bytes.unsafe_to_string b in
  let psz = String.length s in
  let n = Char.code s.[0] lor (Char.code s.[1] lsl 8) in
  let cont =
    Char.code s.[2] lor (Char.code s.[3] lsl 8) lor (Char.code s.[4] lsl 16)
    lor (Char.code s.[5] lsl 24)
  in
  let starts = Array.make n 0 in
  let off = ref (header_bytes + cont) in
  for i = 0 to n - 1 do
    if !off >= psz then raise (Corrupt { what = "record start walk"; page = -1 });
    starts.(i) <- !off;
    (* Hop over [varint body_len][body]. The body-length varint itself can
       be split by the page boundary (the builder spills records byte by
       byte); a split varint or body just parks [off] past the end, which
       is legal only for the final start. *)
    let v = ref 0 and shift = ref 0 and p = ref !off and fits = ref true in
    let scanning = ref true in
    while !scanning do
      if !p >= psz then begin
        fits := false;
        scanning := false
      end
      else begin
        let byte = Char.code (String.unsafe_get s !p) in
        incr p;
        v := !v lor ((byte land 0x7F) lsl !shift);
        shift := !shift + 7;
        if byte < 0x80 then scanning := false
      end
    done;
    off := (if !fits then !p + !v else psz)
  done;
  starts

(** {1 Record codec}

    Records are written once, into a {!Framed} buffer: the body length
    is known up front from the field sizes, so no body is staged and
    copied. They are read in place: the [_at] decoders parse a body
    lying at [[pos, stop)] of any byte string (a pinned page, a streamed
    page, or a scratch gathering a record that spans pages) and
    materialize only the key and the entry's strings. Every field is
    checked against [stop], and the entry must end exactly there, so a
    body whose framed length disagrees with its fields — short, long, or
    with a bad entry tag — raises {!Corrupt} instead of decoding
    garbage or escaping as [Invalid_argument]. *)

module Varint = Repro_util.Varint

(** The one page/record layout (full key per record); named only by
    configurations. *)
type version = V1

let malformed what = raise (Corrupt { what; page = -1 })

(* The entry that ends every body, after the [lsn] varint at [pos].
   Callers turn [Invalid_argument] into {!Corrupt}. *)
let entry_after_lsn s pos lsn ~stop =
  Kv.Entry.decode_exact s (pos + Varint.size lsn) ~stop

(** [lsn_at s pos ~stop] reads the LSN varint that opens a body's
    [[varint lsn][entry]] tail at [pos], and [entry_after_lsn_at s pos
    ~lsn ~stop] the entry after it, which must end exactly at [stop]:
    the point lookup's decode once the key has been compared in place,
    in two calls so that no pair is built. *)
let lsn_at s pos ~stop =
  match Varint.read_within s pos ~stop with
  | lsn -> lsn
  | exception Invalid_argument _ -> malformed "record value overruns its body"

let entry_after_lsn_at s pos ~lsn ~stop =
  match entry_after_lsn s pos lsn ~stop with
  | e -> e
  | exception Invalid_argument _ -> malformed "record value overruns its body"

(** [decode_body_at s pos ~stop] parses the body at [[pos, stop)] into
    [(key, entry, lsn)]. *)
let decode_body_at s pos ~stop =
  match
    let klen = Varint.read_within s pos ~stop in
    let kp = pos + Varint.size klen in
    if klen > stop - kp then invalid_arg "key overruns body";
    let lp = kp + klen in
    let lsn = Varint.read_within s lp ~stop in
    (String.sub s kp klen, entry_after_lsn s lp lsn ~stop, lsn)
  with
  | r -> r
  | exception Invalid_argument _ -> malformed "record body overruns its frame"

(** {1 Framed records}

    A record held as its wire bytes [[varint body_len][body]] in a
    reused buffer, with its key and LSN beside them. The builder appends
    every record from one ({!Framed.set} encodes a new record into it),
    and a merge passes an unchanged input record on through one
    ({!Framed.copy_body} validates and copies a stored body), so a
    record that needs no change is never decoded into a value string
    and re-encoded. *)
module Framed = struct
  type t = {
    mutable key : string;
    mutable lsn : int;
    mutable bytes : Bytes.t;  (** [[varint body_len][body]] *)
    mutable len : int;
    mutable entry_pos : int;  (** the entry's offset in [bytes] *)
  }

  let create () = { key = ""; lsn = 0; bytes = Bytes.create 256; len = 0; entry_pos = 0 }

  let key t = t.key
  let lsn t = t.lsn
  let bytes t = t.bytes
  let length t = t.len
  let tombstone t = Bytes.get t.bytes t.entry_pos = '\001'

  let entry t =
    Kv.Entry.decode_exact (Bytes.unsafe_to_string t.bytes) t.entry_pos ~stop:t.len

  let record_bytes t = String.length t.key + (t.len - t.entry_pos)

  (* Room for [n] bytes; the old contents are dropped. *)
  let reserve t n =
    if Bytes.length t.bytes < n then
      t.bytes <- Bytes.create (max n (2 * Bytes.length t.bytes))

  let set t key ~lsn entry =
    let klen = String.length key in
    let body =
      Varint.size klen + klen + Varint.size lsn + Kv.Entry.encoded_size entry
    in
    let len = Varint.size body + body in
    reserve t len;
    let b = t.bytes in
    let p = Varint.set b (Varint.set b 0 body) klen in
    Bytes.blit_string key 0 b p klen;
    let p = Varint.set b (p + klen) lsn in
    t.key <- key;
    t.lsn <- lsn;
    t.len <- len;
    t.entry_pos <- p;
    ignore (Kv.Entry.write b p entry)

  (* A varint field of a body ending at [stop]. *)
  let field s pos ~stop =
    match Varint.read_within s pos ~stop with
    | v -> v
    | exception Invalid_argument _ -> malformed "record field overruns its body"

  let copy_body t s pos ~stop =
    let klen = field s pos ~stop in
    let kp = pos + Varint.size klen in
    if klen > stop - kp then malformed "record key overruns its body";
    let lp = kp + klen in
    let lsn = field s lp ~stop in
    let ep = lp + Varint.size lsn in
    (match Kv.Entry.check_exact s ep ~stop with
    | () -> ()
    | exception Invalid_argument _ -> malformed "record entry overruns its body");
    let body = stop - pos in
    let head = Varint.size body in
    reserve t (head + body);
    ignore (Varint.set t.bytes 0 body);
    Bytes.blit_string s pos t.bytes head body;
    t.key <- String.sub s kp klen;
    t.lsn <- lsn;
    t.len <- head + body;
    t.entry_pos <- head + (ep - pos)
end

(** {1 Fence pointers}

    The per-table page index (first key starting in each data page) held
    in RAM in Eytzinger (BFS) order: slot 1 is the median, slots [2k]/[2k+1]
    its children. The floor search then touches a root-to-leaf path whose
    prefix is shared by every lookup (top of the array stays in cache)
    and whose branch direction feeds straight into the next index —
    branch-predictable where sorted-order binary search is not.

    Every fence key starts with [common], the common prefix of the first
    and last key. Beside each key the fence keeps, unboxed in an [int
    array], the 7 bytes that follow [common] read big-endian (zero-padded
    past the key's end). That prefix order is monotone in key order, so a
    descent step compares two integers and dereferences the boxed key
    string only when the prefixes tie. The linear in-order walk
    {!Fence.locate_linear} is kept as the reference the QCheck properties
    hold {!Fence.locate} to. *)
module Fence = struct
  type t = {
    keys : string array;  (** 1-indexed Eytzinger order; slot 0 unused *)
    prefix : int array;  (** [prefix_at keys.(slot) (String.length common)] *)
    pos : int array;  (** chain position of the slot's data page *)
    n : int;
    common : string;  (** common prefix of the smallest and largest key *)
  }

  let length t = t.n
  let key t slot = t.keys.(slot)
  let page_pos t slot = t.pos.(slot)

  open Repro_util.Key_prefix

  (** [of_sorted ~keys ~pos] lays the sorted index out in
      Eytzinger order (in-order traversal of the implicit tree visits
      slots in sorted key order). *)
  let of_sorted ~keys ~pos =
    let n = Array.length keys in
    let common =
      if n = 0 then "" else String.sub keys.(0) 0 (mismatch keys.(0) keys.(n - 1))
    in
    let c = String.length common in
    let ekeys = Array.make (n + 1) "" in
    let eprefix = Array.make (n + 1) 0 in
    let epos = Array.make (n + 1) 0 in
    let rec fill k j =
      if k > n then j
      else begin
        let j = fill (2 * k) j in
        ekeys.(k) <- keys.(j);
        eprefix.(k) <- prefix_at keys.(j) c;
        epos.(k) <- pos.(j);
        fill ((2 * k) + 1) (j + 1)
      end
    in
    ignore (fill 1 0 : int);
    { keys = ekeys; prefix = eprefix; pos = epos; n; common }

    (** Smallest slot in key order (the leftmost tree node). *)
  let first_slot t =
    if t.n = 0 then None
    else begin
      let j = ref 1 in
      while 2 * !j <= t.n do
        j := 2 * !j
      done;
      Some !j
    end

  (* Largest slot in key order (the rightmost tree node); [t.n > 0]. *)
  let last_slot t =
    let j = ref 1 in
    while (2 * !j) + 1 <= t.n do
      j := (2 * !j) + 1
    done;
    !j

  (** In-order successor of [slot] ([None] at the maximum): right child's
      leftmost descendant, else the first ancestor entered from a left
      child. *)
  let succ_slot t slot =
    if (2 * slot) + 1 <= t.n then begin
      let j = ref ((2 * slot) + 1) in
      while 2 * !j <= t.n do
        j := 2 * !j
      done;
      Some !j
    end
    else begin
      let k = ref slot in
      while !k land 1 = 1 do
        k := !k lsr 1
      done;
      let p = !k lsr 1 in
      if p = 0 then None else Some p
    end

  (** [locate t key]: the slot of the rightmost fence key [<= key]
      ([None] if [key] precedes every fence key). A probe outside
      [common] is settled by that one comparison. Otherwise a
      branch-free Eytzinger descent: each step compares integer
      prefixes (the key strings only on a tie) and appends one path bit;
      at the bottom, the floor is the node where the path last turned
      right — recovered by stripping the trailing left-turn zeros and
      that final one bit. *)
  (* The slot of {!locate}, 0 for [None]: slots start at 1. *)
  let locate_slot t key =
    if t.n = 0 then 0
    else
      let side = against_common t.common key in
      if side < 0 then 0
      else if side > 0 then last_slot t
      else begin
        let p = prefix_at key (String.length t.common) in
        let k = ref 1 in
        while !k <= t.n do
          let fp = Array.unsafe_get t.prefix !k in
          k :=
            (2 * !k)
            + (if fp < p
                  || (fp = p && String.compare (Array.unsafe_get t.keys !k) key <= 0)
               then 1
               else 0)
        done;
        let j = ref !k in
        while !j land 1 = 0 do
          j := !j lsr 1
        done;
        !j lsr 1
      end

  let locate t key = match locate_slot t key with 0 -> None | j -> Some j

  let locate_pos t key = match locate_slot t key with 0 -> -1 | j -> t.pos.(j)

  (** Reference implementation of {!locate}: walk slots in key order,
      keeping the last one whose key is [<= key]. The QCheck oracle. *)
  let locate_linear t key =
    let rec go slot best =
      match slot with
      | None -> best
      | Some s ->
          if String.compare t.keys.(s) key <= 0 then
            go (succ_slot t s) (Some s)
          else best
    in
    go (first_slot t) None
end

(** {1 Footer}

    The footer describes the component: logical timestamp, record count,
    user-data bytes, LSN range, extents, where the index lives, and the
    blob checksums. It doubles as the metadata blob engines store in
    their commit root, sealed by a trailing CRC32C of its own. *)

type footer = {
  timestamp : int;  (** logical timestamp, bumped per merge (§4.4.1) *)
  record_count : int;
  tombstone_count : int;
  data_bytes : int;  (** sum of record body bytes (user data) *)
  min_lsn : int;  (** smallest WAL LSN folded into any record (0: none) *)
  max_lsn : int;  (** largest; [min_lsn >= wal.truncated_to] means the
                      component is still fully covered by the log and can
                      be rebuilt from replay if it rots *)
  min_key : string;
  max_key : string;
  extents : (int * int) list;  (** (start page id, length) in chain order *)
  data_pages : int;  (** pages [0, data_pages) of the chain hold records *)
  index_pages : int;  (** pages [data_pages, data_pages+index_pages) *)
  index_entries : int;
  index_bytes : int;  (** exact blob length before page padding *)
  index_crc : int;  (** CRC32C of the index blob *)
  bloom_pages : int;  (** optional persisted Bloom filter after the index *)
  bloom_bytes : int;
  bloom_crc : int;  (** CRC32C of the Bloom blob *)
}

let magic = "SSTF"

let encode_footer f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  let w = Repro_util.Varint.write buf in
  w f.timestamp;
  w f.record_count;
  w f.tombstone_count;
  w f.data_bytes;
  w f.min_lsn;
  w f.max_lsn;
  w (String.length f.min_key);
  Buffer.add_string buf f.min_key;
  w (String.length f.max_key);
  Buffer.add_string buf f.max_key;
  w (List.length f.extents);
  List.iter
    (fun (s, l) ->
      w s;
      w l)
    f.extents;
  w f.data_pages;
  w f.index_pages;
  w f.index_entries;
  w f.index_bytes;
  w f.index_crc;
  w f.bloom_pages;
  w f.bloom_bytes;
  w f.bloom_crc;
  (* seal: CRC32C of everything above, appended as a varint *)
  Repro_util.Varint.write buf (Repro_util.Crc32c.string (Buffer.contents buf));
  Buffer.contents buf

let decode_footer s =
  if String.length s < 4 || String.sub s 0 4 <> magic then
    raise (Corrupt { what = "footer magic"; page = -1 });
  let pos = ref 4 in
  let r () =
    let v, p = Repro_util.Varint.read s !pos in
    pos := p;
    v
  in
  let rs () =
    let len = r () in
    let v = String.sub s !pos len in
    pos := !pos + len;
    v
  in
  match
    let timestamp = r () in
    let record_count = r () in
    let tombstone_count = r () in
    let data_bytes = r () in
    let min_lsn = r () in
    let max_lsn = r () in
    let min_key = rs () in
    let max_key = rs () in
    let n_extents = r () in
    let extents =
      let rec go n acc =
        if n = 0 then List.rev acc
        else
          let s = r () in
          let l = r () in
          go (n - 1) ((s, l) :: acc)
      in
      go n_extents []
    in
    let data_pages = r () in
    let index_pages = r () in
    let index_entries = r () in
    let index_bytes = r () in
    let index_crc = r () in
    let bloom_pages = r () in
    let bloom_bytes = r () in
    let bloom_crc = r () in
    let body_end = !pos in
    let stored_crc = r () in
    ( { timestamp; record_count; tombstone_count; data_bytes;
        min_lsn; max_lsn; min_key; max_key; extents; data_pages; index_pages;
        index_entries; index_bytes; index_crc; bloom_pages; bloom_bytes;
        bloom_crc },
      body_end, stored_crc )
  with
  | footer, body_end, stored_crc ->
      let crc =
        Repro_util.Crc32c.update 0xFFFFFFFF s 0 body_end lxor 0xFFFFFFFF
      in
      if crc <> stored_crc then
        raise (Corrupt { what = "footer checksum"; page = -1 });
      footer
  | exception Invalid_argument _ ->
      (* truncated or garbled varints: the blob is not a footer *)
      raise (Corrupt { what = "footer encoding"; page = -1 })
