(** SSTable reader: point lookups, ordered iteration, recovery reopen.

    The page index (first key starting in each data page) lives in RAM, as
    the paper assumes for B-Tree and LSM index nodes alike (Appendix A.1);
    lookups therefore cost one page read — one seek when uncached. Point
    reads go through the buffer manager so hot pages are cached; scans and
    merges stream pages directly, leaving the pool to the read path. *)

(* The point lookup's scratch, one per reader: the probe key travels in
   and the found record's entry and LSN travel out, so the in-page
   search builds no closure, tuple or verdict block. A reader serves one
   lookup at a time. *)
type probe = {
  mutable key : string;
  mutable vend : int;  (* after the last {!varint}: its end, or -1 *)
  mutable entry : Kv.Entry.t;
  mutable lsn : int;
}

let new_probe () = { key = ""; vend = 0; entry = Kv.Entry.Tombstone; lsn = 0 }

type t = {
  store : Pagestore.Store.t;
  footer : Sst_format.footer;
  pages : int array;  (** page ids of the whole chain, in logical order *)
  fence : Sst_format.Fence.t;
      (** page-locating fence pointers in Eytzinger order *)
  mutable spare_pages : Bytes.t list;
      (** page buffers of released streaming iterators, taken by the next
          ones: a 4 KiB buffer is a major-heap block, and one per scan
          source per scan paces the GC into long slices *)
  probe : probe;  (** the point lookup's scratch *)
}

let footer t = t.footer
let timestamp t = t.footer.Sst_format.timestamp
let record_count t = t.footer.Sst_format.record_count
let data_bytes t = t.footer.Sst_format.data_bytes
let min_key t = t.footer.Sst_format.min_key
let max_key t = t.footer.Sst_format.max_key
let is_empty t = t.footer.Sst_format.record_count = 0

let pages_of_extents extents ~take =
  let arr = Array.make take 0 in
  let i = ref 0 in
  List.iter
    (fun (start, length) ->
      for p = start to start + length - 1 do
        if !i < take then begin
          arr.(!i) <- p;
          incr i
        end
      done)
    extents;
  assert (!i = take);
  arr

(* Parse the index blob into the RAM fence: entries are (first_key, pos). *)
let parse_index blob n =
  let keys = Array.make n "" in
  let poss = Array.make n 0 in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    let klen, p = Repro_util.Varint.read blob !pos in
    let key = String.sub blob p klen in
    let ppos, p = Repro_util.Varint.read blob (p + klen) in
    keys.(i) <- key;
    poss.(i) <- ppos;
    pos := p
  done;
  Sst_format.Fence.of_sorted ~keys ~pos:poss

(** [open_in_ram store footer ~index] builds a reader from a freshly built
    component whose index the builder still has in RAM (the common case:
    merge output is opened immediately). *)
let open_in_ram store (footer : Sst_format.footer) ~index =
  let take = footer.data_pages + footer.index_pages + footer.bloom_pages in
  let pages = pages_of_extents footer.extents ~take in
  let fence = parse_index index footer.index_entries in
  { store; footer; pages; fence; spare_pages = []; probe = new_probe () }

(** [open_from_disk store footer] reopens a component after recovery,
    re-reading the index pages (charged as sequential I/O). The index
    blob is checksum-verified before parsing: parsing rotted varints
    would chase garbage page positions, so a mismatch raises
    {!Sst_format.Corrupt} instead. *)
(* Reassemble a blob stored across whole pages by blitting each cached
   page straight into one preallocated buffer — the seed built a string
   per page and then re-copied the concatenation (two copies per byte).
   Returns [None] when the footer claims more bytes than the pages can
   hold (a rotted footer field). *)
let read_blob store pages ~start ~npages ~bytes =
  let page_size = Pagestore.Store.page_size store in
  if bytes > npages * page_size then None
  else begin
    let out = Bytes.create bytes in
    for i = 0 to npages - 1 do
      let off = i * page_size in
      let n = min page_size (bytes - off) in
      if n > 0 then
        Pagestore.Store.with_page_seq store pages.(start + i) (fun b ->
            Bytes.blit b 0 out off n)
    done;
    Some (Bytes.unsafe_to_string out)
  end

let open_from_disk store (footer : Sst_format.footer) =
  let take = footer.data_pages + footer.index_pages + footer.bloom_pages in
  let pages = pages_of_extents footer.extents ~take in
  let blob =
    match
      read_blob store pages ~start:footer.data_pages
        ~npages:footer.index_pages ~bytes:footer.index_bytes
    with
    | Some b -> b
    | None -> ""
  in
  if String.length blob <> footer.index_bytes
     || Repro_util.Crc32c.string blob <> footer.index_crc
  then
    raise
      (Sst_format.Corrupt
         { what = "index blob checksum";
           page = (if footer.index_pages > 0 then pages.(footer.data_pages) else -1) });
  let fence = parse_index blob footer.index_entries in
  { store; footer; pages; fence; spare_pages = []; probe = new_probe () }

(** [of_meta store blob] reopens from the engine's commit-root metadata. *)
let of_meta store blob = open_from_disk store (Sst_format.decode_footer blob)

let meta_blob t = Sst_format.encode_footer t.footer

(** [load_bloom_blob t] reads a persisted Bloom filter's bytes back from
    the component (sequential I/O, 1.25 B/key — far cheaper than the
    full-component scan a rebuild needs). [None] if none was persisted. *)
let load_bloom_blob t =
  let f = t.footer in
  if f.Sst_format.bloom_pages = 0 then None
  else
    match
      read_blob t.store t.pages
        ~start:(f.Sst_format.data_pages + f.Sst_format.index_pages)
        ~npages:f.Sst_format.bloom_pages ~bytes:f.Sst_format.bloom_bytes
    with
    | None -> None
    | Some blob ->
        (* A rotted Bloom filter is derived data: mask the corruption by
           pretending none was persisted, so the caller rebuilds it from a
           component scan (§4.4.3's other branch) instead of trusting
           garbage bits that could turn false negatives into lost reads. *)
        if Repro_util.Crc32c.string blob <> f.Sst_format.bloom_crc then None
        else Some blob

(** [free t] releases the component's extents (after a merge supersedes
    it). *)
let free t =
  List.iter
    (fun (start, length) ->
      Pagestore.Store.free_region t.store
        { Pagestore.Region_allocator.start; length })
    t.footer.Sst_format.extents

(** [locate t key]: chain position of the data page a lookup for [key]
    must consult, by Eytzinger descent over the RAM fence ([None]: key
    precedes the table). Exposed for the fence property tests and the
    perf harness. *)
let locate t key =
  Option.map (Sst_format.Fence.page_pos t.fence)
    (Sst_format.Fence.locate t.fence key)

(** [locate_linear t key] mirrors {!locate} over the linear in-order
    fence walk — the reference the QCheck properties hold {!locate} to
    (as {!get_linear} is to {!get}). *)
let locate_linear t key =
  Option.map (Sst_format.Fence.page_pos t.fence)
    (Sst_format.Fence.locate_linear t.fence key)

(** {1 Page byte streams} *)

(* Where a stream's bytes come from. Cached streams pin buffer-pool
   frames and alias their bytes in place — zero copy, and the page CRC
   runs at most once per platter load (verified-once frames). Streaming
   access reads each page into a private reused buffer, bypassing the
   pool, and verifies every page: each read is a fresh platter copy, so
   there is no frame whose verification could be remembered. *)
type source =
  | Cached of { mutable pin : Pagestore.Store.pin option }
  | Streaming of {
      sbuf : Bytes.t;
      mutable slast : int; (* last page id *)
      mutable held : bool; (* [sbuf] not yet handed back to the reader *)
    }

(* A pull stream of record bytes starting at chain position [bpos],
   concatenating page payloads. *)
type byte_stream = {
  reader : t;
  src : source;
  mutable bpos : int; (* next chain position to fetch *)
  mutable buf : string; (* current page; cached: alias of the pinned frame *)
  mutable off : int;
  mutable limit : int;
  mutable started : bool;
  (* The framed record body: [body.[body_pos, body_stop)]. It aliases the
     current page when the record lies whole in it; a record spanning
     pages is gathered into [scratch] (grown on demand, reused). *)
  mutable body : string;
  mutable body_pos : int;
  mutable body_stop : int;
  mutable scratch : Bytes.t;
}

let page_size t = Pagestore.Store.page_size t.store

(* Charge a read of page [id] straight from the platter, bypassing the
   pool: a sequential transfer when it follows page [last], else a seek. *)
let charge_direct t id ~last =
  let disk = Pagestore.Store.disk t.store in
  if id = last + 1 then Simdisk.Disk.seq_read disk ~bytes:(page_size t)
  else Simdisk.Disk.seek_read disk ~bytes:(page_size t)

let read_direct t id buf ~last =
  Pagestore.Store.read_page_direct t.store id buf;
  charge_direct t id ~last

(* Release a cached stream's pin, or hand a streaming one's page buffer
   back to its reader. Safe to call repeatedly. Every cached stream must
   end up released, or the pinned frame is lost to the pool for good; an
   abandoned streaming one just leaves its buffer to the GC. A released
   streaming stream is put at the end of the component, so it never
   touches the buffer again. *)
let release bs =
  match bs.src with
  | Cached c -> (
      match c.pin with
      | Some p ->
          Pagestore.Store.unpin p;
          c.pin <- None
      | None -> ())
  | Streaming s ->
      if s.held then begin
        s.held <- false;
        bs.bpos <- bs.reader.footer.Sst_format.data_pages;
        bs.buf <- "";
        bs.off <- 0;
        bs.limit <- 0;
        bs.reader.spare_pages <- s.sbuf :: bs.reader.spare_pages
      end

let fetch_page bs pos ~first =
  let t = bs.reader in
  let id = t.pages.(pos) in
  (match bs.src with
  | Cached c ->
      (* Unpin before pinning the successor so a lookup never holds two
         frames at once — point reads must work in arbitrarily small
         pools. The first access charges a seek on miss, continuation
         pages a sequential transfer. *)
      (match c.pin with
      | Some p ->
          Pagestore.Store.unpin p;
          c.pin <- None
      | None -> ());
      let pin =
        Pagestore.Store.pin_page t.store id ~seq:(not first)
          ~verify:Sst_format.check_page
      in
      c.pin <- Some pin;
      bs.buf <- Bytes.unsafe_to_string (Pagestore.Store.pinned_bytes pin)
  | Streaming s ->
      (* Track contiguity so physically consecutive pages cost bandwidth
         only, while extent jumps and initial positioning cost a seek.
         The page is checked as it is copied off the platter. *)
      charge_direct t id ~last:s.slast;
      s.slast <- id;
      Pagestore.Store.read_page_checked t.store id s.sbuf
        ~check:Sst_format.check_page;
      bs.buf <- Bytes.unsafe_to_string s.sbuf);
  bs.limit <- String.length bs.buf

(* Open a stream at chain position [pos]. *)
let stream_at t ~cached pos =
  let src =
    if cached then Cached { pin = None }
    else
      let sbuf =
        match t.spare_pages with
        | b :: rest ->
            t.spare_pages <- rest;
            b
        | [] -> Bytes.create (page_size t)
      in
      Streaming { sbuf; slast = -10; held = true }
  in
  { reader = t; src; bpos = pos; buf = ""; off = 0; limit = 0;
    started = false; body = ""; body_pos = 0; body_stop = 0;
    scratch = Bytes.empty }

exception End_of_component

let refill bs ~continuation =
  if bs.bpos >= bs.reader.footer.Sst_format.data_pages then begin
    release bs;
    raise End_of_component
  end;
  fetch_page bs bs.bpos ~first:(not bs.started);
  bs.started <- true;
  let page = bs.buf in
  let cont_len = Char.code page.[2] lor (Char.code page.[3] lsl 8)
                 lor (Char.code page.[4] lsl 16) lor (Char.code page.[5] lsl 24)
  in
  bs.off <-
    (if continuation then Sst_format.header_bytes
     else Sst_format.header_bytes + cont_len);
  bs.bpos <- bs.bpos + 1

let read_byte bs =
  if bs.off >= bs.limit then refill bs ~continuation:true;
  let c = bs.buf.[bs.off] in
  bs.off <- bs.off + 1;
  Char.code c

(* The body-length varint, which may straddle a page end. *)
let read_varint bs =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    let b = read_byte bs in
    acc := !acc lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    more := b >= 0x80
  done;
  !acc

let truncated bs =
  Sst_format.Corrupt
    {
      what = "sstable truncated mid-record (data pages end inside a record body)";
      page = bs.bpos;
    }

(* Copy a body of [len] bytes that runs past the current page into
   [scratch], pulling continuation pages. A length that exceeds every
   byte left in the data pages is refused before any allocation. *)
let gather bs len =
  let t = bs.reader in
  let left =
    bs.limit - bs.off
    + ((t.footer.Sst_format.data_pages - bs.bpos)
      * Sst_format.payload_capacity ~page_size:(page_size t))
  in
  if len > left then raise (truncated bs);
  if Bytes.length bs.scratch < len then
    bs.scratch <- Bytes.create (max len (2 * Bytes.length bs.scratch));
  let filled = ref 0 in
  while !filled < len do
    if bs.off >= bs.limit then refill bs ~continuation:true;
    let take = min (bs.limit - bs.off) (len - !filled) in
    Bytes.blit_string bs.buf bs.off bs.scratch !filled take;
    bs.off <- bs.off + take;
    filled := !filled + take
  done;
  bs.body <- Bytes.unsafe_to_string bs.scratch;
  bs.body_pos <- 0;
  bs.body_stop <- len

(* Frame the next record: on [true] its body is
   [bs.body.[body_pos, body_stop)], in place in the current page when it
   lies whole there. Zero padding at the tail of the final data page
   decodes as a 0-length varint; real records always have body_len >= 1,
   so 0 means "no more records" (padding only ever occurs on the last
   data page). A stream that reports no more records releases its pin.
   Running out of data pages mid-record means the file is truncated:
   that surfaces as typed corruption, because End_of_component is the
   internal record-boundary protocol and must never escape the reader
   (rule E001: it would cross the DST driver boundary as an unhandled
   exception instead of a corruption answer). *)
let next_frame bs =
  match read_varint bs with
  | exception End_of_component -> false (* refill already released *)
  | 0 ->
      release bs;
      false
  | len when len < 0 ->
      raise (Sst_format.Corrupt { what = "record length varint"; page = bs.bpos })
  | len ->
      if len <= bs.limit - bs.off then begin
        bs.body <- bs.buf;
        bs.body_pos <- bs.off;
        bs.body_stop <- bs.off + len;
        bs.off <- bs.body_stop
      end
      else (try gather bs len with End_of_component -> raise (truncated bs));
      true

(* Decode the framed body. *)
let decode_frame bs =
  Sst_format.decode_body_at bs.body bs.body_pos ~stop:bs.body_stop

let next_record bs = if next_frame bs then Some (decode_frame bs) else None

(* Compare the key stored at [pos, pos+len) of [s] with [key], without
   materializing it. Loops over local refs allocate nothing (a local
   recursive function would allocate its closure on every call). *)
let cmp_key_at s pos len key =
  let klen = String.length key in
  let n = if len < klen then len else klen in
  let i = ref 0 and c = ref 0 in
  while !c = 0 && !i < n do
    c := Char.compare (String.unsafe_get s (pos + !i)) (String.unsafe_get key !i);
    incr i
  done;
  if !c <> 0 then !c else Int.compare len klen

let malformed_frame bs what =
  raise (Sst_format.Corrupt { what; page = bs.bpos })

(* A varint field of the framed body, bounded by its end. *)
let frame_field bs pos =
  match Repro_util.Varint.read_within bs.body pos ~stop:bs.body_stop with
  | v -> v
  | exception Invalid_argument _ -> malformed_frame bs "record field overruns its body"

(* Is the framed record's key below [key]? Compared in place. *)
let frame_key_below bs key =
  let pos = bs.body_pos in
  let klen = frame_field bs pos in
  let kp = pos + Repro_util.Varint.size klen in
  if klen > bs.body_stop - kp then
    malformed_frame bs "record key overruns its body";
  cmp_key_at bs.body kp klen key < 0

(** {1 Iterators} *)

type iter = {
  mutable stream : byte_stream option;
  mutable pending : (string * Kv.Entry.t * int) option;
}

let make_iter t ~cached ?from () =
  if is_empty t then { stream = None; pending = None }
  else begin
    let start_pos, need_skip =
      match from with
      | None -> (0, None)
      | Some key -> (
          match locate t key with
          | None -> (0, None) (* key precedes component: start at 0 *)
          | Some pos -> (pos, Some key))
    in
    let bs = stream_at t ~cached start_pos in
    (try refill bs ~continuation:false with End_of_component -> ());
    let it = { stream = Some bs; pending = None } in
    (match need_skip with
    | None -> ()
    | Some key ->
        (* Step over records < key by their length prefix, comparing keys
           in place; only the first record >= key is decoded. *)
        let rec skip () =
          if not (next_frame bs) then it.stream <- None
          else if frame_key_below bs key then skip ()
          else it.pending <- Some (decode_frame bs)
        in
        skip ());
    it
  end

(** [iter_next_full it] pulls the next record with its stored LSN. *)
let iter_next_full it =
  match it.pending with
  | Some r ->
      it.pending <- None;
      Some r
  | None -> (
      match it.stream with
      | None -> None
      | Some bs -> (
          match next_record bs with
          | None ->
              it.stream <- None;
              None
          | some -> some))

(** [iter_next_framed it fr] frames the next record into [fr] without
    decoding its value: [false] at the end. The body is validated as
    {!iter_next_full}'s decode would validate it and copied out of the
    stream, so [fr] stays valid however far the iterator moves on. *)
let iter_next_framed it fr =
  match it.pending with
  | Some (key, entry, lsn) ->
      it.pending <- None;
      Sst_format.Framed.set fr key ~lsn entry;
      true
  | None -> (
      match it.stream with
      | None -> false
      | Some bs ->
          if next_frame bs then begin
            Sst_format.Framed.copy_body fr bs.body bs.body_pos ~stop:bs.body_stop;
            true
          end
          else begin
            it.stream <- None;
            false
          end)

(** [iter_next it] pulls the next record in key order. *)
let iter_next it =
  match iter_next_full it with Some (k, e, _) -> Some (k, e) | None -> None

(** [iterator t ?from ()] streams records (merges, scans): bypasses the
    buffer pool, first access costs a seek, the rest bandwidth. *)
let iterator ?from t = make_iter t ~cached:false ?from ()

(** [cached_iterator t ?from ()] iterates through the buffer pool (short
    scans that should benefit from caching). Call {!iter_close} if the
    iterator is abandoned before exhaustion, or its page stays pinned. *)
let cached_iterator ?from t = make_iter t ~cached:true ?from ()

(** [iter_close it] releases the iterator's resources (a cached
    iterator's pinned frame, a streaming iterator's page buffer).
    Exhausted iterators release themselves; closing is idempotent. *)
let iter_close it =
  (match it.stream with Some bs -> release bs | None -> ());
  it.stream <- None;
  it.pending <- None

(** {1 Point lookup}

    [get] binary-searches the derived in-page restart points (cached per
    buffer-pool frame, see {!Sst_format.record_starts}) and compares
    candidate keys against the frame's bytes in place: no page copy, no
    per-record decode before the target, no re-CRC on pool hits. The
    linear decode survives as {!get_linear_with_lsn}, the reference the
    property tests hold the fast path to. *)

(* The varint at [pos] of [s], decoded as [Varint.read] decodes it, with
   the position after it left in [pr.vend] instead of a pair: [-1] where
   [Varint.read] raises (the string ends first, or the value overflows). *)
let varint pr s pos =
  let len = String.length s in
  let acc = ref 0 and shift = ref 0 and p = ref pos and more = ref true in
  while !more do
    if !p >= len || !shift > 62 then begin
      pr.vend <- -1;
      more := false
    end
    else begin
      let b = Char.code (String.unsafe_get s !p) in
      acc := !acc lor ((b land 0x7F) lsl !shift);
      incr p;
      if b < 0x80 then begin
        pr.vend <- !p;
        more := false
      end
      else shift := !shift + 7
    end
  done;
  !acc

(* Probing a restart point within one page: the key comparison's sign,
   or [unreadable] (which sorts high), and only the final restart can be
   unreadable: its record spills past the page end before the key does. *)
let unreadable = max_int

(* What the in-page search concluded: [found] (the record is decoded
   into the probe), [absent], or an offset [>= 0] where the linear scan
   must take over (a resume): the record there (or its successors) needs
   bytes from later pages. Settling those cases in any other way would
   touch a different set of pages than the seed's linear decode — the
   restart search must leave the simulated-I/O accounting byte-identical,
   so every page-crossing case defers to the same loop the seed ran. *)
let found = -1
let absent = -2

let probe_key pr s psz start =
  let body_len = varint pr s start in
  let p = pr.vend in
  if p < 0 (* body-length varint split by the page end *) || p > psz then unreadable
  else
    let key_len = varint pr s p in
    let kp = pr.vend in
    if kp < 0 || kp + key_len > psz || kp + key_len > p + body_len then unreadable
    else cmp_key_at s kp key_len pr.key

(* Decode the entry and LSN of the record at [start] into the probe; the
   caller has checked that it does not spill and that its key lies
   inside its body. The tail must fill the framed body exactly. *)
let decode_at pr s start =
  let body_len = varint pr s start in
  let p = pr.vend in
  let key_len = varint pr s p in
  let vp = pr.vend + key_len and stop = p + body_len in
  let lsn = Sst_format.lsn_at s vp ~stop in
  pr.entry <- Sst_format.entry_after_lsn_at s vp ~lsn ~stop;
  pr.lsn <- lsn

let complete_at pr s psz start =
  let body_len = varint pr s start in
  pr.vend >= 0 && pr.vend + body_len <= psz

(* Binary-search the restart array for the probe's key. The page was
   chosen by index floor, so the first restart's key is <= the key; a
   miss whose stopping record sits whole in this page is a miss outright,
   because the next page's first key (the next index entry) is greater.
   An unreadable probe sorts high; any verdict that the seed's linear
   scan would have crossed a page boundary to reach — a spilled match, a
   spilled stopping record, or all in-page keys below the key (the
   linear scan walked on and fully decoded the next page's first record
   before giving up) — comes back as a resume offset. *)
let search_page page starts pr =
  let s = Bytes.unsafe_to_string page in
  let psz = String.length s in
  let n = Array.length starts in
  if n = 0 then absent
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if probe_key pr s psz starts.(mid) <= 0 then lo := mid else hi := mid - 1
    done;
    let i = !lo in
    let c = probe_key pr s psz starts.(i) in
    if c = unreadable then starts.(i)
    else if c = 0 then
      if complete_at pr s psz starts.(i) then begin
        decode_at pr s starts.(i);
        found
      end
      else starts.(i)
    else if c < 0 then
      (* All readable keys up to [i] are < key. The linear scan stops at
         record [i+1] if it exists, is whole, and its key settles the
         question; otherwise it crossed into later pages. *)
      if i + 1 >= n then starts.(i)
      else if
        complete_at pr s psz starts.(i + 1)
        && probe_key pr s psz starts.(i + 1) <> unreadable
      then absent
      else starts.(i + 1)
    else if
      (* key < first restart: the linear scan stops at record 0 — whole
         in this page, or it crossed. *)
      complete_at pr s psz starts.(0)
    then absent
    else starts.(0)
  end

(* Continue the seed's linear find loop at payload offset [off] of chain
   position [pos]: decode records (pulling continuation pages through the
   pool as sequential accesses, exactly as the seed charged them) until
   the key matches or passes by. *)
let linear_from t pos off key =
  let bs = stream_at t ~cached:true pos in
  Fun.protect
    ~finally:(fun () -> release bs)
    (fun () ->
      match refill bs ~continuation:true with
      | exception End_of_component -> None
      | () ->
          bs.off <- off;
          let rec find () =
            match next_record bs with
            | None -> None
            | Some (k, e, lsn) ->
                let c = String.compare k key in
                if c = 0 then Some (e, lsn)
                else if c > 0 then None
                else find ()
          in
          find ())

(* Look [key] up; on [true] its entry and LSN are in [t.probe]. The
   page search runs inside the pin; a page-crossing case is resolved
   outside it, so the lookup never stacks pins (tiny pools stay
   workable). *)
let find t key =
  if is_empty t then false
  else if
    String.compare key t.footer.Sst_format.min_key < 0
    || String.compare key t.footer.Sst_format.max_key > 0
  then false
  else
    let pos = Sst_format.Fence.locate_pos t.fence key in
    if pos < 0 then false
    else begin
      let pr = t.probe in
      pr.key <- key;
      let verdict =
        Pagestore.Store.with_page_starts t.store t.pages.(pos) ~seq:false
          ~verify:Sst_format.check_page ~derive:Sst_format.record_starts
          search_page pr
      in
      if verdict = found then true
      else if verdict = absent then false
      else
        match linear_from t pos verdict key with
        | Some (e, lsn) ->
            pr.entry <- e;
            pr.lsn <- lsn;
            true
        | None -> false
    end

(** [get_with_lsn t key]: point lookup returning the record's stored LSN
    (recovery's replay filter). *)
let get_with_lsn t key = if find t key then Some (t.probe.entry, t.probe.lsn) else None

(** [get_linear_with_lsn t key] is the seed's linear lookup — decode
    records from the page's first restart until the key passes by. Kept
    as the reference implementation the restart-point search is tested
    against (and as documentation of what the fast path must equal). *)
let get_linear_with_lsn t key =
  if is_empty t then None
  else if
    String.compare key t.footer.Sst_format.min_key < 0
    || String.compare key t.footer.Sst_format.max_key > 0
  then None
  else
    match locate_linear t key with
    | None -> None
    | Some pos ->
        let bs = stream_at t ~cached:true pos in
        Fun.protect
          ~finally:(fun () -> release bs)
          (fun () ->
            (try refill bs ~continuation:false
             with End_of_component -> ());
            let rec find () =
              match next_record bs with
              | None -> None
              | Some (k, e, lsn) ->
                  let c = String.compare k key in
                  if c = 0 then Some (e, lsn)
                  else if c > 0 then None
                  else find ()
            in
            find ())

let get_linear t key =
  match get_linear_with_lsn t key with Some (e, _) -> Some e | None -> None

(** [get t key] point lookup: one cached page read (one seek when the page
    is cold), plus continuation pages for records spanning pages. *)
let get t key = if find t key then Some t.probe.entry else None

(** {1 Scrubbing} *)

(** [verify t] walks the whole component — every data page, the index
    blob, the Bloom blob — verifying checksums, and returns the list of
    [(what, page)] mismatches (empty: component is clean). Reads stream
    directly from the platter with the same charge model as a merge scan:
    one seek per extent discontinuity, bandwidth otherwise. Never
    raises — scrubbing exists to report damage, not trip over it. *)
let verify t =
  let f = t.footer in
  let psz = page_size t in
  let buf = Bytes.create psz in
  let last = ref (-10) in
  let read_raw pos =
    let id = t.pages.(pos) in
    read_direct t id buf ~last:!last;
    last := id
  in
  let errors = ref [] in
  for pos = 0 to f.Sst_format.data_pages - 1 do
    read_raw pos;
    if not (Sst_format.page_ok_bytes buf) then
      errors := ("data page checksum", t.pages.(pos)) :: !errors
  done;
  (* A blob's checksum covers its first [bytes] bytes, folded page by
     page as they stream in. *)
  let check_blob ~what ~start ~pages ~bytes ~crc =
    if pages > 0 then begin
      let c = ref 0xFFFFFFFF in
      for pos = start to start + pages - 1 do
        read_raw pos;
        let take = min psz (bytes - ((pos - start) * psz)) in
        if take > 0 then
          c := Repro_util.Crc32c.update !c (Bytes.unsafe_to_string buf) 0 take
      done;
      let ok = pages * psz >= bytes && !c lxor 0xFFFFFFFF = crc in
      if not ok then errors := (what, t.pages.(start)) :: !errors
    end
  in
  check_blob ~what:"index blob checksum" ~start:f.Sst_format.data_pages
    ~pages:f.Sst_format.index_pages ~bytes:f.Sst_format.index_bytes
    ~crc:f.Sst_format.index_crc;
  check_blob ~what:"bloom blob checksum"
    ~start:(f.Sst_format.data_pages + f.Sst_format.index_pages)
    ~pages:f.Sst_format.bloom_pages ~bytes:f.Sst_format.bloom_bytes
    ~crc:f.Sst_format.bloom_crc;
  List.rev !errors
