(** Incremental SSTable builder.

    Merges hand records to the builder one at a time (strictly increasing
    keys); pages stream to disk as they fill so that merge I/O costs accrue
    continuously — the property the merge schedulers' progress estimators
    rely on. Components grow by appending fixed-size extents from the
    region allocator, keeping each run of pages contiguous. *)

type t = {
  store : Pagestore.Store.t;
  extent_pages : int;
  page_size : int;
  payload : int;
  mutable extents : Pagestore.Region_allocator.region list; (* reverse order *)
  mutable stream : Pagestore.Store.write_stream option;
  mutable pages_in_extent : int;
  mutable chain : int list; (* all page ids written, reverse order *)
  (* current page under construction *)
  page_buf : Bytes.t;
  mutable page_off : int;
  mutable n_starts : int;
  mutable cont_len : int;
  (* stats *)
  mutable record_count : int;
  mutable tombstone_count : int;
  mutable data_bytes : int;
  mutable min_key : string;  (* meaningful once [record_count > 0] *)
  mutable max_key : string;
  mutable min_lsn : int;  (* over records with a real lsn; 0 when none *)
  mutable max_lsn : int;
  (* index under construction: first key starting in each data page plus
     the page position *)
  mutable index_rev : (string * int) list;
  mutable page_pos : int; (* position of the page under construction *)
  mutable current_page_first_key : string option;
  (* the record being added, encoded once; reused for every record *)
  record : Buffer.t;
}

let create ?format:(_ : Sst_format.version option) ?(extent_pages = 1024)
    store =
  let page_size = Pagestore.Store.page_size store in
  {
    store;
    extent_pages;
    page_size;
    payload = Sst_format.payload_capacity ~page_size;
    extents = [];
    stream = None;
    pages_in_extent = 0;
    chain = [];
    page_buf = Bytes.create page_size;
    page_off = Sst_format.header_bytes;
    n_starts = 0;
    cont_len = 0;
    record_count = 0;
    tombstone_count = 0;
    data_bytes = 0;
    min_key = "";
    max_key = "";
    min_lsn = 0;
    max_lsn = 0;
    index_rev = [];
    page_pos = 0;
    current_page_first_key = None;
    record = Buffer.create 256;
  }

let ensure_stream t =
  match t.stream with
  | Some ws when t.pages_in_extent < t.extent_pages -> ws
  | _ ->
      let region =
        Pagestore.Store.allocate_region t.store ~pages:t.extent_pages
      in
      t.extents <- region :: t.extents;
      t.pages_in_extent <- 0;
      let ws = Pagestore.Store.open_write_stream t.store region in
      t.stream <- Some ws;
      ws

(* Flush the page under construction to disk and start a fresh one.
   [upcoming_cont] is how many payload bytes at the start of the next page
   will belong to a record spilling over. *)
let flush_page t ~upcoming_cont =
  Pagestore.Page.set_u16 t.page_buf 0 t.n_starts;
  Pagestore.Page.set_u32 t.page_buf 2 t.cont_len;
  if t.page_off < t.page_size then
    Bytes.fill t.page_buf t.page_off (t.page_size - t.page_off) '\000';
  Sst_format.seal_page t.page_buf;
  let ws = ensure_stream t in
  let id = Pagestore.Store.stream_write ws t.page_buf in
  t.pages_in_extent <- t.pages_in_extent + 1;
  t.chain <- id :: t.chain;
  (match t.current_page_first_key with
  | Some k -> t.index_rev <- (k, t.page_pos) :: t.index_rev
  | None -> ());
  t.page_pos <- t.page_pos + 1;
  t.page_off <- Sst_format.header_bytes;
  t.n_starts <- 0;
  t.cont_len <- min upcoming_cont t.payload;
  t.current_page_first_key <- None

(** [add t ?lsn key entry] appends one record ([lsn]: newest WAL record
    folded into it; see {!Sst_format}). Keys must be strictly
    increasing. *)
let add ?(lsn = 0) t key entry =
  if t.record_count > 0 && String.compare key t.max_key <= 0 then
    invalid_arg "Builder.add: keys must be strictly increasing";
  if t.record_count = 0 then t.min_key <- key;
  t.max_key <- key;
  if lsn > 0 then begin
    if t.min_lsn = 0 || lsn < t.min_lsn then t.min_lsn <- lsn;
    if lsn > t.max_lsn then t.max_lsn <- lsn
  end;
  t.record_count <- t.record_count + 1;
  (match entry with
  | Kv.Entry.Tombstone -> t.tombstone_count <- t.tombstone_count + 1
  | _ -> ());
  (* The record starts in the current page (start a new page only if the
     current one has no room for even one byte). *)
  if t.page_off >= t.page_size then flush_page t ~upcoming_cont:0;
  let record = t.record in
  Buffer.clear record;
  Sst_format.encode_record record key ~lsn entry;
  let len = Buffer.length record in
  t.data_bytes <- t.data_bytes + len;
  t.n_starts <- t.n_starts + 1;
  if t.current_page_first_key = None then t.current_page_first_key <- Some key;
  let off = ref 0 in
  while !off < len do
    let space = t.page_size - t.page_off in
    if space = 0 then flush_page t ~upcoming_cont:(len - !off)
    else begin
      let n = min space (len - !off) in
      Buffer.blit record !off t.page_buf t.page_off n;
      t.page_off <- t.page_off + n;
      off := !off + n
    end
  done

let record_count t = t.record_count

(** User-data bytes written so far (merge progress accounting). *)
let data_bytes t = t.data_bytes

(* Serialize the index as a raw byte stream packed across whole pages
   (no record framing needed: entries are self-delimiting varints). Each
   entry is (first_key, pos). *)
let index_blob t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (key, pos) ->
      Repro_util.Varint.write buf (String.length key);
      Buffer.add_string buf key;
      Repro_util.Varint.write buf pos)
    (List.rev t.index_rev);
  Buffer.contents buf

(** [finish t ~timestamp ?bloom_blob] seals the component: flushes the
    last data page, writes index pages (and, optionally, a persisted
    Bloom filter — see §4.4.3's trade-off) and the footer, frees the
    unused tail of the final extent, and returns the footer. *)
let finish ?(bloom_blob = "") t ~timestamp =
  if t.page_off > Sst_format.header_bytes || t.n_starts > 0 || t.cont_len > 0
  then flush_page t ~upcoming_cont:0;
  let data_pages = t.page_pos in
  let index = index_blob t in
  let index_entries = List.length t.index_rev in
  (* Pack raw byte blobs (index, bloom) into whole pages. *)
  let page = Bytes.create t.page_size in
  let write_blob blob =
    let pages = (String.length blob + t.page_size - 1) / max 1 t.page_size in
    for i = 0 to pages - 1 do
      Bytes.fill page 0 t.page_size '\000';
      let off = i * t.page_size in
      let n = min t.page_size (String.length blob - off) in
      Bytes.blit_string blob off page 0 n;
      let ws = ensure_stream t in
      let id = Pagestore.Store.stream_write ws page in
      t.pages_in_extent <- t.pages_in_extent + 1;
      t.chain <- id :: t.chain;
      t.page_pos <- t.page_pos + 1
    done;
    pages
  in
  let index_pages = write_blob index in
  let bloom_pages = write_blob bloom_blob in
  (* Trim the final extent: free pages we never wrote. *)
  let extents_in_order = List.rev t.extents in
  let used_in_last = t.pages_in_extent in
  let extents_trimmed =
    match List.rev extents_in_order with
    | [] -> []
    | (last : Pagestore.Region_allocator.region) :: earlier ->
        let keep = max 1 used_in_last in
        if keep < last.length then begin
          Pagestore.Store.free_region t.store
            { start = last.start + keep; length = last.length - keep };
          List.rev ({ last with length = keep } :: earlier)
        end
        else extents_in_order
  in
  let footer =
    {
      Sst_format.timestamp;
      record_count = t.record_count;
      tombstone_count = t.tombstone_count;
      data_bytes = t.data_bytes;
      min_lsn = t.min_lsn;
      max_lsn = t.max_lsn;
      min_key = t.min_key;
      max_key = t.max_key;
      extents =
        List.map
          (fun (r : Pagestore.Region_allocator.region) -> (r.start, r.length))
          extents_trimmed;
      data_pages;
      index_pages;
      index_entries;
      index_bytes = String.length index;
      index_crc = Repro_util.Crc32c.string index;
      bloom_pages;
      bloom_bytes = String.length bloom_blob;
      bloom_crc = Repro_util.Crc32c.string bloom_blob;
    }
  in
  (* Footer page: belt-and-braces copy on disk (the engine also stores the
     blob in its commit root). Charged as one more streamed page. *)
  let blob = Sst_format.encode_footer footer in
  if String.length blob <= t.page_size then begin
    Bytes.fill page 0 t.page_size '\000';
    Bytes.blit_string blob 0 page 0 (String.length blob);
    Simdisk.Disk.seq_write (Pagestore.Store.disk t.store) ~bytes:t.page_size
  end;
  footer

(** [abandon t] frees everything written so far (merge cancelled). *)
let abandon t =
  List.iter (fun r -> Pagestore.Store.free_region t.store r) t.extents;
  t.extents <- []
