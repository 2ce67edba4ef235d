(** Store façade: disk + platter + region allocator + buffer manager +
    physical metadata journal + logical WAL.

    This is the Stasis substitute described in DESIGN.md §1. Engines
    allocate contiguous regions for tree components, stream merge output
    around the cache, do cached point I/O through the buffer manager, and
    commit metadata (the set of live components) through a force-written
    root record, so that "a physically consistent version of the tree is
    available at crash" (§4.4.2). *)

type t = {
  disk : Simdisk.Disk.t;
  platter : Platter.t;
  allocator : Region_allocator.t;
  buffer : Buffer_manager.t;
  wal : Wal.t;
  page_size : int;
  trace : Obs.Trace.t;
      (* one tracer per store, on the simulated clock, shared by the WAL,
         the buffer manager, and every engine hosted on this store *)
  mutable faults : Simdisk.Faults.t;
  (* The journal: force-written metadata blobs (think Stasis' physical
     log distilled to its recovery-visible effect), one slot per tree
     hosted on this store. *)
  roots : (string, string) Hashtbl.t;
  mutable root_writes : int;
}

type config = {
  cfg_page_size : int;
  cfg_buffer_pages : int;  (** buffer-pool capacity, in pages *)
  cfg_durability : Wal.durability;
}

let default_config =
  { cfg_page_size = Page.default_size; cfg_buffer_pages = 1024;
    cfg_durability = Wal.Full }

let create ?(config = default_config) profile =
  let disk = Simdisk.Disk.create profile in
  let platter = Platter.create ~page_size:config.cfg_page_size in
  let trace = Obs.Trace.create ~now:(fun () -> Simdisk.Disk.now_us disk) () in
  let buffer =
    Buffer_manager.create disk platter ~capacity_pages:config.cfg_buffer_pages
  in
  let wal = Wal.create ~durability:config.cfg_durability disk in
  Buffer_manager.set_trace buffer trace;
  Wal.set_trace wal trace;
  {
    disk;
    platter;
    allocator = Region_allocator.create ();
    buffer;
    wal;
    page_size = config.cfg_page_size;
    trace;
    faults = Simdisk.Faults.create ();
    roots = Hashtbl.create 4;
    root_writes = 0;
  }

let disk t = t.disk
let buffer t = t.buffer
let wal t = t.wal
let page_size t = t.page_size
let now_us t = Simdisk.Disk.now_us t.disk

(** [set_faults t plan] arms a fault-injection plan across the store's
    write sites (streamed pages, buffer writebacks, WAL appends). *)
let set_faults t plan =
  t.faults <- plan;
  Wal.set_faults t.wal plan;
  Buffer_manager.set_faults t.buffer plan

let trace t = t.trace

(** [register_metrics reg t] registers the store's whole stack — disk
    counters, WAL, buffer pool, fault injection — as pull-closures over
    the live stat records (the compatibility shim: the records stay the
    hot-path representation, the registry samples them at dump time). *)
let register_metrics reg t =
  let open Obs.Metrics in
  let dsnap f = fun () -> f (Simdisk.Disk.snapshot t.disk) in
  counter reg "disk.seeks" ~help:"random positionings (reads + writes)"
    (dsnap (fun s -> s.Simdisk.Disk.seeks));
  counter reg "disk.random_writes" ~help:"random in-place page writes"
    (dsnap (fun s -> s.Simdisk.Disk.random_writes));
  counter reg "disk.seq_read_bytes" ~help:"streamed read bytes"
    (dsnap (fun s -> s.Simdisk.Disk.seq_read_bytes));
  counter reg "disk.seq_write_bytes" ~help:"streamed write bytes"
    (dsnap (fun s -> s.Simdisk.Disk.seq_write_bytes));
  counter reg "disk.random_read_bytes" ~help:"random-read bytes"
    (dsnap (fun s -> s.Simdisk.Disk.random_read_bytes));
  counter reg "disk.random_write_bytes" ~help:"random-write bytes"
    (dsnap (fun s -> s.Simdisk.Disk.random_write_bytes));
  gauge reg "disk.now_us" ~help:"simulated clock, microseconds"
    (fun () -> Simdisk.Disk.now_us t.disk);
  gauge reg "disk.stored_bytes" ~help:"bytes durably stored (space amp)"
    (fun () -> float_of_int (Platter.stored_bytes t.platter));
  counter reg "wal.size_bytes" ~help:"live WAL bytes"
    (fun () -> Wal.size_bytes t.wal);
  counter reg "wal.appended_bytes" ~help:"lifetime appended bytes (write amp)"
    (fun () -> Wal.appended_bytes t.wal);
  counter reg "wal.synced_lsn" ~help:"highest durable LSN"
    (fun () -> Wal.synced_lsn t.wal);
  counter reg "wal.truncated_to" ~help:"lowest live LSN"
    (fun () -> Wal.truncated_to t.wal);
  counter reg "wal.torn_tail_drops" ~help:"torn tail records dropped by replay"
    (fun () -> Wal.torn_tail_drops t.wal);
  counter reg "wal.dropped_unsynced" ~help:"records lost to the group-commit window"
    (fun () -> Wal.dropped_unsynced t.wal);
  counter reg "buf.hits" ~help:"buffer-pool hits" (fun () ->
      Buffer_manager.hits t.buffer);
  counter reg "buf.misses" ~help:"buffer-pool misses" (fun () ->
      Buffer_manager.misses t.buffer);
  counter reg "buf.evictions" ~help:"frames evicted" (fun () ->
      Buffer_manager.evictions t.buffer);
  counter reg "buf.pins_taken" ~help:"lifetime pin acquisitions" (fun () ->
      Buffer_manager.pins_taken t.buffer);
  gauge reg "buf.pinned_frames" ~help:"frames currently pinned" (fun () ->
      float_of_int (Buffer_manager.pinned_frames t.buffer));
  gauge reg "buf.hit_rate" ~help:"hits / (hits + misses)" (fun () ->
      Buffer_manager.hit_rate t.buffer);
  (* read through [t.faults] at sample time: [set_faults] swaps plans *)
  counter reg "faults.injected_lost_writes" ~help:"page writes silently dropped"
    (fun () -> (Simdisk.Faults.counters t.faults).Simdisk.Faults.injected_lost_writes);
  counter reg "faults.injected_bit_flips" ~help:"stored bits flipped"
    (fun () -> (Simdisk.Faults.counters t.faults).Simdisk.Faults.injected_bit_flips);
  counter reg "faults.injected_torn_writes" ~help:"writes torn at power loss"
    (fun () -> (Simdisk.Faults.counters t.faults).Simdisk.Faults.injected_torn_writes);
  counter reg "faults.crashes_fired" ~help:"scheduled crash points hit"
    (fun () -> (Simdisk.Faults.counters t.faults).Simdisk.Faults.crashes_fired);
  counter reg "store.root_writes" ~help:"metadata root force-writes"
    (fun () -> t.root_writes);
  counter reg "trace.events_emitted" ~help:"trace events written so far"
    (fun () -> Obs.Trace.events_emitted t.trace)

(** {1 Regions} *)

let allocate_region t ~pages = Region_allocator.allocate t.allocator pages

let free_region t (r : Region_allocator.region) =
  Buffer_manager.discard_region t.buffer ~start:r.start ~length:r.length;
  for id = r.start to r.start + r.length - 1 do
    Platter.drop t.platter id
  done;
  Region_allocator.free t.allocator r

(** {1 Cached page access (point reads, update-in-place trees)} *)

let with_page t id fn = Buffer_manager.with_page t.buffer id ~seq:false fn
let with_page_seq t id fn = Buffer_manager.with_page t.buffer id ~seq:true fn
let with_page_mut t id fn = Buffer_manager.with_page_mut t.buffer id ~seq:false fn

(** {1 Verified zero-copy access (the hot read path)}

    Point lookups verify a page's CRC once, when the frame is loaded from
    the platter, and then read records straight out of the pool's bytes —
    no per-access checksum, no 4 KiB copy-out (DESIGN.md "Read-path CPU
    costs"). *)

let with_page_starts t id ~seq ~verify ~derive fn x =
  Buffer_manager.with_page_starts t.buffer id ~seq ~verify ~derive fn x

type pin = Buffer_manager.pin

let pin_page t id ~seq ~verify = Buffer_manager.pin t.buffer id ~seq ~verify
let pinned_bytes = Buffer_manager.pin_bytes
let unpin = Buffer_manager.unpin

(** {1 Streaming access (merges, bulk builds)}

    Merge threads "avoid reading pre-images of pages they are about to
    overwrite" and their output is force-written via the buffer manager
    (§4.4.2); we model this as direct platter I/O at sequential-bandwidth
    cost, leaving the buffer pool to the read path. The first page of each
    stream pays one positioning seek. *)

type write_stream = {
  ws_store : t;
  mutable ws_next : Page.id;
  ws_end : Page.id;
  mutable ws_first : bool;
}

let open_write_stream t (r : Region_allocator.region) =
  { ws_store = t; ws_next = r.start; ws_end = r.start + r.length; ws_first = true }

let stream_write ws page_bytes =
  if ws.ws_next >= ws.ws_end then failwith "Store.stream_write: region overflow";
  let st = ws.ws_store in
  let id = ws.ws_next in
  (* The buffer pool may hold a stale copy of a recycled page id. *)
  Buffer_manager.discard_region st.buffer ~start:id ~length:1;
  (match Simdisk.Faults.on_page_write st.faults ~page_size:st.page_size with
  | Simdisk.Faults.Pw_ok -> Platter.write st.platter id page_bytes
  | Simdisk.Faults.Pw_lost ->
      (* acked but never persisted: the platter keeps its old contents *)
      ()
  | Simdisk.Faults.Pw_flip (byte, bit) ->
      Platter.write st.platter id page_bytes;
      ignore (Platter.corrupt st.platter id ~byte ~bit)
  | Simdisk.Faults.Pw_crash ->
      raise (Simdisk.Faults.Crash_point "stream page write")
  | Simdisk.Faults.Pw_crash_torn keep ->
      (* only a prefix of the page reached the platter before power loss *)
      let torn = Bytes.copy page_bytes in
      Bytes.fill torn keep (st.page_size - keep) '\000';
      Platter.write st.platter id torn;
      raise (Simdisk.Faults.Crash_point "stream page write (torn)"));
  if ws.ws_first then begin
    Simdisk.Disk.seek_write st.disk ~bytes:st.page_size;
    ws.ws_first <- false
  end
  else Simdisk.Disk.seq_write st.disk ~bytes:st.page_size;
  ws.ws_next <- ws.ws_next + 1;
  id


(** [read_page_direct t id buf] copies a page from the platter without
    touching the buffer pool or the clock; the caller charges the disk.
    Only valid for pages written via streams (never dirty in the pool). *)
let read_page_direct t id buf = Platter.read t.platter id buf

let read_page_checked t id buf ~check = Platter.read_checked t.platter id buf ~check

(** {1 Metadata root (the journal's recovery-visible state)} *)

(** [commit_root t blob] force-writes the engine's metadata (live component
    regions, timestamps). Charged as one random write of one page per 4 KB
    of metadata. *)
let commit_root ?(slot = "") t blob =
  if Simdisk.Faults.on_root_commit t.faults then
    raise (Simdisk.Faults.Crash_point "root commit");
  let pages = max 1 ((String.length blob + t.page_size - 1) / t.page_size) in
  for _ = 1 to pages do
    Simdisk.Disk.seek_write t.disk ~bytes:t.page_size
  done;
  Hashtbl.replace t.roots slot blob;
  t.root_writes <- t.root_writes + 1

let read_root ?(slot = "") t =
  Option.value (Hashtbl.find_opt t.roots slot) ~default:""

let root_writes t = t.root_writes

(** {1 Crash simulation} *)

(** [crash t] loses the buffer pool; platter, committed root, and the
    synced WAL prefix survive (under [Degraded] durability the WAL's
    unsynced group-commit tail is discarded). The engine's recovery path
    must rebuild everything else. *)
let crash t =
  Buffer_manager.crash t.buffer;
  Wal.crash t.wal

(** [corrupt_page t id ~byte ~bit] flips one stored bit of page [id] —
    bit-rot instrumentation for scrub/recovery tests. False when the
    page was never written. *)
let corrupt_page t id ~byte ~bit = Platter.corrupt t.platter id ~byte ~bit

(** Bytes durably stored right now (space amplification probe). *)
let stored_bytes t = Platter.stored_bytes t.platter
