(** Store façade: disk + platter + region allocator + buffer manager +
    physical metadata journal + logical WAL.

    The Stasis substitute (DESIGN.md §1). Engines allocate contiguous
    regions for tree components, stream merge output around the cache, do
    cached point I/O through the buffer manager, and commit metadata
    through a force-written root so a physically consistent tree is
    available at crash (§4.4.2). *)

type t

type config = {
  cfg_page_size : int;
  cfg_buffer_pages : int;  (** buffer-pool capacity, in pages *)
  cfg_durability : Wal.durability;
}

(** 4 KiB pages, 1024-frame pool, full durability. *)
val default_config : config
[@@lint.allow "U001"] (* the documented default for [create]'s [?config] *)

val create : ?config:config -> Simdisk.Profile.t -> t

val disk : t -> Simdisk.Disk.t
val buffer : t -> Buffer_manager.t
val wal : t -> Wal.t
val page_size : t -> int

(** [set_faults t plan] arms a fault-injection plan across the store's
    write sites (streamed pages, buffer writebacks, WAL appends, root
    commits); write sites may then raise {!Simdisk.Faults.Crash_point}. *)
val set_faults : t -> Simdisk.Faults.t -> unit

(** The store's tracer: created with the store on its simulated clock
    and shared by the WAL, buffer manager, and hosted engines. Disabled
    (no sink) until [Obs.Trace.enable_file]/[enable_buffer]. *)
val trace : t -> Obs.Trace.t

(** [register_metrics reg t] registers disk/WAL/buffer/fault metrics as
    pull-closures over the store's live stat records. *)
val register_metrics : Obs.Metrics.t -> t -> unit

(** Simulated clock, µs. *)
val now_us : t -> float

(** {1 Regions} *)

val allocate_region : t -> pages:int -> Region_allocator.region

(** [free_region t r] returns [r]'s pages: cached copies are dropped,
    platter space reclaimed. *)
val free_region : t -> Region_allocator.region -> unit

(** {1 Cached page access (point reads, update-in-place trees)} *)

(** [with_page t id f] pins page [id] in the pool (a miss costs a seek),
    applies [f], unpins. The callback must not retain the buffer. *)
val with_page : t -> Page.id -> (Bytes.t -> 'a) -> 'a

(** As {!with_page} but a miss is charged as a sequential transfer
    (declared streaming access). *)
val with_page_seq : t -> Page.id -> (Bytes.t -> 'a) -> 'a

(** As {!with_page} but marks the frame dirty; eviction writes it back. *)
val with_page_mut : t -> Page.id -> (Bytes.t -> 'a) -> 'a

(** {1 Verified zero-copy access (the hot read path)}

    Point lookups verify a page's CRC once, when the frame is loaded from
    the platter, and then read records straight out of the pool's bytes —
    no per-access checksum, no copy-out. See DESIGN.md, "Read-path CPU
    costs". *)

(** [with_page_starts t id ~seq ~verify ~derive fn x] is
    [fn frame_bytes starts x] on page [id], pinned for the call, but
    [verify] (raises on a bad frame) checks the page while a miss copies
    it off the platter, in one pass, or in place on a frame an unverified
    access loaded; other pool hits skip it. And [starts = derive
    frame_bytes] (per-page record-start offsets) is cached alongside the
    frame; [derive] runs
    once per load, strictly after [verify]. The pin is released whether
    [fn] returns or raises; with top-level functions and the caller's
    argument as [x], the call builds no closure. *)
val with_page_starts :
  t ->
  Page.id ->
  seq:bool ->
  verify:Page.check ->
  derive:(Bytes.t -> int array) ->
  (Bytes.t -> int array -> 'k -> 'a) ->
  'k ->
  'a

(** A pinned buffer-pool frame: the page stays resident and its bytes
    can be read in place until {!unpin}. Release promptly — a leaked pin
    permanently shrinks the pool. *)
type pin

val pin_page : t -> Page.id -> seq:bool -> verify:Page.check -> pin

(** The pinned frame's bytes — valid until {!unpin}. Do not mutate. *)
val pinned_bytes : pin -> Bytes.t

val unpin : pin -> unit

(** {1 Streaming access (merges, bulk builds)}

    Direct platter I/O at sequential-bandwidth cost, bypassing the pool;
    the first page of each stream pays one positioning seek. *)

type write_stream

val open_write_stream : t -> Region_allocator.region -> write_stream

(** [stream_write ws page] writes the next page of the region, returning
    its id. Fails on region overflow. *)
val stream_write : write_stream -> Bytes.t -> Page.id

(** [read_page_direct t id buf] copies a page from the platter without
    touching pool or clock; the caller charges the disk. Only valid for
    pages written via streams (never dirty in the pool). *)
val read_page_direct : t -> Page.id -> Bytes.t -> unit

(** [read_page_checked t id buf ~check] is {!read_page_direct} with the
    copy made by [check], which checks the page as it copies it
    ({!Platter.read_checked}). *)
val read_page_checked : t -> Page.id -> Bytes.t -> check:Page.check -> unit

(** {1 Metadata root (the journal's recovery-visible state)} *)

(** [commit_root ?slot t blob] force-writes an engine's metadata (live
    component regions); survives {!crash}, unless the fault plan crashes
    it first ({!Simdisk.Faults.Crash_point}). [slot] names the tree when
    several share one store (partitioned stores); default [""]. *)
val commit_root : ?slot:string -> t -> string -> unit

val read_root : ?slot:string -> t -> string
val root_writes : t -> int

(** {1 Crash simulation} *)

(** [crash t] loses the buffer pool; platter, committed root, and the
    synced WAL prefix survive ([Degraded] durability discards the WAL's
    unsynced group-commit tail). Engines rebuild everything else in
    recovery. *)
val crash : t -> unit

(** [corrupt_page t id ~byte ~bit] flips one stored bit of page [id] —
    bit-rot instrumentation for scrub/recovery tests; false when the page
    was never written. *)
val corrupt_page : t -> Page.id -> byte:int -> bit:int -> bool

(** Bytes durably stored right now (space-amplification probe). *)
val stored_bytes : t -> int
