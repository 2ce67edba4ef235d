(** Buffer manager with CLOCK eviction (§4.4.2).

    Misses charge the simulated disk a seek (or a sequential transfer for
    declared streaming accesses); evicting a dirty frame charges a write,
    sequential when it happens to continue the previous writeback.
    Usually driven through {!Store}. *)

type t

val create : Simdisk.Disk.t -> Platter.t -> capacity_pages:int -> t
val capacity : t -> int
[@@lint.allow "U001"] (* constructor-argument accessor *)

(** Attach a fault-injection plan; dirty-frame writebacks consult it. *)
val set_faults : t -> Simdisk.Faults.t -> unit

(** Attach a tracer; evictions and explicit pins emit events on it.
    Usually the store's shared tracer. *)
val set_trace : t -> Obs.Trace.t -> unit

(** [with_page t id ~seq f] pins page [id], applies [f], unpins. *)
val with_page : t -> Page.id -> seq:bool -> (Bytes.t -> 'a) -> 'a

(** As {!with_page}, marking the frame dirty. Invalidates the frame's
    verified bit and derived metadata. *)
val with_page_mut : t -> Page.id -> seq:bool -> (Bytes.t -> 'a) -> 'a

(** {1 Verified-once access}

    Integrity checks and derived navigation metadata run when a frame is
    (re)loaded from the platter; pool hits skip them. Bit rot lands on
    the platter, so it is still caught at the load that brings the page
    into RAM. *)

(** [with_page_starts t id ~seq ~verify ~derive fn x] is
    [fn frame_bytes starts x] on page [id], pinned for the call, but
    [verify] (which must raise on a bad frame) checks the page while a
    miss copies it off the platter, or in place on a frame an unverified
    access loaded, and never on other hits; and [starts = derive
    frame_bytes] (per-page record-start offsets) is cached alongside the
    frame. [derive] runs
    once per load, strictly after [verify]. The pin is released whether
    [fn] returns or raises. Passing the caller's argument as [x], and
    top-level functions as [verify], [derive] and [fn], lets a call build
    no closure. *)
val with_page_starts :
  t ->
  Page.id ->
  seq:bool ->
  verify:Page.check ->
  derive:(Bytes.t -> int array) ->
  (Bytes.t -> int array -> 'k -> 'a) ->
  'k ->
  'a

(** {1 Pinned access (zero-copy reads)}

    A pin keeps a frame resident (CLOCK skips pinned frames) so callers
    can read records straight out of the pool's bytes across several
    operations instead of copying the page out. Release promptly: a
    leaked pin permanently shrinks the pool. *)

type pin

(** [pin t id ~seq ~verify] loads, verifies (as a miss copies the page
    off the platter, or in place on a frame an unverified access loaded)
    and pins page [id]. If [verify] raises, the pin is released and the
    frame stays unverified. *)
val pin : t -> Page.id -> seq:bool -> verify:Page.check -> pin

(** The pinned frame's bytes — valid until {!unpin}. Do not mutate. *)
val pin_bytes : pin -> Bytes.t

(** Release a pin. Safe (a no-op) if a {!crash} recycled the frame. *)
val unpin : pin -> unit

(** [force t id] synchronously writes page [id] back if dirty. *)
val force : t -> Page.id -> unit

(** [flush_all t] writes back every dirty frame (checkpoint). *)
val flush_all : t -> unit

(** [discard_region t ~start ~length] drops cached frames for freed pages
    without writeback. *)
val discard_region : t -> start:Page.id -> length:int -> unit

(** [crash t] simulates power loss: all frames vanish, dirty or not. *)
val crash : t -> unit

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val hit_rate : t -> float

(** Lifetime pin acquisitions across every access path. *)
val pins_taken : t -> int

(** Frames currently held by at least one pin. *)
val pinned_frames : t -> int

(** {1 The page table}

    Which frame holds a page is an int-keyed {!Frame_index}; these expose
    it for the model tests. *)

(** The page frame [slot] holds, or [-1] when empty. *)
val frame_page : t -> int -> Page.id

(** Every [(page id, frame slot)] the page table maps, by page id. *)
val cached_pages : t -> (Page.id * int) list
