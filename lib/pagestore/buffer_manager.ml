(** Buffer manager with CLOCK eviction.

    Follows §4.4.2: bLSM's buffer manager uses a CLOCK eviction policy
    ("LRU was a concurrency bottleneck") and a writeback policy tuned for
    predictable latencies. Misses charge the simulated disk a seek (or a
    sequential transfer when the caller declares a streaming access);
    evicting a dirty frame charges a write, sequential when the writeback
    happens to continue the previous one. *)

type frame = {
  slot : int; (* position in the frame array, fixed at creation *)
  mutable page : Page.id; (* -1 when the frame is empty *)
  data : Bytes.t;
  mutable dirty : bool;
  mutable refbit : bool;
  mutable pins : int;
  (* Verified-once bookkeeping: integrity checks and derived navigation
     metadata run when a frame is (re)loaded from the platter, then pool
     hits skip them entirely. Bit rot lands on the platter, so it is
     still caught at the load that brings it into RAM. *)
  mutable verified : bool;
  mutable starts : int array option; (* derived record-start offsets *)
}

type t = {
  disk : Simdisk.Disk.t;
  platter : Platter.t;
  page_size : int;
  frames : frame array;
  index : Frame_index.t;  (* page id -> frame slot *)
  mutable hand : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable last_writeback : Page.id;
  mutable faults : Simdisk.Faults.t;
  mutable trace : Obs.Trace.t;
  mutable pins_taken : int; (* lifetime pin acquisitions, all access paths *)
}

let create disk platter ~capacity_pages =
  if capacity_pages < 1 then invalid_arg "Buffer_manager.create: capacity";
  let page_size = Platter.page_size platter in
  {
    disk;
    platter;
    page_size;
    frames =
      Array.init capacity_pages (fun slot ->
          { slot; page = -1; data = Bytes.create page_size; dirty = false;
            refbit = false; pins = 0; verified = false; starts = None });
    index = Frame_index.create ~capacity:capacity_pages;
    hand = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    last_writeback = -10;
    faults = Simdisk.Faults.create ();
    trace = Obs.Trace.create ();
    pins_taken = 0;
  }

let capacity t = Array.length t.frames

let set_faults t plan = t.faults <- plan
let set_trace t tr = t.trace <- tr

(* Every access path pins its frame for the callback's duration; count
   them all so the metrics registry can expose pin traffic. *)
let take_pin t f =
  f.pins <- f.pins + 1;
  t.pins_taken <- t.pins_taken + 1

let writeback t frame =
  if frame.dirty then begin
    (match Simdisk.Faults.on_page_write t.faults ~page_size:t.page_size with
    | Simdisk.Faults.Pw_ok -> Platter.write t.platter frame.page frame.data
    | Simdisk.Faults.Pw_lost -> () (* acked but never persisted *)
    | Simdisk.Faults.Pw_flip (byte, bit) ->
        Platter.write t.platter frame.page frame.data;
        ignore (Platter.corrupt t.platter frame.page ~byte ~bit)
    | Simdisk.Faults.Pw_crash ->
        raise (Simdisk.Faults.Crash_point "buffer writeback")
    | Simdisk.Faults.Pw_crash_torn keep ->
        let torn = Bytes.sub frame.data 0 t.page_size in
        Bytes.fill torn keep (t.page_size - keep) '\000';
        Platter.write t.platter frame.page torn;
        raise (Simdisk.Faults.Crash_point "buffer writeback (torn)"));
    if frame.page = t.last_writeback + 1 then
      Simdisk.Disk.seq_write t.disk ~bytes:t.page_size
    else Simdisk.Disk.seek_write t.disk ~bytes:t.page_size;
    t.last_writeback <- frame.page;
    frame.dirty <- false
  end

(* Advance the CLOCK hand to a victim frame: skip pinned frames, clear
   reference bits on the first lap. Two full laps of pinned frames means
   the pool is exhausted, which is a bug in the caller. *)
let find_victim t =
  let n = Array.length t.frames in
  let rec go remaining =
    if remaining = 0 then failwith "Buffer_manager: all frames pinned";
    let f = t.frames.(t.hand) in
    t.hand <- (t.hand + 1) mod n;
    if f.pins > 0 then go (remaining - 1)
    else if f.refbit then begin
      f.refbit <- false;
      go (remaining - 1)
    end
    else f
  in
  go (2 * n + 1)

(* A miss: the CLOCK victim, written back if dirty, is charged the read
   and handed over to page [id], unverified; the caller copies the page's
   bytes in. *)
let claim t id ~seq =
  t.misses <- t.misses + 1;
  let f = find_victim t in
  if f.page >= 0 then begin
    t.evictions <- t.evictions + 1;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.instant t.trace ~cat:"buf" ~name:"evict"
        ~args:[ ("page", Obs.Trace.I f.page); ("dirty", Obs.Trace.B f.dirty) ];
    writeback t f;
    Frame_index.remove t.index f.page
  end;
  if seq then Simdisk.Disk.seq_read t.disk ~bytes:t.page_size
  else Simdisk.Disk.seek_read t.disk ~bytes:t.page_size;
  f.page <- id;
  f.refbit <- true;
  f.dirty <- false;
  f.verified <- false;
  f.starts <- None;
  Frame_index.add t.index id f.slot;
  f

let hit t f =
  t.hits <- t.hits + 1;
  f.refbit <- true;
  f

let load t id ~seq =
  match Frame_index.find t.index id with
  | -1 ->
      let f = claim t id ~seq in
      Platter.read t.platter id f.data;
      f
  | fi -> hit t t.frames.(fi)

(** [with_page t id ~seq f] pins page [id], applies [f] to its bytes, and
    unpins. The callback must not retain the buffer. *)
let with_page t id ~seq fn =
  let f = load t id ~seq in
  take_pin t f;
  match fn f.data with
  | r ->
      f.pins <- f.pins - 1;
      r
  | exception e ->
      f.pins <- f.pins - 1;
      raise e

(** [with_page_mut] is [with_page] but marks the frame dirty. Mutation
    invalidates the verified bit and any derived metadata. *)
let with_page_mut t id ~seq fn =
  let f = load t id ~seq in
  take_pin t f;
  f.dirty <- true;
  f.verified <- false;
  f.starts <- None;
  match fn f.data with
  | r ->
      f.pins <- f.pins - 1;
      r
  | exception e ->
      f.pins <- f.pins - 1;
      raise e

(* Run the caller's integrity check in place on a frame an unverified
   access loaded; a verified load has already run it. *)
let ensure_verified f ~(verify : Page.check) =
  if not f.verified then begin
    verify f.data 0 f.data ~page:f.page;
    f.verified <- true
  end

(* Page [id]'s frame, pinned and verified, for the verified accesses. A
   miss copies the page off the platter through [verify], so its bytes
   are checked as they are copied and read once; a hit checks in place
   only a frame an unverified access loaded. If the check raises, the
   pin is dropped and the frame, holding the stored bytes, stays
   unverified. *)
let pin_verified t id ~seq ~verify =
  match Frame_index.find t.index id with
  | -1 -> (
      let f = claim t id ~seq in
      take_pin t f;
      match Platter.read_checked t.platter id f.data ~check:verify with
      | () ->
          f.verified <- true;
          f
      | exception e ->
          f.pins <- f.pins - 1;
          raise e)
  | fi -> (
      let f = hit t t.frames.(fi) in
      take_pin t f;
      match ensure_verified f ~verify with
      | () -> f
      | exception e ->
          f.pins <- f.pins - 1;
          raise e)

(** [with_page_starts t id ~seq ~verify ~derive fn x] is {!with_page}
    applied to [fn frame_bytes starts x], except [verify] (which must
    raise on a bad frame) checks the page as a miss copies it off the
    platter, or in place on a frame an unverified access loaded — other
    pool hits skip the check — and it caches [derive frame_bytes] (record-start offsets, or any per-page
    navigation metadata) alongside the frame; [derive] runs once per
    load, strictly after [verify], so derived offsets never come from
    unverified bytes. The caller's argument travels as [x] and the pin is
    dropped on the way out, raised or not, so a point read builds no
    closure here. *)
let with_page_starts t id ~seq ~verify ~derive fn x =
  let f = pin_verified t id ~seq ~verify in
  match
    let starts =
      match f.starts with
      | Some a -> a
      | None ->
          let a = derive f.data in
          f.starts <- Some a;
          a
    in
    fn f.data starts x
  with
  | r ->
      f.pins <- f.pins - 1;
      r
  | exception e ->
      f.pins <- f.pins - 1;
      raise e

(** {1 Pinned access}

    A [pin] keeps a frame resident (CLOCK skips pinned frames) so callers
    can read records straight out of the pool's bytes across several
    operations — the zero-copy read path — instead of copying the page
    out. Pins must be released promptly; a leaked pin permanently shrinks
    the pool. *)

type pin = { p_frame : frame; p_page : Page.id }

let pin t id ~seq ~verify =
  let f = pin_verified t id ~seq ~verify in
  if Obs.Trace.enabled t.trace then
    Obs.Trace.instant t.trace ~cat:"buf" ~name:"pin"
      ~args:[ ("page", Obs.Trace.I id) ];
  { p_frame = f; p_page = id }

let pin_bytes p = p.p_frame.data

(* Tolerates a crash (or discard) having recycled the frame in between:
   unpinning is then a no-op rather than corrupting another page's pin
   count. *)
let unpin p =
  if p.p_frame.page = p.p_page && p.p_frame.pins > 0 then
    p.p_frame.pins <- p.p_frame.pins - 1

(** [force t id] synchronously writes page [id] back if dirty. *)
let force t id =
  match Frame_index.find t.index id with
  | -1 -> ()
  | fi -> writeback t t.frames.(fi)

(** [flush_all t] writes back every dirty frame (checkpoint). *)
let flush_all t =
  Array.iter (fun f -> if f.page >= 0 then writeback t f) t.frames

(** [discard_region t ~start ~length] drops cached frames for freed pages
    without writing them back (their region is being deallocated). *)
let discard_region t ~start ~length =
  for id = start to start + length - 1 do
    match Frame_index.find t.index id with
    | -1 -> ()
    | fi ->
        let f = t.frames.(fi) in
        f.page <- -1;
        f.dirty <- false;
        f.refbit <- false;
        f.verified <- false;
        f.starts <- None;
        Frame_index.remove t.index id
  done

(** [crash t] simulates power loss: all frames vanish, dirty or not. *)
let crash t =
  Array.iter
    (fun f ->
      f.page <- -1;
      f.dirty <- false;
      f.refbit <- false;
      f.pins <- 0;
      f.verified <- false;
      f.starts <- None)
    t.frames;
  Frame_index.clear t.index

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let pins_taken t = t.pins_taken

let frame_page t slot = t.frames.(slot).page
let cached_pages t = Frame_index.bindings t.index

let pinned_frames t =
  Array.fold_left (fun acc f -> if f.pins > 0 then acc + 1 else acc) 0 t.frames

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
