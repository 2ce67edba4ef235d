(** The simulated disk platter: durable page payloads.

    Pages written here survive a simulated crash; the buffer manager's
    dirty frames do not. Absent pages read as zeroes, like a freshly
    trimmed device.

    An arena addressed by page id: page [id] lives at byte
    [(id mod chunk_pages) * page_size] of chunk [id / chunk_pages]. A
    chunk is allocated by the first write into it and released when its
    last present page is dropped, so memory follows the live pages, not
    the allocator's high-water mark. A presence byte per id hides the
    stale bytes of a dropped page whose chunk is still live (DESIGN.md §4
    "Page arena"). *)

(* 256 pages: 1 MiB at 4 KiB pages, half of a default 512-page extent. *)
let chunk_shift = 8
let chunk_pages = 1 lsl chunk_shift
let chunk_mask = chunk_pages - 1

type t = {
  page_size : int;
  mutable chunks : Bytes.t array; (* [Bytes.empty] while released *)
  mutable live : int array; (* present pages per chunk *)
  mutable present : Bytes.t; (* one byte per id, '\001' when present *)
  mutable stored : int; (* present pages in all *)
}

let create ~page_size =
  { page_size; chunks = [||]; live = [||]; present = Bytes.empty; stored = 0 }

let page_size t = t.page_size

let is_present t id =
  id >= 0 && id < Bytes.length t.present && Bytes.unsafe_get t.present id <> '\000'

(* Grow the id space to cover [id], doubling, in whole chunks. *)
let grow t id =
  let n = ref (max chunk_pages (Bytes.length t.present)) in
  while !n <= id do
    n := 2 * !n
  done;
  let old = Bytes.length t.present in
  t.present <- Bytes.extend t.present 0 (!n - old);
  Bytes.fill t.present old (!n - old) '\000';
  let added = (!n - old) lsr chunk_shift in
  t.chunks <- Array.append t.chunks (Array.make added Bytes.empty);
  t.live <- Array.append t.live (Array.make added 0)

(** [read t id dst] copies page [id] into [dst] (zero-fills if absent). *)
let read t id dst =
  if is_present t id then
    Bytes.blit t.chunks.(id lsr chunk_shift) ((id land chunk_mask) * t.page_size)
      dst 0 t.page_size
  else Bytes.fill dst 0 t.page_size '\000'

(** [read_checked t id dst ~check] is [read t id dst] with the copy made
    by [check], which checks the bytes as it copies them: an absent page
    is zero-filled and checked in place. *)
let read_checked t id dst ~(check : Page.check) =
  if is_present t id then
    check t.chunks.(id lsr chunk_shift) ((id land chunk_mask) * t.page_size) dst
      ~page:id
  else begin
    Bytes.fill dst 0 t.page_size '\000';
    check dst 0 dst ~page:id
  end

(** [write t id src] durably stores a copy of [src] as page [id]. *)
let write t id src =
  if id < 0 then invalid_arg "Platter.write: negative page id";
  if id >= Bytes.length t.present then grow t id;
  let c = id lsr chunk_shift in
  if Bytes.unsafe_get t.present id = '\000' then begin
    if t.live.(c) = 0 then t.chunks.(c) <- Bytes.create (chunk_pages * t.page_size);
    t.live.(c) <- t.live.(c) + 1;
    Bytes.unsafe_set t.present id '\001';
    t.stored <- t.stored + 1
  end;
  Bytes.blit src 0 t.chunks.(c) ((id land chunk_mask) * t.page_size) t.page_size

(** [drop t id] discards a page (region freed); a chunk left with no
    present page is released. *)
let drop t id =
  if is_present t id then begin
    let c = id lsr chunk_shift in
    Bytes.unsafe_set t.present id '\000';
    t.stored <- t.stored - 1;
    t.live.(c) <- t.live.(c) - 1;
    if t.live.(c) = 0 then t.chunks.(c) <- Bytes.empty
  end

(** [corrupt t id ~byte ~bit] flips one stored bit — simulated bit rot.
    Returns false when the page is absent (nothing to rot). *)
let corrupt t id ~byte ~bit =
  if is_present t id && byte >= 0 && byte < t.page_size then begin
    let b = t.chunks.(id lsr chunk_shift) in
    let pos = ((id land chunk_mask) * t.page_size) + byte in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (bit land 7))));
    true
  end
  else false

let stored_bytes t = t.stored * t.page_size
