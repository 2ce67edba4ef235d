(** C0: the in-memory tree component.

    An update-in-place ordered map that "fits in memory" and supports
    efficient ordered scans (§2.3.1). Tracks its own RAM footprint so that
    the merge schedulers can compute fill fractions, and records the WAL
    LSN of each live entry so log truncation can be delayed exactly as long
    as snowshoveling keeps old entries live (§4.4.2).

    Two structures share each record's mutable [slot]: a hash index by key
    serves point reads, in-place overwrites and removal in O(1), and the
    skip list keeps key order for scans, the snowshovel cursor and
    {!oldest_lsn}. Only a fresh key or a removal touches the skip list. *)

module Skiplist = Skiplist
(** Re-export: the skip list is part of this library's public surface. *)

module Index = Hashtbl.Make (String)

type slot = {
  mutable entry : Kv.Entry.t;
  mutable lsn : int;  (** oldest LSN the composed state depends on *)
  mutable lsn_newest : int;  (** newest LSN folded in (durability filter) *)
}

type t = {
  sl : slot Skiplist.t;
  index : slot Index.t;
  resolver : Kv.Entry.resolver;
  mutable bytes : int;
  mutable version : int;
      (** bumped by every insert of a fresh key and every removal *)
  mutable succ_of : string;
  mutable succ : (string * slot) option;
      (** the smallest binding with key > [succ_of], as of [succ_version]:
          the ordered consumer's next record, kept so that peeking it and
          popping it cost the one descent that unlinks it *)
  mutable succ_version : int;
}

(* Approximate per-record RAM overhead: skip-list node, pointers, slot. *)
let node_overhead = 64

let entry_bytes key entry =
  String.length key + Kv.Entry.encoded_size entry + node_overhead

let create ?(seed = 42) ~resolver () =
  {
    sl = Skiplist.create ~seed ();
    index = Index.create 1024;
    resolver;
    bytes = 0;
    version = 0;
    succ_of = "";
    succ = None;
    succ_version = -1;
  }

let count t = Skiplist.length t.sl

let bytes t = t.bytes

let is_empty t = Skiplist.is_empty t.sl

(** [write t ~lsn key entry] applies one logical write. A [Delta] composes
    with any state already buffered in C0; [Base] and [Tombstone] replace
    it. The slot keeps the *oldest* LSN it still depends on, because replay
    must restart from there to rebuild the composed state. A key already
    in C0 is rewritten in place through the index; only a fresh key is
    inserted into the skip list. *)
let write t ~lsn key entry =
  match Index.find_opt t.index key with
  | Some slot ->
      let merged = Kv.Entry.merge t.resolver ~newer:entry ~older:slot.entry in
      t.bytes <- t.bytes + entry_bytes key merged - entry_bytes key slot.entry;
      slot.entry <- merged;
      (match entry with
      | Kv.Entry.Delta _ -> () (* still depends on the older state *)
      | Kv.Entry.Base _ | Kv.Entry.Tombstone -> slot.lsn <- lsn);
      if lsn > slot.lsn_newest then slot.lsn_newest <- lsn
  | None ->
      let slot = { entry; lsn; lsn_newest = lsn } in
      Skiplist.set t.sl key slot;
      Index.add t.index key slot;
      t.bytes <- t.bytes + entry_bytes key entry;
      t.version <- t.version + 1

(* [Index.find], not [find_opt]: a hit builds only the returned [Some]. *)
let get t key =
  match Index.find t.index key with s -> Some s.entry | exception Not_found -> None

let remember_succ t key succ =
  t.succ_of <- key;
  t.succ <- succ;
  t.succ_version <- t.version

(* The smallest binding with key > [key]: the remembered successor when
   no insert or removal has happened since and [key] lies in
   [succ_of, succ), otherwise one descent. *)
let succ_gt t key =
  if
    t.succ_version = t.version
    && String.compare t.succ_of key <= 0
    && match t.succ with Some (k, _) -> String.compare key k < 0 | None -> true
  then t.succ
  else begin
    let succ = Skiplist.succ_gt t.sl key in
    remember_succ t key succ;
    succ
  end

(* Physically drop a consumed record (merge consumption, not a logical
   delete — those are tombstone writes), remembering its successor;
   returns the record with its newest LSN. *)
let unlink t key slot =
  let succ = Skiplist.remove_succ t.sl key in
  Index.remove t.index key;
  t.bytes <- t.bytes - entry_bytes key slot.entry;
  t.version <- t.version + 1;
  remember_succ t key succ;
  Some (key, slot.entry, slot.lsn_newest)

(** [consume_geq_lsn t key] pops the smallest binding with key >= [key],
    also yielding the newest LSN folded into it. [None] when no key
    remains at or after [key]. *)
let consume_geq_lsn t key =
  match Skiplist.succ_geq t.sl key with
  | Some (k, slot) -> unlink t k slot
  | None -> None

(** [pop_next t key] pops exactly the binding [peek_gt_lsn t key] returns:
    the snowshovel step (§4.2). After a peek at the same cursor, or a
    previous pop of the cursor's key, the whole pop is one descent. *)
let pop_next t key =
  match succ_gt t key with Some (k, slot) -> unlink t k slot | None -> None

let lsn_record = function
  | Some (k, slot) -> Some (k, slot.entry, slot.lsn_newest)
  | None -> None

(** [peek_geq_lsn t key] inspects without consuming, with the newest
    contributing LSN. *)
let peek_geq_lsn t key = lsn_record (Skiplist.succ_geq t.sl key)

(** [peek_gt_lsn t key] is {!peek_geq_lsn} for the smallest key > [key]. *)
let peek_gt_lsn t key = lsn_record (succ_gt t key)

(** [pull_from t ~from] streams the live bindings with key >= [from] in
    order, with LSNs: a merge-iterator source over the memtable. The
    cursor is the last record returned (kept as returned, so a pull
    allocates only its result); each pull resumes strictly past its key.
    A scan never asks twice for the same successor, so it bypasses the
    remembered one and leaves it to the snowshovel. *)
let pull_from t ~from =
  let last = ref None in
  fun () ->
    let r =
      match !last with
      | None -> peek_geq_lsn t from
      | Some (k, _, _) -> lsn_record (Skiplist.succ_gt t.sl k)
    in
    (match r with Some _ -> last := r | None -> ());
    r

(** [oldest_lsn t] is the smallest LSN any live entry depends on, or [None]
    when empty. O(n); called once per merge completion to pick the WAL
    truncation point. *)
let oldest_lsn t =
  Skiplist.fold t.sl None (fun acc _ slot ->
      match acc with
      | None -> Some slot.lsn
      | Some m -> Some (min m slot.lsn))
