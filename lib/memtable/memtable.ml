(** C0: the in-memory tree component.

    An update-in-place ordered map that "fits in memory" and supports
    efficient ordered scans (§2.3.1). Tracks its own RAM footprint so that
    the merge schedulers can compute fill fractions, and records the WAL
    LSN of each live entry so log truncation can be delayed exactly as long
    as snowshoveling keeps old entries live (§4.4.2). *)

module Skiplist = Skiplist
(** Re-export: the skip list is part of this library's public surface. *)

type slot = {
  mutable entry : Kv.Entry.t;
  mutable lsn : int;  (** oldest LSN the composed state depends on *)
  mutable lsn_newest : int;  (** newest LSN folded in (durability filter) *)
}

type t = {
  sl : slot Skiplist.t;
  resolver : Kv.Entry.resolver;
  mutable bytes : int;
}

(* Approximate per-record RAM overhead: skip-list node, pointers, slot. *)
let node_overhead = 64

let entry_bytes key entry =
  String.length key + Kv.Entry.encoded_size entry + node_overhead

let create ?(seed = 42) ~resolver () =
  { sl = Skiplist.create ~seed (); resolver; bytes = 0 }

let count t = Skiplist.length t.sl

let bytes t = t.bytes

let is_empty t = Skiplist.is_empty t.sl

(** [write t ~lsn key entry] applies one logical write. A [Delta] composes
    with any state already buffered in C0; [Base] and [Tombstone] replace
    it. The slot keeps the *oldest* LSN it still depends on, because replay
    must restart from there to rebuild the composed state. *)
let write t ~lsn key entry =
  (* One descent: the update callback sees the old state and settles the
     byte delta there. *)
  let delta = ref 0 in
  ignore
    (Skiplist.update t.sl key (fun existing ->
         match existing with
         | None ->
             delta := entry_bytes key entry;
             { entry; lsn; lsn_newest = lsn }
         | Some slot ->
             let merged =
               Kv.Entry.merge t.resolver ~newer:entry ~older:slot.entry
             in
             let oldest =
               match entry with
               | Kv.Entry.Delta _ -> slot.lsn (* still depends on older state *)
               | Kv.Entry.Base _ | Kv.Entry.Tombstone -> lsn
             in
             delta := entry_bytes key merged - entry_bytes key slot.entry;
             slot.entry <- merged;
             slot.lsn <- oldest;
             slot.lsn_newest <- max slot.lsn_newest lsn;
             slot));
  t.bytes <- t.bytes + !delta

let get t key =
  match Skiplist.find t.sl key with Some s -> Some s.entry | None -> None

(** [remove t key] physically drops a key (used when a consumed entry is
    moved into C1, not for logical deletes — those are tombstone writes). *)
let remove t key =
  match Skiplist.remove t.sl key with
  | Some s ->
      t.bytes <- t.bytes - entry_bytes key s.entry;
      Some s.entry
  | None -> None

(** [consume_geq_lsn t key] pops the smallest binding with key >= [key]
    (the snowshovel primitive), also yielding the newest LSN folded into
    it. [None] when no key remains at or after the cursor (run wraps). *)
let consume_geq_lsn t key =
  match Skiplist.succ_geq t.sl key with
  | Some (k, slot) ->
      ignore (Skiplist.remove t.sl k);
      t.bytes <- t.bytes - entry_bytes k slot.entry;
      Some (k, slot.entry, slot.lsn_newest)
  | None -> None

let consume_geq t key =
  match consume_geq_lsn t key with Some (k, e, _) -> Some (k, e) | None -> None

(** [consume_min t] pops the overall smallest binding. *)
let consume_min t =
  match Skiplist.min_binding t.sl with
  | Some (k, _) -> consume_geq t k
  | None -> None

(** [peek_geq_lsn t key] inspects without consuming, with the newest
    contributing LSN. *)
let peek_geq_lsn t key =
  match Skiplist.succ_geq t.sl key with
  | Some (k, slot) -> Some (k, slot.entry, slot.lsn_newest)
  | None -> None

(** [peek_gt_lsn t key] is {!peek_geq_lsn} for the smallest key > [key]. *)
let peek_gt_lsn t key =
  match Skiplist.succ_gt t.sl key with
  | Some (k, slot) -> Some (k, slot.entry, slot.lsn_newest)
  | None -> None

(** [pull_from t ~from] streams the live bindings with key >= [from] in
    order, with LSNs: a merge-iterator source over the memtable. The
    cursor is the last key returned; each pull resumes strictly past it. *)
let pull_from t ~from =
  let last = ref None in
  fun () ->
    let r =
      match !last with
      | None -> peek_geq_lsn t from
      | Some k -> peek_gt_lsn t k
    in
    (match r with Some (k, _, _) -> last := Some k | None -> ());
    r

(** [peek_geq t key] inspects without consuming. *)
let peek_geq t key =
  match Skiplist.succ_geq t.sl key with
  | Some (k, slot) -> Some (k, slot.entry)
  | None -> None

(** [oldest_lsn t] is the smallest LSN any live entry depends on, or [None]
    when empty. O(n); called once per merge completion to pick the WAL
    truncation point. *)
let oldest_lsn t =
  Skiplist.fold t.sl None (fun acc _ slot ->
      match acc with
      | None -> Some slot.lsn
      | Some m -> Some (min m slot.lsn))

(** [iter_from t key f] visits bindings with key >= [key] in order while
    [f] returns [true]; the read and scan paths use this. *)
let iter_from t key f =
  Skiplist.iter_from t.sl key (fun k slot -> f k slot.entry)

let iter t f = Skiplist.iter t.sl (fun k slot -> f k slot.entry)

let fold t init f = Skiplist.fold t.sl init (fun acc k slot -> f acc k slot.entry)

let to_list t = List.map (fun (k, s) -> (k, s.entry)) (Skiplist.to_list t.sl)
