(** C0: the in-memory tree component.

    An update-in-place ordered map that "fits in memory" and supports
    efficient ordered scans (§2.3.1). Tracks its own RAM footprint so that
    the merge schedulers can compute fill fractions, and records the WAL
    LSN of each live entry so log truncation can be delayed exactly as long
    as snowshoveling keeps old entries live (§4.4.2).

    Two structures share each record's mutable [slot]: a hash index by key
    serves point reads, in-place overwrites and removal in O(1), and the
    order index ({!Order_index}: sorted leaves with the snowshovel's
    finger) keeps key order for scans, the snowshovel cursor and
    {!oldest_lsn}. Only a fresh key or a removal touches the order
    index. *)

module Order_index = Order_index
(** Re-export: the order index is part of this library's public surface. *)

module Index = Hashtbl.Make (String)

type slot = {
  mutable entry : Kv.Entry.t;
  mutable lsn : int;  (** oldest LSN the composed state depends on *)
  mutable lsn_newest : int;  (** newest LSN folded in (durability filter) *)
}

type t = {
  order : slot Order_index.t;
  index : slot Index.t;
  resolver : Kv.Entry.resolver;
  probe : Order_index.cursor;  (** {!peek_geq_lsn}'s, so it leaves the finger alone *)
  mutable bytes : int;
}

(* Approximate per-record RAM overhead: order-index cells, pointers, slot. *)
let node_overhead = 64

let entry_bytes key entry =
  String.length key + Kv.Entry.encoded_size entry + node_overhead

(* [seed] is accepted and unused: the order index draws nothing at random. *)
let create ?seed:_ ~resolver () =
  {
    order = Order_index.create ();
    index = Index.create 1024;
    resolver;
    probe = Order_index.cursor ();
    bytes = 0;
  }

let count t = Order_index.length t.order

let bytes t = t.bytes

let is_empty t = Order_index.is_empty t.order

(** [write t ~lsn key entry] applies one logical write. A [Delta] composes
    with any state already buffered in C0; [Base] and [Tombstone] replace
    it. The slot keeps the *oldest* LSN it still depends on, because replay
    must restart from there to rebuild the composed state. A key already
    in C0 is rewritten in place through the index; only a fresh key is
    inserted into the order index. *)
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
      Order_index.set t.order key slot;
      Index.add t.index key slot;
      t.bytes <- t.bytes + entry_bytes key entry

(* [Index.find], not [find_opt]: a hit builds only the returned [Some]. *)
let get t key =
  match Index.find t.index key with s -> Some s.entry | exception Not_found -> None

(* The finger's record, with its newest LSN. *)
let at_finger t =
  let slot = Order_index.value t.order in
  Some (Order_index.key t.order, slot.entry, slot.lsn_newest)

(* Physically drop the finger's record (merge consumption, not a logical
   delete — those are tombstone writes); the finger moves to its
   successor. Returns the record with its newest LSN. *)
let unlink t =
  let key = Order_index.key t.order and slot = Order_index.value t.order in
  Index.remove t.index key;
  t.bytes <- t.bytes - entry_bytes key slot.entry;
  ignore (Order_index.pop t.order : bool);
  Some (key, slot.entry, slot.lsn_newest)

(** [consume_geq_lsn t key] pops the smallest binding with key >= [key],
    also yielding the newest LSN folded into it. [None] when no key
    remains at or after [key]. *)
let consume_geq_lsn t key = if Order_index.seek_geq t.order key then unlink t else None

(** [pop_next t key] pops exactly the binding [peek_gt_lsn t key] returns:
    the snowshovel step (§4.2). At the finger, after a peek at the same
    cursor or the pop of the cursor's own key, it costs no descent. *)
let pop_next t key = if Order_index.seek_gt t.order key then unlink t else None

(** [peek_geq_lsn t key] inspects without consuming, with the newest
    contributing LSN. *)
let peek_geq_lsn t key =
  if Order_index.cursor_seek_geq t.order t.probe key then
    let slot = Order_index.cursor_value t.order t.probe in
    Some (Order_index.cursor_key t.probe, slot.entry, slot.lsn_newest)
  else None

(** [peek_gt_lsn t key] is {!peek_geq_lsn} for the smallest key > [key],
    found through the finger. *)
let peek_gt_lsn t key = if Order_index.seek_gt t.order key then at_finger t else None

(** [pull_from t ~from] streams the live bindings with key >= [from] in
    order, with LSNs: a merge-iterator source over the memtable. Each
    stream holds its own cursor, so a scan leaves the snowshovel's finger
    alone; a pull allocates only its result. *)
let pull_from t ~from =
  let c = Order_index.cursor () and started = ref false in
  fun () ->
    let found =
      if !started then Order_index.cursor_next t.order c
      else begin
        started := Order_index.cursor_seek_geq t.order c from;
        !started
      end
    in
    if found then
      let slot = Order_index.cursor_value t.order c in
      Some (Order_index.cursor_key c, slot.entry, slot.lsn_newest)
    else None

(** [oldest_lsn t] is the smallest LSN any live entry depends on, or [None]
    when empty. O(n); called once per merge completion to pick the WAL
    truncation point. *)
let oldest_lsn t =
  Order_index.fold t.order None (fun acc _ slot ->
      match acc with
      | None -> Some slot.lsn
      | Some m -> Some (min m slot.lsn))
