(** C0: the in-memory tree component.

    An update-in-place ordered map that supports efficient ordered scans
    (§2.3.1). Tracks its own RAM footprint so the merge schedulers can
    compute fill fractions, and records the WAL LSN each live entry
    depends on so log truncation can be delayed exactly as long as
    snowshoveling keeps old entries live (§4.4.2).

    A hash index by key serves {!get}, overwrites of keys already in C0
    and removal without a descent; a skip list holding the same records
    keeps key order for scans and the snowshovel cursor. *)

module Skiplist = Skiplist
(** The underlying deterministic skip list. *)

type t

val create : ?seed:int -> resolver:Kv.Entry.resolver -> unit -> t

val count : t -> int

(** Approximate RAM usage: keys + encoded entries + node overhead. *)
val bytes : t -> int

val is_empty : t -> bool

(** [write t ~lsn key entry] applies one logical write. A [Delta]
    composes with any state already buffered; [Base]/[Tombstone] replace
    it. The slot keeps the oldest LSN it still depends on. A key already
    in C0 is rewritten in place, with no descent. *)
val write : t -> lsn:int -> string -> Kv.Entry.t -> unit

val get : t -> string -> Kv.Entry.t option

(** [consume_geq_lsn t key] pops the smallest binding with key >= [key],
    with the newest LSN folded into it (stored in merge output for
    recovery's replay filter). [None] when no key remains at or after
    [key]. *)
val consume_geq_lsn : t -> string -> (string * Kv.Entry.t * int) option

(** [pop_next t key] pops the binding {!peek_gt_lsn}[ t key] returns: the
    snowshovel step (§4.2). Following a peek at the same cursor, or the
    pop of the cursor's own key, it costs the one descent that unlinks
    the record. *)
val pop_next : t -> string -> (string * Kv.Entry.t * int) option

(** [peek_geq_lsn t key] inspects the smallest binding with key >= [key]
    without consuming it, with the newest contributing LSN. *)
val peek_geq_lsn : t -> string -> (string * Kv.Entry.t * int) option

(** As {!peek_geq_lsn}, for the smallest key > [key]. The successor of
    the last popped or peeked key is remembered until the next insert
    of a fresh key or removal, so an ordered consumer peeks in O(1). *)
val peek_gt_lsn : t -> string -> (string * Kv.Entry.t * int) option

(** [pull_from t ~from] streams the live bindings with key >= [from] in
    key order, with LSNs: a merge-iterator source over the memtable. *)
val pull_from : t -> from:string -> unit -> (string * Kv.Entry.t * int) option

(** [oldest_lsn t] is the smallest LSN any live entry depends on — the
    WAL truncation point. O(n); called once per merge completion. *)
val oldest_lsn : t -> int option
