(** C0: the in-memory tree component.

    An update-in-place ordered map that supports efficient ordered scans
    (§2.3.1). Tracks its own RAM footprint so the merge schedulers can
    compute fill fractions, and records the WAL LSN each live entry
    depends on so log truncation can be delayed exactly as long as
    snowshoveling keeps old entries live (§4.4.2). *)

module Skiplist = Skiplist
(** The underlying deterministic skip list (also used for merge shadow
    tables). *)

type t

val create : ?seed:int -> resolver:Kv.Entry.resolver -> unit -> t

val count : t -> int

(** Approximate RAM usage: keys + encoded entries + node overhead. *)
val bytes : t -> int

val is_empty : t -> bool

(** [write t ~lsn key entry] applies one logical write. A [Delta]
    composes with any state already buffered; [Base]/[Tombstone] replace
    it. The slot keeps the oldest LSN it still depends on. *)
val write : t -> lsn:int -> string -> Kv.Entry.t -> unit

val get : t -> string -> Kv.Entry.t option

(** [remove t key] physically drops a key (merge consumption, not a
    logical delete — those are tombstone writes). *)
val remove : t -> string -> Kv.Entry.t option

(** [consume_geq t key] pops the smallest binding with key >= [key]: the
    snowshovel primitive (§4.2). [None] when the run must wrap. *)
val consume_geq : t -> string -> (string * Kv.Entry.t) option

(** As {!consume_geq}, also yielding the newest LSN folded into the
    entry (stored in merge output for recovery's replay filter). *)
val consume_geq_lsn : t -> string -> (string * Kv.Entry.t * int) option

(** [consume_min t] pops the overall smallest binding. *)
val consume_min : t -> (string * Kv.Entry.t) option

(** [peek_geq t key] inspects without consuming. *)
val peek_geq : t -> string -> (string * Kv.Entry.t) option
[@@lint.allow "U001"] (* iteration family kept whole for embedders *)

(** As {!peek_geq}, with the newest contributing LSN. *)
val peek_geq_lsn : t -> string -> (string * Kv.Entry.t * int) option

(** As {!peek_geq_lsn}, for the smallest key > [key]. *)
val peek_gt_lsn : t -> string -> (string * Kv.Entry.t * int) option

(** [pull_from t ~from] streams the live bindings with key >= [from] in
    key order, with LSNs: a merge-iterator source over the memtable. *)
val pull_from : t -> from:string -> unit -> (string * Kv.Entry.t * int) option

(** [oldest_lsn t] is the smallest LSN any live entry depends on — the
    WAL truncation point. O(n); called once per merge completion. *)
val oldest_lsn : t -> int option

(** [iter_from t key f] visits bindings with key >= [key] in order while
    [f] returns [true]. *)
val iter_from : t -> string -> (string -> Kv.Entry.t -> bool) -> unit
[@@lint.allow "U001"] (* iteration family kept whole for embedders *)

val iter : t -> (string -> Kv.Entry.t -> unit) -> unit
[@@lint.allow "U001"] (* iteration family kept whole for embedders *)
val fold : t -> 'a -> ('a -> string -> Kv.Entry.t -> 'a) -> 'a
[@@lint.allow "U001"] (* iteration family kept whole for embedders *)
val to_list : t -> (string * Kv.Entry.t) list
[@@lint.allow "U001"] (* iteration family kept whole for embedders *)
