(** K-way merging iterator with age-based shadowing.

    Combines ordered record streams from multiple tree components. Lower
    priority = fresher component; equal keys are combined with
    {!Kv.Entry.merge} exactly as the read path would. With
    [drop_tombstones] (the bottom level) tombstones are elided and orphan
    deltas resolve into base records, preserving the all-base invariant
    behind one-seek reads (§3.1.1).

    A key group held by a single source returns that source's own pulled
    record: {!next} passes the same [Some] block through unchanged
    whenever the bottom level keeps it, and allocates a record only when
    sources share a key or a delta resolves. Each source holding the
    group's key is pulled once, freshest first, so a caller metering its
    pulls sees the same sequence whatever the fold does with them. *)

type t

(** [create ~resolver ~drop_tombstones inputs] merges [inputs], each a
    [(priority, pull)] pair where [pull] yields [(key, entry, lsn)] in
    strictly increasing key order and priority 0 is the freshest source. *)
val create :
  resolver:Kv.Entry.resolver ->
  drop_tombstones:bool ->
  (int * (unit -> (string * Kv.Entry.t * int) option)) list ->
  t

(** One key group folded across every source: the surviving record
    (with the newest contributing LSN), a group the bottom level drops
    ([Elided]: a tombstone, or deltas with nothing to apply to), or the
    end of every input. *)
type group = Record of string * Kv.Entry.t * int | Elided | End

(** [next_group t] folds the next key group. A caller metering its work
    per group stops within one group of its budget, however long a run
    of elided keys is. *)
val next_group : t -> group

(** [next t] is the next surviving record in key order, with the newest
    contributing LSN. *)
val next : t -> (string * Kv.Entry.t * int) option

(** [drain t f] pulls every record through [f]. *)
val drain : t -> (string -> Kv.Entry.t -> int -> unit) -> unit
