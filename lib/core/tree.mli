(** The bLSM tree (§4, Figure 1): the library's primary entry point.

    Three levels — C0 (a memtable), C1 and C2 (Bloom-filtered on-disk
    components), plus C1' while a C1:C2 merge is in flight. Writes are
    logical-logged and buffered in C0; two incremental merge processes
    move data down the tree; a level scheduler paces them against
    application progress so writes see bounded backpressure instead of
    unbounded pauses.

    Merge work runs synchronously inside the write path in scheduler-
    chosen quanta — the simulation counterpart of merge threads sharing
    the disk with the application — so every stall is visible as write
    latency on the store's simulated clock.

    Trees are single-threaded: do not interleave operations with an open
    {!cursor}. *)

type t

(** Detected damage that could not be masked: a checksum mismatch in the
    named level ("C1" | "C1'" | "C2" | "WAL") that recovery could neither
    rebuild from the log nor readers route around. Corruption surfaces as
    this typed exception, never as a wrong answer. *)
exception Corruption of { level : string; what : string; page_or_lsn : int }

(** The engine shell's counters ({!Lsm_shell.stats}): operations,
    corruption handling, and the stall attribution — [stall_us] records
    the pacing time charged to each write, and its merge1/merge2/hard
    totals tile it. *)
type stats = Lsm_shell.stats = {
  mutable puts : int;
  mutable gets : int;
  mutable deletes : int;
  mutable deltas : int;
  mutable scans : int;
  mutable rmws : int;
  mutable checked_inserts : int;
  mutable checked_insert_seekfree : int;
      (** insert-if-not-exists calls resolved purely by Bloom filters *)
  mutable user_bytes_written : int;
  mutable corruptions_detected : int;
  mutable component_rebuilds : int;
  mutable quarantined_components : int;
  mutable scrubs : int;
  mutable hard_stalls : int;  (** writes that hit the C0 hard limit *)
  stall_us : Repro_util.Histogram.t;
  mutable stall_merge1_us : float;
  mutable stall_merge2_us : float;
  mutable stall_hard_us : float;
  mutable wal_us : float;
  mutable recovery_us : float;
}

(** bLSM's own counters. *)
type merge_stats = {
  mutable merge1_completions : int;  (** C0:C1 runs committed *)
  mutable merge2_completions : int;  (** C1':C2 merges committed *)
  mutable promotions : int;  (** C1 -> C1' handoffs *)
}

(** Per-operation stall attribution: how the last write's pacing time
    divided across causes. [merge1_us + merge2_us + hard_us = total_us]
    within float rounding ([total_us] is the sample added to
    [stall_us]); [wal_us] is WAL append time, charged outside pacing. *)
type stall_breakdown = Lsm_shell.stall_breakdown = {
  sb_merge1_us : float;
  sb_merge2_us : float;
  sb_hard_us : float;
  sb_wal_us : float;
  sb_total_us : float;
}

(** [create ?config ?root_slot store] opens an empty tree on [store].
    Multiple trees may share a store (see {!Partitioned}); each must use
    a distinct [root_slot] so their commit records and WAL-truncation
    floors stay separate. *)
val create : ?config:Config.t -> ?root_slot:string -> Pagestore.Store.t -> t

val config : t -> Config.t
val store : t -> Pagestore.Store.t
val disk : t -> Simdisk.Disk.t
val stats : t -> stats
val merge_stats : t -> merge_stats

(** Stall attribution of the most recent write (valid after any
    [put]/[delete]/[apply_delta]/[read_modify_write]/batch). *)
val last_stall : t -> stall_breakdown

(** [on_stall t f] installs [f] as the tree's stall observer: it fires
    once per pacing decision (every write, including each operation of a
    batch's single pacing pass), after the merge1/merge2/hard quanta are
    finalized, with [sb_wal_us = 0] — WAL time is charged outside the
    pacing window. Stall-episode detectors ({!Obs.Episodes}) hook in
    here; the observer must not write to the tree. One observer at a
    time; not carried across {!crash_and_recover}. *)
val on_stall : t -> (stall_breakdown -> unit) -> unit

(** [metrics t] is the tree's metrics registry — every [tree.*] stat
    plus the underlying store's [disk.*]/[wal.*]/[buf.*]/[faults.*]
    metrics, registered as pull-closures over the live stat records.
    Built once per tree and cached; dumps sample at call time. *)
val metrics : t -> Obs.Metrics.t

(** {1 Writes — all blind, zero seeks (§3.1.2)} *)

(** [put t key value]: insert or overwrite. *)
val put : t -> string -> string -> unit

(** [delete t key]: tombstone write; deleting a missing key is a no-op
    write, not an error. *)
val delete : t -> string -> unit

(** [apply_delta t key d]: zero-seek patch (§2.3); resolved against the
    base record by reads and merges using the configured resolver. *)
val apply_delta : t -> string -> string -> unit

(** [write_batch t ops] applies a multi-key batch atomically: one logical
    log record covers it, so a crash recovers all of it or none of it —
    the ACID building block the logical log provides (§4.4.2).
    Operations apply in order; later entries for a key win. *)
val write_batch : t -> (string * Kv.Entry.t) list -> unit

(** [before_write t ~write_bytes] runs the level scheduler's pacing for
    an upcoming write of [write_bytes] payload bytes (paced as at least
    64, as every write is) — merge quanta,
    backpressure, hard-stall handling — and resets the per-op stall
    breakdown. Exposed for multi-tree coordinators ({!Partitioned}) that
    pace each involved tree before taking a single shared log record. *)
val before_write : t -> write_bytes:int -> unit

(** [absorb_batch t ~lsn ~wal_us ops] folds into C0 a batch slice
    already durably logged under [lsn] elsewhere (one shared-WAL record
    covering several trees), charging [wal_us] of that record's append
    time to this tree's WAL time. Pairs with {!before_write}; ordinary
    callers want {!write_batch}. *)
val absorb_batch : t -> lsn:int -> wal_us:float -> (string * Kv.Entry.t) list -> unit

(** {1 Reads} *)

(** [get t key]: point lookup — at most ~1 seek on a settled tree thanks
    to Bloom filters and early termination. Pending deltas are resolved;
    [None] for missing or deleted keys. *)
val get : t -> string -> string option

(** [read_modify_write t key f] reads, applies [f], writes back — the
    B-Tree-equivalent primitive at 1 seek instead of 2 (Table 1). *)
val read_modify_write : t -> string -> (string option -> string) -> unit

(** [insert_if_absent t key value] inserts only if the key is missing;
    returns whether it inserted. When every Bloom filter says "absent"
    the whole operation performs zero seeks (§3.1.2). *)
val insert_if_absent : t -> string -> string -> bool

(** {1 Scans (§3.3)} *)

(** [scan t start n]: up to [n] live records with key >= [start], in
    order, fully resolved. Touches every component: 2-3 seeks. *)
val scan : t -> string -> int -> (string * string) list

(** A streaming range cursor over the merged tree. Reflects the
    components live at creation; do not interleave writes with pulls. *)
type cursor

(** [cursor ?from t] opens a cursor at the smallest key >= [from]. *)
val cursor : ?from:string -> t -> cursor

(** [cursor_next c] yields the next live record, deltas resolved. *)
val cursor_next : cursor -> (string * string) option

(** {1 Maintenance and recovery} *)

(** [maintenance t] runs active merges to completion (use between
    measurement phases, not during them). *)
val maintenance : t -> unit

(** [flush t] drains C0 (and C0') entirely to disk and settles merges. *)
val flush : t -> unit

(** [crash_and_recover t] simulates power loss and runs recovery: the
    buffer pool and all in-memory tree state vanish; in-flight merge
    output is rolled back; the committed manifest is read back, components
    reopened (indexes re-read, Bloom filters rebuilt by scanning —
    §4.4.3), and the logical log replayed into a fresh C0.
    [should_replay] scopes a shared log to this tree's key range
    (partitioned stores). Returns the recovered tree; the old handle must
    not be used again.

    Corruption found on the way back up is tolerated: a component that
    fails verification ([~verify:true] checksums every page at mount;
    the default checks footers, index blobs and whatever the Bloom
    rebuild scan reads) is rebuilt from
    WAL replay when the log still covers it, quarantined (reads touching
    rotted pages raise {!Corruption}) when openable but uncovered, and a
    typed {!Corruption} failure otherwise. A malformed manifest raises
    {!Corruption} at level ["manifest"], mid-log WAL rot at ["WAL"]; a
    torn log *tail* is truncated silently — that is ordinary power
    loss. *)
val crash_and_recover : ?should_replay:(string -> bool) -> ?verify:bool -> t -> t

(** {1 Scrubbing} *)

type scrub_report = Lsm_shell.scrub_report = {
  scrub_errors : (string * string * int) list;
      (** (level, what, page-or-lsn) per checksum mismatch *)
  scrub_wal_records : int;  (** live log records checked *)
  scrub_clean : bool;
}

(** [scrub t] verifies every checksum the tree owns — component data
    pages, index/Bloom blobs, live WAL records — and reports findings
    without modifying tree state. *)
val scrub : t -> scrub_report

(** {1 Introspection} *)

type level_info = {
  level : string;  (** "C0" | "C1" | "C1'" | "C2" *)
  bytes : int;
  records : int;
  level_timestamp : int;  (** logical timestamp (§4.4.1); 0 for C0 *)
}

val levels : t -> level_info list

(** Current on-disk data bytes (C1 + C1' + C2). *)
val disk_data_bytes : t -> int

(** Effective size ratio R (fixed or adaptive, §2.3.1). *)
val effective_r : t -> float
[@@lint.allow "U001"] (* paper metric (R), observatory surface *)

(** Total Bloom-filter RAM currently allocated (Appendix A overhead). *)
val bloom_bytes : t -> int

(** Footer of each mounted on-disk component ("C1" | "C1'" | "C2"),
    newest level first — extents and page layout for scrub tooling and
    fault-injection tests. *)
val component_footers : t -> (string * Sstable.Sst_format.footer) list

(** {1 Scheduler probes} — the §4.1 progress estimators, exposed for
    tracing and tests. *)

(** C0 fill fraction (bytes / effective capacity). *)
val c0_fill : t -> float

(** inprogress of the active C0:C1 merge (0 when idle). *)
val merge1_inprogress : t -> float

(** inprogress of the active C1':C2 merge (1 when idle). *)
val merge2_inprogress : t -> float

(** outprogress of C1 (§4.1's clock-hand position). *)
val outprogress1 : t -> float

(** {1 Logical log records}

    The wire format of the WAL payloads; {!Partitioned} appends one
    record covering several trees. *)

val encode_ops : (string * Kv.Entry.t) list -> string

(** {1 Engine adapter} *)

(** [engine ?name t] wraps the tree in the uniform benchmark interface. *)
val engine : ?name:string -> t -> Kv.Kv_intf.engine
