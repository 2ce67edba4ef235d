(** Logical write-ahead log (§4.4.2).

    Replaying it after a crash rebuilds C0. Appends are group-committed
    without per-commit fsync (§5.1), so they cost sequential bandwidth.
    Records are physically framed (16-byte header: LSN, length, CRC32C)
    and replay verifies every frame: an invalid *tail* record is a torn
    group-commit write — truncated, normal; an invalid record mid-log is
    bit rot — {!Corrupt}, fatal. Truncation is driven by merge
    completion; snowshoveling delays it because old entries stay live in
    C0 longer. *)

(** [Full]: every append synced before the ack. [Degraded]: synced once
    per group-commit window, so a crash loses the unsynced tail (the
    paper's replication mode). [None_]: no logging; recovery restores
    only merged data. *)
type durability = Full | Degraded | None_

(** Mid-log corruption found during {!replay}: unlike a torn tail this
    cannot be explained by power loss, so recovery must stop. *)
exception Corrupt of { what : string; lsn : int }

type t

val create : ?durability:durability -> ?group_commit_bytes:int -> Simdisk.Disk.t -> t

(** Attach a fault-injection plan; appends consult it before acking. *)
val set_faults : t -> Simdisk.Faults.t -> unit

(** Attach a tracer; group-commit syncs and truncations emit events on
    it. Usually the store's shared tracer. *)
val set_trace : t -> Obs.Trace.t -> unit

(** [append_with t ~len write x] appends one record of [len] payload
    bytes, returning its LSN (the ack). The frame is allocated once and
    [write x b pos] must fill [b.[pos, pos + len)] with the payload;
    under [None_] durability it is not called. May raise
    {!Simdisk.Faults.Crash_point} when a scheduled fault kills the
    machine mid-append (the record is then torn or lost, never
    acked). *)
val append_with : t -> len:int -> ('a -> Bytes.t -> int -> unit) -> 'a -> int

(** [append t payload] is {!append_with} for a payload already held as a
    string. *)
val append : t -> string -> int

(** Force a group-commit sync: everything appended so far is durable. *)
val sync : t -> unit

(** [truncate t ~upto_lsn] discards records with lsn < [upto_lsn]
    unconditionally (single-client logs). *)
val truncate : t -> upto_lsn:int -> unit

(** [register_client t ~client] declares a client whose floor starts at
    the current truncation point; until it proposes higher, nothing it
    might need is dropped. *)
val register_client : t -> client:string -> unit

(** [propose_truncate t ~client ~upto_lsn]: multi-tree stores — record
    [client]'s floor and truncate only below every client's floor. *)
val propose_truncate : t -> client:string -> upto_lsn:int -> unit

(** [replay t ~from_lsn f] feeds surviving records (oldest first) to
    [f lsn payload], charging a sequential read per record (§4.4.2:
    "replaying the log at startup is extremely expensive"). Each frame
    is checksum-verified: a torn tail is truncated (normal); mid-log
    corruption raises {!Corrupt}. *)
val replay : t -> from_lsn:int -> (int -> string -> unit) -> unit

(** Scrub the log: (records checked, [(what, lsn)] errors). *)
val verify : t -> int * (string * int) list

(** Power-loss semantics for the log: under [Degraded] the unsynced
    group-commit tail is discarded. Called by [Store.crash]. *)
val crash : t -> unit

(** [stored_frame t ~lsn] is record [lsn]'s stored frame, its 16-byte
    header included (test instrumentation); [None] when it is gone. *)
val stored_frame : t -> lsn:int -> string option

(** [flip_bit t ~lsn ~byte ~bit] rots one stored bit of record [lsn]
    (test/scrub instrumentation); false when the record is gone. *)
val flip_bit : t -> lsn:int -> byte:int -> bit:int -> bool

val next_lsn : t -> int
val truncated_to : t -> int

(** Highest LSN guaranteed to survive a crash. *)
val synced_lsn : t -> int

(** Live (untruncated) log size. *)
val size_bytes : t -> int

(** Lifetime appended bytes (write-amplification accounting). *)
val appended_bytes : t -> int

val durability : t -> durability

(** Torn tail records truncated by {!replay} (each was an unacked
    in-flight write at power loss). *)
val torn_tail_drops : t -> int

(** Records lost to the [Degraded] group-commit window across crashes. *)
val dropped_unsynced : t -> int
