(** The engine shell: the read and durability contract every LSM engine
    in the library shares, whatever its level structure.

    - {b Writes}: pace, append one logical-log record per write or batch
      (timed as WAL time), then apply to the memtable — a crash recovers
      the whole record or none of it (§4.4).
    - {b Reads}: record states are visited newest-first with early
      termination at the first base record or tombstone (§3.1.1).
    - {b Stall window}: each write's pacing time is split into merge1,
      merge2 and hard buckets that tile it exactly.
    - {b Commit and recovery}: one sealed manifest per root slot names
      the live components; recovery mounts each clean, drops it for log
      replay to rebuild, or quarantines it, then replays the log typed.
    - {b Failures}: checksum damage anywhere surfaces as {!Corruption}
      naming its level, and is counted — never untyped, never silent.

    An engine ({!Tree}, {!Policy_tree}) owns its components, merges and
    pacing and passes the shell the parts that vary: its pacing function,
    its live memtable, and its sources in newest-first order. *)

(** Detected damage that could not be masked, in the named level (["C1"],
    ["P0"], ["WAL"], ...). Re-exported (and printed) as
    {!Tree.Corruption}. *)
exception Corruption of { level : string; what : string; page_or_lsn : int }

(** Counters every engine keeps. *)
type stats = {
  mutable puts : int;
  mutable gets : int;
  mutable deletes : int;
  mutable deltas : int;
  mutable scans : int;
  mutable rmws : int;
  mutable checked_inserts : int;
  mutable checked_insert_seekfree : int;
      (** insert-if-absent calls that performed no seek *)
  mutable user_bytes_written : int;  (** key + payload bytes accepted *)
  mutable corruptions_detected : int;
      (** checksum mismatches seen (reads, merges, recovery, scrubs) *)
  mutable component_rebuilds : int;
      (** corrupt components dropped at recovery and rebuilt by replay *)
  mutable quarantined_components : int;
      (** corrupt components mounted read-around at recovery *)
  mutable scrubs : int;
  stall_us : Repro_util.Histogram.t;  (** per-write pacing time *)
  mutable stall_merge1_us : float;  (** cumulative pacing time, merge1 *)
  mutable stall_merge2_us : float;  (** cumulative pacing time, merge2 *)
  mutable stall_hard_us : float;  (** cumulative hard-stall time *)
  mutable wal_us : float;
      (** cumulative WAL append / group-commit time (outside pacing) *)
  mutable recovery_us : float;  (** replay + component-rebuild time *)
}

(** How one write's pacing time divided across causes:
    [sb_merge1_us + sb_merge2_us + sb_hard_us = sb_total_us] within float
    rounding; [sb_wal_us] is WAL append time, outside the window. *)
type stall_breakdown = {
  sb_merge1_us : float;
  sb_merge2_us : float;
  sb_hard_us : float;
  sb_wal_us : float;
  sb_total_us : float;
}

(** All zero. *)
val fresh_stats : unit -> stats

type t

val create : Config.t -> Pagestore.Store.t -> t
val stats : t -> stats

(** {1 Typed corruption} *)

(** [guard t ~level f] runs [f], turning a page checksum failure into
    {!Corruption} for [level] (counted). *)
val guard : t -> level:string -> (unit -> 'a) -> 'a

(** {1 Stall window} *)

(** Attribution of the most recent write. *)
val last_stall : t -> stall_breakdown

(** Observer fired once per pacing window, with [sb_wal_us = 0]. *)
val on_stall : t -> (stall_breakdown -> unit) -> unit

(** [charge t bucket f] runs [f] inside a pacing window, adding the
    simulated time it takes to [bucket] (also when [f] raises). *)
val charge : t -> [ `Merge1 | `Merge2 | `Hard ] -> (unit -> 'a) -> 'a

(** [stall_window t pace] resets the per-write attribution, times
    [pace ()], and adds the result to the totals, the [stall_us]
    histogram and the observer. *)
val stall_window : t -> (unit -> unit) -> unit

(** {1 Writes} *)

(** [write t ~pace ~memtable ~op ops] runs [pace ~write_bytes] in a
    stall window, appends [ops] as one log record, and applies them
    to [memtable ()] (fetched after pacing, which may swap it). [op]
    names the trace span. Engines partially apply it to get the [write]
    the functions below take. *)
val write :
  t ->
  pace:(write_bytes:int -> unit) ->
  memtable:(unit -> Memtable.t) ->
  op:string ->
  (string * Kv.Entry.t) list ->
  unit

type writer = op:string -> (string * Kv.Entry.t) list -> unit

val put : t -> write:writer -> string -> string -> unit
val delete : t -> write:writer -> string -> unit
val apply_delta : t -> write:writer -> string -> string -> unit

(** One log record for the whole batch; counts each op as a put. *)
val write_batch : t -> write:writer -> (string * Kv.Entry.t) list -> unit

(** Key + payload bytes of [ops]. *)
val payload_bytes : (string * Kv.Entry.t) list -> int

(** {1 Reads} *)

(** [sources absorb] probes every place one key may live, newest first,
    passing each result to [absorb] and stopping at the first [true]
    (early termination) — chain the probes with [||]. *)
type sources = (Kv.Entry.t option -> bool) -> bool

val get : t -> sources -> string option

val read_modify_write :
  t -> write:writer -> sources -> string -> (string option -> string) -> unit

(** Counts a seek-free check when the lookup moved no disk head. *)
val insert_if_absent : t -> write:writer -> sources -> string -> string -> bool

(** {1 Scans} *)

type pull = unit -> (string * Kv.Entry.t * int) option

(** [component_pull t ~level ~from c]: a stream over [c] from [from];
    the iterator open and every pull run inside {!guard}. *)
val component_pull :
  t -> level:string -> from:string option -> Component.t -> pull

type cursor

(** [cursor t sources] merges [sources ()] (freshest first), counting a
    scan. *)
val cursor : t -> (unit -> pull list) -> cursor

(** Next live record, deltas resolved. *)
val cursor_next : cursor -> (string * string) option

(** Up to [n] live records of a fresh {!cursor}. *)
val scan : t -> (unit -> pull list) -> int -> (string * string) list

(** {1 Recovery} *)

(** [mount t ~level ~verify ~covered meta] reopens a committed component
    from its metadata blob. [verify] checksums every page first; the
    Bloom filter is then rebuilt (or read back). Any checksum failure on
    the way drops the component when [covered footer] (the log still
    holds it: [None], counted as a rebuild) or quarantines it. *)
val mount :
  t -> level:string -> verify:bool ->
  covered:(Sstable.Sst_format.footer -> bool) -> string -> Component.t option

(** The commit record of §4.4, one per root slot, sealed by a trailing
    CRC32C like the SSTable footer. *)
type manifest = {
  stamp : int;  (** next component timestamp to issue *)
  floor_lsn : int;  (** every record below it is folded into a component *)
  components : (int * string) list;  (** (level index, footer blob) *)
}

val encode_manifest : manifest -> string

(** Raises {!Corruption} at level ["manifest"] on a bad magic, seal or
    bound, or a level outside [[0, levels)]; uncounted, as recovery
    cannot go on to return the engine that would count it. *)
val decode_manifest : levels:int -> string -> manifest

(** [slot]'s committed manifest; an absent root is the empty tree
    (stamp 1, floor 0). Malformed roots raise as {!decode_manifest}. *)
val read_manifest : t -> slot:string -> levels:int -> manifest

(** Force-writes the manifest of [(level index, component)]s, level
    order, into [slot], charged as {!Pagestore.Store.commit_root}. *)
val commit_manifest :
  t -> slot:string -> stamp:int -> floor_lsn:int -> (int * Component.t) list -> unit

(** The one recovery sequence, on a fresh engine's shell once the engine
    abandoned its in-flight merges: {!Pagestore.Store.crash}; read
    [slot]'s manifest; {!mount} each entry as [level_names.(level)] with
    [covered]; [install] the mounted ones; replay the log from
    [floor_lsn] into [memtable], keeping ops where [keep lsn key]
    (mid-log rot raises {!Corruption} at ["WAL"]); re-commit without the
    dropped components; charge [recovery_us] and emit the
    [tree]/[recovery] span. Returns the manifest read. *)
val recover :
  t -> slot:string -> level_names:string array -> verify:bool ->
  covered:(Sstable.Sst_format.footer -> bool) ->
  install:((int * Component.t) list -> unit) ->
  memtable:Memtable.t -> keep:(int -> string -> bool) -> manifest

(** {1 Scrubbing} *)

type scrub_report = {
  scrub_errors : (string * string * int) list;
      (** (level, what, page-or-lsn) per checksum mismatch *)
  scrub_wal_records : int;  (** live log records checked *)
  scrub_clean : bool;
}

(** [scrub t components] verifies every page of the named components and
    every live log record, counting the pass and its errors. *)
val scrub : t -> (string * Component.t) list -> scrub_report

(** {1 Log records and metrics} *)

val encode_ops : (string * Kv.Entry.t) list -> string

(** Registers [<prefix>.puts] ... [<prefix>.checked_insert_seekfree],
    [<prefix>.corruptions_detected], [<prefix>.scrubs] and the
    [<prefix>.recovery_us] gauge. *)
val register_metrics : t -> Obs.Metrics.t -> prefix:string -> unit
