(** The engine shell: the read and durability contract every LSM engine
    in the library shares, whatever its level structure.

    - {b Hooks}: an engine hands the shell the parts that vary once, at
      its own creation ({!attach}): its pacing policy, its live
      memtable, and its memory side for point reads and for scans. Every
      op below then takes the shell alone and builds no closure.
    - {b Writes}: one path, three steps — {!pace} (the engine's policy
      inside a stall window), append one logical-log record per write or
      batch (timed as WAL time), then {!absorb} into the memtable — so a
      crash recovers the whole record or none of it (§4.4).
    - {b Components}: one array of levels of {!Component.t} runs, named
      at {!create}. Engines decide where runs go; every read, the
      manifest, recovery, scrub and the Bloom totals derive from it.
    - {b Reads}: record states are visited newest-first with early
      termination at the first base record or tombstone (§3.1.1): the
      engine's memory side, then each level's runs whose key range
      covers the key, newest first, range checked before the filter.
    - {b Stall window}: each write's pacing time is split into merge1,
      merge2 and hard buckets that tile it exactly.
    - {b Pacing}: one charged {!step}, one stepping rule ({!spend}) and
      one {!hard_stall}; engines keep the policy.
    - {b Merges}: the shell owns each merge from {!start_merge} to
      {!install}: one install order and one crash rollback (§4.4).
    - {b Commit and recovery}: one sealed manifest per root slot names
      the live components, the next timestamp and the WAL floor;
      recovery mounts each clean, drops it for log replay to rebuild,
      or quarantines it, then replays the log typed.
    - {b Failures}: checksum damage anywhere surfaces as {!Corruption}
      naming its level, and is counted — never untyped, never silent.

    An engine ({!Tree}, {!Policy_tree}) picks its merges and their
    budgets, and passes the shell each merge's input and where its
    outputs go. *)

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
  mutable hard_stalls : int;  (** writes blocked in {!hard_stall} *)
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

(** [create config store ~level_names ~slot]: an empty component set of
    [Array.length level_names] levels, committed to root [slot];
    [level_names.(i)] names level [i] in typed corruption, scrub reports
    and footers. *)
val create :
  Config.t -> Pagestore.Store.t -> level_names:string array -> slot:string -> t

val stats : t -> stats

(** {1 Engine hooks} *)

(** [memory key absorb] probes the engine's memory side for [key], newest
    first, passing each result to [absorb] and stopping at the first
    [true] (early termination): chain the probes with [||]. *)
type memory = string -> (Kv.Entry.t option -> bool) -> bool

type pull = unit -> (string * Kv.Entry.t * int) option

(** The parts of an engine the shell calls back. *)
type hooks = {
  pace : write_bytes:int -> unit;
      (** the pacing policy for a write of [write_bytes] payload bytes *)
  memtable : unit -> Memtable.t;
      (** the live memtable, fetched after pacing (which may swap it) *)
  memory : memory;  (** the memory side of a point read *)
  memory_pulls : string -> pull list;
      (** the memory side's scan sources from a key, freshest first *)
}

(** [attach t hooks] sets the engine's hooks: once, in the engine's
    [create], so a recovered engine attaches its own. Until then every
    op that needs one raises [Invalid_argument]. *)
val attach : t -> hooks -> unit

(** {1 The component set} *)

(** Level [i]'s runs in the engine's order, which the manifest keeps. *)
val runs : t -> int -> Component.t list

(** [set_runs t i runs] replaces level [i]'s runs; [runs] is the level's
    order (the engine's; reads derive their own). Not durable until
    {!commit_manifest}. *)
val set_runs : t -> int -> Component.t list -> unit

(** The level set's generation: {!set_runs} bumps it, so an engine can
    tell whether anything it derived from the levels is stale. *)
val generation : t -> int

(** Every run with its level's name, level order. *)
val components : t -> (string * Component.t) list

(** Footer of every run, level order. *)
val component_footers : t -> (string * Sstable.Sst_format.footer) list

(** Data bytes across all runs. *)
val data_bytes : t -> int

(** Bloom-filter RAM of the live runs. *)
val bloom_bytes : t -> int

(** Lookups a filter answered "absent", lifetime: live and retired runs. *)
val bloom_negative : t -> int

(** Filter maybes the run read refuted, lifetime: live and retired runs. *)
val bloom_false_positive : t -> int

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
    simulated time it takes to [bucket] (also when [f] raises). Nested
    in another [charge] it only runs [f]: the outer bucket takes it. *)
val charge : t -> [ `Merge1 | `Merge2 | `Hard ] -> (unit -> 'a) -> 'a

(** [pace t ~write_bytes] is one write's stall window: it resets the
    per-write attribution, times the engine's [pace] hook, and adds the
    result to the totals, the [stall_us] histogram and the observer. *)
val pace : t -> write_bytes:int -> unit

(** {1 Pacing mechanism} *)

(** The stepping granularity, 64 KiB of merge input. *)
val chunk : int

(** [step t bucket m ~quota ~finish] runs {!Merge_process.step}[ m
    ~quota], then [finish ()] (the engine's install) when it returns
    [`Done], and {!charge}s both to [bucket]. *)
val step :
  t -> [ `Merge1 | `Merge2 | `Hard ] -> Merge_process.t -> quota:int ->
  finish:(unit -> unit) -> Merge_process.outcome

(** [spend ~budget step] asks [step ~quota:(min chunk (budget - spent))]
    until [budget] bytes are spent or [step] answers [`Stop]: [`Spent]
    adds the quantum to [spent], [`Free] (a start or a completion, work
    outside the quota) adds nothing. *)
val spend : budget:int -> (quota:int -> [ `Spent | `Free | `Stop ]) -> unit

(** [hard_stall t f]: the write waits until [f] has made room. Counts
    one [hard_stalls] and charges all of [f], whatever it steps or
    starts, to [`Hard]. *)
val hard_stall : t -> (unit -> unit) -> unit

(** {1 Writes} *)

(** [absorb t ~lsn ops] applies [ops], logged under [lsn], to the
    engine's memtable and counts their user bytes: the last step of
    every write, also of one shared log record over several trees. *)
val absorb : t -> lsn:int -> (string * Kv.Entry.t) list -> unit

(** [charge_wal t us] charges [us] of log-append time to the current
    write: its stall breakdown's [sb_wal_us] and the lifetime [wal_us].
    A shared log record's append is split across the trees it covers. *)
val charge_wal : t -> float -> unit

(** Each write is {!pace}, one log record (timed as WAL time), then
    {!absorb}, under a [tree]/<op> trace span. *)
val put : t -> string -> string -> unit

val delete : t -> string -> unit
val apply_delta : t -> string -> string -> unit

(** One log record for the whole batch; counts each op as a put. *)
val write_batch : t -> (string * Kv.Entry.t) list -> unit

(** Key + payload bytes of [ops]. *)
val payload_bytes : (string * Kv.Entry.t) list -> int

(** [fill t mem]: [mem]'s bytes over the C0 capacity, the spring's input. *)
val fill : t -> Memtable.t -> float

(** {1 Reads} *)

(** [get t key]: the memory side, then the runs. *)
val get : t -> string -> string option

val read_modify_write : t -> string -> (string option -> string) -> unit

(** Counts a seek-free check when the lookup moved no disk head. *)
val insert_if_absent : t -> string -> string -> bool

(** {1 Scans} *)

(** [component_pull t ~level ~from c]: a stream over [c] from [from];
    the iterator open and every pull run inside {!guard}. *)
val component_pull :
  t -> level:string -> from:string option -> Component.t -> pull

(** [chain t ~level ~from runs]: key-disjoint [runs], sorted by min key,
    as one stream that opens each run when the previous one runs dry;
    [from] positions the first. A one-run chain is that run's
    {!component_pull}. *)
val chain : t -> level:string -> from:string option -> Component.t list -> pull

type cursor

(** [cursor t from] merges, freshest first, the memory side's pulls and
    each level's runs from [from]: a level of key-disjoint runs is one
    {!chain} of the runs not ending before [from]; overlapping runs are
    one source each, newest first. Counts a scan. *)
val cursor : t -> string -> cursor

(** Next live record, deltas resolved. *)
val cursor_next : cursor -> (string * string) option

(** Up to [n] live records of a fresh {!cursor}; closes the component
    iterators it opened. *)
val scan : t -> string -> int -> (string * string) list

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

(** Force-writes the manifest of every run, level by level in each
    level's order, with the next timestamp and the WAL floor, into the
    shell's slot, charged as {!Pagestore.Store.commit_root}. *)
val commit_manifest : t -> unit

(** {1 The merge lifecycle} *)

(** {!Merge_process.create} with the shell's config, store and output
    timestamps, recorded as in flight until {!install} (or {!recover}
    rolls it back). The engine only steps it. *)
val start_merge :
  t -> label:string -> args:(string * Obs.Trace.arg) list -> input:Merge_process.input ->
  bloom_items:int -> output:Merge_process.output -> Merge_process.t

(** [install t ?floor_lsn m place] ends [m] in the one crash-safe order:
    seal it while [t] still owns it, disown it, [place outputs] (the
    engine {!set_runs} and returns the runs replaced), move the WAL floor
    to [floor_lsn] if given, {!commit_manifest}, then free the replaced
    runs, folding their Bloom counters into the totals. *)
val install :
  t -> ?floor_lsn:int -> Merge_process.t ->
  (Component.t list -> Component.t list) -> unit

(** The one recovery sequence, on a fresh engine's shell: abandon
    [crashed]'s in-flight merges; {!Pagestore.Store.crash}; read the
    slot's manifest and restore the timestamp counter and WAL floor from
    it; free [crashed]'s runs the manifest does not name; {!mount} each
    entry with [covered] and place the mounted ones in their levels in
    manifest order; [resume] (restart interrupted work over them);
    replay the log from the floor into the engine's memtable, keeping
    ops where [keep lsn key] (mid-log rot raises {!Corruption} at
    ["WAL"]); re-commit without the dropped components; charge
    [recovery_us] and emit the [tree]/[recovery] span. *)
val recover :
  t -> crashed:t -> verify:bool ->
  covered:(Sstable.Sst_format.footer -> bool) -> resume:(unit -> unit) ->
  keep:(int -> string -> bool) -> unit

(** {1 Scrubbing} *)

type scrub_report = {
  scrub_errors : (string * string * int) list;
      (** (level, what, page-or-lsn) per checksum mismatch *)
  scrub_wal_records : int;  (** live log records checked *)
  scrub_clean : bool;
}

(** [scrub t] verifies every page of every run and every live log
    record, counting the pass and its errors. *)
val scrub : t -> scrub_report

(** {1 Log records and metrics} *)

(** [encode_ops ops] is the payload of the log record for the batch
    [ops]: a varint count, then each key (varint length and bytes) and
    its entry. *)
val encode_ops : (string * Kv.Entry.t) list -> string

(** [decode_ops payload] is the batch a log record's payload holds:
    the inverse of {!encode_ops}. *)
val decode_ops : string -> (string * Kv.Entry.t) list

(** [append_ops wal ops] appends the batch [ops] as one log record,
    encoding it straight into the record's frame, and returns its LSN.
    The frame is byte-identical to appending [encode_ops ops]. *)
val append_ops : Pagestore.Wal.t -> (string * Kv.Entry.t) list -> int

(** Registers [<prefix>.puts] ... [<prefix>.checked_insert_seekfree],
    [<prefix>.corruptions_detected], [<prefix>.scrubs],
    [<prefix>.hard_stalls] and the
    [<prefix>.recovery_us] gauge. *)
val register_metrics : t -> Obs.Metrics.t -> prefix:string -> unit

(** {1 Engine adapter} *)

(** [engine t ~name ~maintenance] is the uniform benchmark interface over
    the shell's ops, with the engine's [maintenance]. *)
val engine : t -> name:string -> maintenance:(unit -> unit) -> Kv.Kv_intf.engine
