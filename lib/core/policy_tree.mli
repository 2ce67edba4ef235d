(** Policy-driven multi-level LSM engine.

    The host for {!Compaction_policy}: a memtable + WAL in front of an
    array of levels of {!Component} runs (Bloom filters, fence pointers,
    the one page format — the shared read stack), with *victim
    selection* delegated entirely to the policy and everything else
    shared so the four compaction disciplines differ only in the one
    decision the design space varies.

    Pacing is a {!pacing} variant: the {!Scheduler.spring_quota}
    deadline controller on the memtable fill band, or 2012 LevelDB's
    byte-credit background thread with level-0 slowdown. Either way
    level-0 pressure beyond the stop threshold triggers a hard drain,
    and every write gets the same merge1/merge2/hard stall attribution
    ({!Lsm_shell.stall_breakdown}) that feeds {!Obs.Episodes} via
    {!on_stall}.

    Durability matches the other engines: logical WAL + force-written
    manifest root. A flush builds one level-0 run, commits the manifest
    (with the WAL floor it makes durable), then truncates the log;
    compactions are pure reorganizations and never touch the WAL, and an
    interrupted one is rolled back wholesale at recovery. Corrupt runs
    found at recovery are quarantined (reads of rotted pages raise
    {!Lsm_shell.Corruption}); mid-log WAL rot is fatal, torn tails are
    truncated — never a wrong answer. The write path, read stack,
    stall window, recovery mount and typed corruption
    ({!Lsm_shell.Corruption}, levels ["P<n>"] and ["WAL"]) are the
    {!Lsm_shell}'s, shared with {!Tree}. *)

(** How compaction work enters the write path.
    - [Spring]: one job in flight, stepped by {!Scheduler.spring_quota}
      each write; level 0 at [pt_l0_stop] drains to just under it.
    - [Credit]: 2012 LevelDB. Each written byte earns [credit_per_byte]
      compaction bytes (capped at 2 × [pt_base_bytes]); while credit is
      positive the policy's pick runs whole. From [slowdown_at] level-0
      runs every write waits [slowdown_us] (hard time) and earns that
      long at full disk write bandwidth; at [pt_l0_stop] the write
      drains level 0 down to [pt_l0_trigger] and the credit resets. *)
type pacing =
  | Spring
  | Credit of {
      credit_per_byte : float;
      slowdown_at : int;
      slowdown_us : float;
    }

(** Shape knobs the policy sees ({!Compaction_policy.view}):
    [pt_l0_trigger]/[pt_l0_stop] level-0 run-count thresholds (urgent /
    hard-stall), [pt_fanout] the size ratio and tiering width T,
    [pt_base_bytes] the level-1 byte target, [pt_file_bytes] output
    split granularity for range-partitioned policies, [pt_max_levels]
    the level count; [pt_pacing] the write-path discipline. *)
type pconfig = {
  pt_l0_trigger : int;
  pt_l0_stop : int;
  pt_fanout : float;
  pt_base_bytes : int;
  pt_file_bytes : int;
  pt_max_levels : int;
  pt_pacing : pacing;
}

(** Trigger 4, stop 8, fanout 4, base 256 KiB, 64 KiB files, 6 levels,
    spring pacing. *)
val default_pconfig : pconfig

(** The paper's §5 comparator, 2012 LevelDB: triggers 4/8/12 (compact /
    slowdown / stop), ratio 10, 7 levels, 10 MiB level 1, 2 MiB files,
    credit 10 bytes per written byte, 1 ms slowdown. Run it with
    {!Compaction_policy.leveldb_seed} and a {!Config.t} with
    [bloom_bits_per_key = 0] (LevelDB 2012 had no filters; its memtable
    was 4 MiB). *)
val leveldb_pconfig : pconfig

(** This engine's own counters; the shared ones are {!stats}. *)
type engine_stats = {
  mutable flushes : int;
  mutable compactions : int;
  mutable bytes_flushed : int;  (** level-0 run output bytes *)
  mutable bytes_compacted : int;  (** lifetime compaction input bytes *)
  mutable hard_stalls : int;  (** level-0 stop-threshold drains *)
  mutable slowdown_writes : int;  (** [Credit] writes delayed by level 0 *)
  mutable recoveries : int;
  mutable recoveries_mid_compaction : int;
      (** recoveries that rolled back an in-flight compaction — the
          crash-during-merge repro predicate *)
}

type t

(** [create ~policy store] opens an empty tree. [config] supplies the
    shared engine knobs (C0 budget, watermarks, Bloom layout, page
    format, resolver, seed); [pconfig] the level-shape knobs. *)
val create :
  ?config:Config.t -> ?pconfig:pconfig -> policy:Compaction_policy.t ->
  Pagestore.Store.t -> t

(* The constructor-argument accessors mirror {!Tree}'s surface; [pconfig]
   and [policy] are kept exported for embedders. *)
val config : t -> Config.t
val pconfig : t -> pconfig [@@lint.allow "U001"]
val policy : t -> Compaction_policy.t [@@lint.allow "U001"]
val store : t -> Pagestore.Store.t
val disk : t -> Simdisk.Disk.t
val stats : t -> Lsm_shell.stats
val engine_stats : t -> engine_stats

val put : t -> string -> string -> unit
val delete : t -> string -> unit
val apply_delta : t -> string -> string -> unit
val get : t -> string -> string option
val read_modify_write : t -> string -> (string option -> string) -> unit
val insert_if_absent : t -> string -> string -> bool
val scan : t -> string -> int -> (string * string) list

(** [write_batch t ops] applies [ops] under one WAL record: all-or-
    nothing across crashes. *)
val write_batch : t -> (string * Kv.Entry.t) list -> unit

(** Force the memtable into a level-0 run (commits manifest, truncates
    the WAL). *)
val flush : t -> unit

(** Flush, then run policy picks to fixpoint: afterwards
    {!check_invariant} must hold. *)
val maintenance : t -> unit

(** Power-fail the store and reopen from manifest + WAL replay. The
    returned tree is fresh (counters zeroed except the recovery counters,
    which accumulate across generations); an in-flight compaction is
    rolled back. [verify] checksums every run page at mount; a run that
    fails it, or the Bloom rebuild scan, is quarantined. May raise
    {!Lsm_shell.Corruption}. *)
val crash_and_recover : ?verify:bool -> t -> t

(** Verifies every run page, Bloom blob and live WAL record; errors are
    reported at level ["P<n>"] / ["WAL"]. *)
val scrub : t -> Lsm_shell.scrub_report

(** Footer of every mounted run, level 0 first (["P0"], ["P1"], ...) —
    extents and page layout for fault tests. *)
val component_footers : t -> (string * Sstable.Sst_format.footer) list

(** Stall attribution of the last write, tiling its pacing window. *)
val last_stall : t -> Lsm_shell.stall_breakdown

(** Observer called once per pacing decision (stall-episode detectors). *)
val on_stall : t -> (Lsm_shell.stall_breakdown -> unit) -> unit
  [@@lint.allow "U001"]

(** [ptree.*] counters plus the store stack; built once and cached. *)
val metrics : t -> Obs.Metrics.t

(** Metadata snapshot the policy decides over — the input for writing
    custom policies against {!Compaction_policy}. *)
val view : t -> Compaction_policy.view [@@lint.allow "U001"]

(** The policy's structural invariant at the current shape
    ([p_check (view t)]). *)
val check_invariant : t -> string option

type level_info = { li_level : int; li_runs : int; li_bytes : int }

(** Per-level run count and bytes, level 0 first. *)
val levels : t -> level_info list

(** Run bytes across all levels (space-amplification numerator). *)
val total_run_bytes : t -> int

(** [engine t] adapts the tree to the generic KV surface. *)
val engine : ?name:string -> t -> Kv.Kv_intf.engine
