(** bLSM tree configuration.

    Defaults follow the paper: a three-level tree, Bloom filters at 10
    bits/key on both on-disk components (§3.1), snowshoveling (§4.2),
    spring-and-gear scheduling (§4.3), early-terminating reads (§3.1.1).
    Every algorithmic choice evaluated in §3–§4 is a flag so the ablation
    benchmarks can isolate it. *)

(** Which level scheduler paces merge work into the write path (§4). *)
type scheduler_kind =
  | Naive  (** no pacing: block when C0 fills, merge to completion *)
  | Gear  (** §4.1: couple C0 fill to merge progress; C0/C0' partition *)
  | Spring  (** §4.3: watermark band on C0, proportional backpressure *)

(** Tree size ratio R between adjacent levels. *)
type size_ratio =
  | Fixed of float
  | Adaptive  (** R = sqrt(|data| / |C0|), the 3-level optimum (§2.3.1) *)

(** Replication-supervisor tuning (all simulated-µs / record counts):
    request deadlines, the capped-exponential retry schedule with its
    seeded jitter band, transfer sizing, and the bounded-staleness read
    policy a lagging follower degrades under. *)
type repl = {
  req_timeout_us : int;  (** per-request deadline before a retry *)
  backoff_base_us : int;  (** first retry delay *)
  backoff_cap_us : int;  (** exponential backoff ceiling *)
  backoff_jitter : float;
      (** each delay is [nominal * (1 + u * jitter)], [u] seeded
          uniform in [0,1) *)
  max_attempts : int;  (** give up ([`Unreachable]) after this many *)
  batch_records : int;  (** WAL records per catch-up request *)
  chunk_rows : int;  (** rows per snapshot chunk during resync *)
  max_lag_records : int;  (** shed reads past this known lag *)
  staleness_lease_us : int;
      (** shed reads when the primary has been silent this long *)
}

type t = {
  c0_bytes : int;  (** RAM budget for C0 (the paper's 8 GB, scaled) *)
  size_ratio : size_ratio;
  bloom_bits_per_key : int;  (** 0 disables Bloom filters (ablation) *)
  scheduler : scheduler_kind;
  snowshovel : bool;  (** replacement-selection C0 draining (§4.2) *)
  early_termination : bool;
      (** stop reads at the first base record (§3.1.1) *)
  low_watermark : float;  (** spring: pause merges below this C0 fill *)
  high_watermark : float;  (** spring: full backpressure at this fill *)
  extent_pages : int;  (** contiguous allocation unit for components *)
  max_quota_per_write : int;
      (** cap on synchronous merge bytes charged to one write: bounds
          per-write latency under the gear/spring schedulers *)
  persist_bloom : bool;
      (** write Bloom filters to disk at merge commit so recovery reads
          1.25 B/key instead of rescanning; the paper chose rebuild-on-
          recovery (§4.4.3), so this is off by default *)
  bloom_kind : Bloom.kind;
      (** the one filter layout, [Standard]; kept because the perfbench
          replay passes it to [Component.build_bloom] *)
  page_format : Sstable.Sst_format.version;
      (** the one page layout, [V1]; kept because the perfbench replay
          passes it to [Sstable.Builder.create] *)
  resolver : Kv.Entry.resolver;  (** how deltas apply to base records *)
  seed : int;  (** PRNG seed (skip-list levels); fixes runs *)
  repl : repl;  (** replication supervisor policy *)
}

(** The paper's configuration at 8 MiB C0. *)
val default : t

(** Production-scale replication policy (the one inside {!default}). *)
val default_repl : repl

(** [bloom_enabled t] is [t.bloom_bits_per_key > 0]. *)
val bloom_enabled : t -> bool

(** Effective C0 capacity: the gear scheduler partitions the write pool
    into C0/C0', halving it (§4.2.1); snowshoveling removes the
    partition. *)
val c0_capacity : t -> int

val scheduler_name : scheduler_kind -> string
