(** bLSM tree configuration.

    Defaults follow the paper: a three-level tree, Bloom filters at 10
    bits/key on both on-disk components (§3.1), spring-and-gear
    scheduling (§4.3), early-terminating reads (§3.1.1). The scheduler
    also decides how C0 drains: spring and naive snowshovel (§4.2), gear
    partitions C0/C0' and merges the frozen half (§4.2.1).
    Every field is a paper parameter or a §3–§4 choice an ablation
    isolates; [bloom_kind] and [page_format] are single-value fields
    kept because the perfbench replay names them. *)

(** Which level scheduler paces merge work into the write path (§4). *)
type scheduler_kind =
  | Naive  (** no pacing: block when C0 fills, merge to completion *)
  | Gear  (** §4.1: couple C0 fill to merge progress; C0/C0' partition *)
  | Spring  (** §4.3: watermark band on C0, proportional backpressure *)

(** Tree size ratio R between adjacent levels. *)
type size_ratio =
  | Fixed of float
  | Adaptive  (** R = sqrt(|data| / |C0|), the 3-level optimum (§2.3.1) *)

type t = {
  c0_bytes : int;  (** RAM budget for C0 (the paper's 8 GB, scaled) *)
  size_ratio : size_ratio;
  bloom_bits_per_key : int;  (** 0 disables Bloom filters (ablation) *)
  scheduler : scheduler_kind;
  early_termination : bool;
      (** stop reads at the first base record (§3.1.1) *)
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
}

(** The paper's configuration at 8 MiB C0. *)
val default : t

(** [bloom_enabled t] is [t.bloom_bits_per_key > 0]. *)
val bloom_enabled : t -> bool

(** Effective C0 capacity: the gear scheduler partitions the write pool
    into C0/C0', halving it (§4.2.1); spring and naive snowshovel
    (§4.2), so they have no partition. *)
val c0_capacity : t -> int

val scheduler_name : scheduler_kind -> string
