(** bLSM tree configuration.

    Defaults follow the paper's setup scaled down: a three-level tree with
    Bloom filters at 10 bits/key on both on-disk components, snowshoveling
    on, the spring scheduler, early-terminating reads. Every field is a
    paper parameter or a §3-§4 choice an ablation isolates; the two
    single-value layout fields stay only because the perfbench replay
    names them. *)

type scheduler_kind =
  | Naive  (** no pacing: block when C0 fills, merge to completion *)
  | Gear  (** §4.1: couple C0 fill to merge progress, C0/C0' partition *)
  | Spring  (** §4.3: watermark band on C0, proportional backpressure *)

type size_ratio =
  | Fixed of float
  | Adaptive  (** R = sqrt(|data| / |C0|), the 3-level optimum (§2.3.1) *)

type t = {
  c0_bytes : int;  (** RAM budget for C0 (the paper's 8 GB, scaled) *)
  size_ratio : size_ratio;
  bloom_bits_per_key : int;  (** 0 disables Bloom filters (ablation) *)
  scheduler : scheduler_kind;
  snowshovel : bool;  (** replacement-selection C0 draining (§4.2) *)
  early_termination : bool;  (** stop reads at the first base record (§3.1.1) *)
  low_watermark : float;  (** spring: pause merges below this C0 fill *)
  high_watermark : float;  (** spring: full backpressure at this fill *)
  extent_pages : int;  (** contiguous allocation unit for components *)
  max_quota_per_write : int;
      (** cap on synchronous merge bytes charged to one write: bounds
          per-write latency under the gear/spring schedulers *)
  persist_bloom : bool;
      (** write each component's Bloom filter to disk at merge commit so
          recovery reads 1.25 B/key instead of rescanning the component.
          The paper chose not to persist (§4.4.3); off by default. *)
  bloom_kind : Bloom.kind;
      (** the one filter layout, [Standard]; named by the perfbench
          replay, which passes it to {!Component.build_bloom} *)
  page_format : Sstable.Sst_format.version;
      (** the one page layout, [V1] (full key per record); named by the
          perfbench replay, which passes it to the SSTable builder *)
  resolver : Kv.Entry.resolver;
  seed : int;
}

let default =
  {
    c0_bytes = 8 * 1024 * 1024;
    size_ratio = Adaptive;
    bloom_bits_per_key = 10;
    scheduler = Spring;
    snowshovel = true;
    early_termination = true;
    low_watermark = 0.30;
    high_watermark = 0.90;
    extent_pages = 512;
    max_quota_per_write = 4 * 1024 * 1024;
    persist_bloom = false;
    bloom_kind = Bloom.Standard;
    page_format = Sstable.Sst_format.V1;
    resolver = Kv.Entry.append_resolver;
    seed = 42;
  }

let bloom_enabled t = t.bloom_bits_per_key > 0

(** Effective C0 capacity: the gear scheduler partitions the write pool
    into C0/C0', halving it (§4.2.1); snowshoveling removes the partition. *)
let c0_capacity t = if t.snowshovel then t.c0_bytes else t.c0_bytes / 2

let scheduler_name = function
  | Naive -> "naive"
  | Gear -> "gear"
  | Spring -> "spring"
