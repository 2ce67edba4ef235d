(** Range-partitioned bLSM: the paper's "missing piece" (§4.2.2, §6).

    Splits the key space at fixed boundary keys into sub-trees that share
    one store (one disk, buffer pool, WAL, allocator). Each partition runs
    its own merge scheduler, so merge activity — and therefore write
    backpressure — is proportional to the merge debt of the range actually
    being written. This fixes the adversarial distribution-shift stall
    mode the paper describes as needing partitioning. *)

type t

(** [uniform_boundaries ?prefix ~partitions ()] splits a decimal-digit
    key space (e.g. YCSB's ["user<digits>"]) into up to 100 balanced
    ranges. *)
val uniform_boundaries :
  ?prefix:string -> partitions:int -> unit -> string list
[@@lint.allow "U001"] (* partitioning setup helper for embedders *)

(** [create ?config ?c0_share ~boundaries store] builds one sub-tree per
    range; partition [i] covers keys in [[b.(i-1), b.(i))], with the
    first starting at [""]. [c0_share] sets each partition's slice of the
    C0 write pool: [`Static] (default) divides it evenly — aggregate RAM
    is exactly the budget; [`Shared] gives every partition the full
    budget, modelling the shared write pool of partitioned exponential
    files — appropriate when write skew keeps only a few ranges hot. *)
val create :
  ?config:Config.t ->
  ?c0_share:[ `Static | `Shared ] ->
  boundaries:string list ->
  Pagestore.Store.t ->
  t

val partition_count : t -> int

(** [partition_index t key] is the index of the partition holding [key];
    every point operation and batch slice routes through it. *)
val partition_index : t -> string -> int

(** [range_of t i key]: partition [i] owns [key], i.e. [key] lies in
    [[boundary (i-1), boundary i)]. Recovery replays the shared log into
    partition [i] through this filter, so it must agree with
    {!partition_index}. *)
val range_of : t -> int -> string -> bool

(** {1 Point operations — routed to one partition} *)

val put : t -> string -> string -> unit
val get : t -> string -> string option
val delete : t -> string -> unit
val apply_delta : t -> string -> string -> unit
val read_modify_write : t -> string -> (string option -> string) -> unit
val insert_if_absent : t -> string -> string -> bool

(** [write_batch t ops] applies [ops] atomically even across partition
    boundaries: the shared WAL takes one record for the whole batch and
    each partition folds in its slice under that record's LSN, so a
    crash recovers all of the batch or none of it. *)
val write_batch : t -> (string * Kv.Entry.t) list -> unit

(** {1 Scans — chained across partitions in key order} *)

val scan : t -> string -> int -> (string * string) list

(** Streaming cursor chaining partitions in key order. *)
type cursor

val cursor : ?from:string -> t -> cursor
val cursor_next : cursor -> (string * string) option

(** {1 Maintenance and introspection} *)

val maintenance : t -> unit
val flush : t -> unit

(** Power-fail the shared store and recover every partition (per-slot
    roots, range-scoped replay of the shared log). *)
val crash_and_recover : t -> t
val disk : t -> Simdisk.Disk.t

(** Aggregate level view, tagged with partition indexes. *)
val levels : t -> (int * Tree.level_info) list
[@@lint.allow "U001"] (* observatory parity with [Tree.levels] *)

val total_hard_stalls : t -> int
val total_merges : t -> int

(** Per-partition on-disk bytes: shows merge activity concentrating on
    written ranges (Figure 3's motivation). *)
val partition_bytes : t -> int array

(** Live per-partition op counters, partition order. *)
val partition_stats : t -> Tree.stats array

(** [scrub t]: per-partition checksum sweep (components + shared WAL,
    re-verified once per partition). Clean iff every report is clean. *)
val scrub : t -> Tree.scrub_report list

(** [metrics t]: aggregate [partitioned.*] counters over all partitions
    plus the shared store stack. Built fresh per call; rebuild after
    {!crash_and_recover} (partitions are replaced wholesale). *)
val metrics : t -> Obs.Metrics.t

val engine : ?name:string -> t -> Kv.Kv_intf.engine
