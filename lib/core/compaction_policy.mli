(** Pluggable compaction policies: the *what-to-merge* decision.

    The merge machinery in this repository is split across pacing
    ({!Scheduler}: when and how fast), mechanism ({!Merge_process},
    {!Policy_tree}: how records move), and — with this
    module — policy: which runs are merged together next. A policy is a
    pure-ish decision procedure over a metadata snapshot of the tree
    ({!view}): it never touches pages, iterators, or the store, so one
    policy drives both the simulation engines and the structural
    QCheck invariants directly.

    Four design points from Sarkar et al.'s compaction design space are
    provided, plus the selection logic of circa-2012 LevelDB
    ([leveldb_seed]), which {!Policy_tree.leveldb_pconfig} runs as the
    paper's comparator:

    - {!tiered}: every level holds up to [T] overlapping runs; a full
      level merges into one run stacked on the next level. Write-optimal,
      read- and space-expensive.
    - {!leveled}: one run per level, sized [base * T^(i-1)]; an overfull
      level merges wholesale into the next. Read-optimal, high write
      amplification.
    - {!lazy_leveled}: tiered upper levels, one leveled run at the last
      level — the middle ground (Dostoevsky's "lazy leveling").
    - {!partial}: leveled shape but key-range granularity — one file
      (plus its overlaps) moves at a time, round-robin over the key
      space, so merges are small and pauses short.
    - {!leveldb_seed}: LevelDB's score-based victim selection with a
      round-robin compaction pointer. *)

(** Metadata of one on-disk sorted run. [run_id] is the engine's
    creation-order stamp: unique, and within a level a higher id means
    fresher data. *)
type run = {
  run_id : int;
  run_level : int;
  run_bytes : int;
  run_records : int;
  run_min_key : string;
  run_max_key : string;
}

(** Snapshot the engine hands the policy. [v_levels.(i)] lists level
    [i]'s runs in the engine's storage order (level 0 newest-first;
    deeper levels as maintained by the engine — sorted by [run_min_key]
    for range-partitioned levels). Knobs: [v_l0_trigger] level-0 run
    count that makes compaction urgent, [v_fanout] the size ratio /
    tiering width T, [v_base_bytes] the level-1 byte target
    ([target(i) = base * fanout^(i-1)]), [v_file_bytes] the output split
    granularity for range-partitioned policies, [v_max_levels] the
    deepest level + 1. *)
type view = {
  v_levels : run list array;
  v_l0_trigger : int;
  v_fanout : float;
  v_base_bytes : int;
  v_file_bytes : int;
  v_max_levels : int;
}

(** One unit of merge work. The engine removes [j_inputs] from
    [j_level] and [j_overlaps] from [j_target], merges them
    freshest-first, and installs the output run(s) at [j_target]
    (splitting at [j_split_bytes] when positive). [j_target] equals
    [j_level] for in-place consolidation (tiering's last level) and
    [j_level + 1] otherwise. *)
type job = {
  j_level : int;
  j_inputs : int list;
  j_overlaps : int list;
  j_target : int;
  j_split_bytes : int;
  j_why : string;  (** selection cause, for traces and tests *)
}

(** A policy instance. Factories return closures so policies may carry
    private selection state (round-robin pointers); engines create one
    instance per tree and re-create it on crash recovery.

    [p_pick] chooses the most urgent job, or [None] when the tree shape
    satisfies the policy. [p_job_at ~level] forces selection at one
    level (hard drains of level 0). [p_check] is the structural
    invariant the shape must satisfy at maintenance fixpoint —
    [Some msg] describes the violation. *)
type t = {
  p_name : string;
  p_pick : view -> job option;
  p_job_at : view -> level:int -> job option;
  p_check : view -> string option;
}

(** Policy-authoring helpers and the typed per-policy factories below
    are the pluggable-policy API: engines select policies by name
    through {!of_name}, but a custom policy (the whole point of the
    subsystem) is written against these. *)

[@@@lint.allow "U001"]

(** [level_target v i] is level [i]'s byte budget:
    [base * fanout^(i-1)], [max_int] for level 0. *)
val level_target : view -> int -> int

(** [level_bytes v i] sums the level's run sizes. *)
val level_bytes : view -> int -> int

(** [overlapping v ~level ~min_key ~max_key] lists ids of level
    [level]'s runs whose key range intersects [min_key, max_key], in
    storage order. *)
val overlapping :
  view -> level:int -> min_key:string -> max_key:string -> int list

val tiered : unit -> t
val leveled : unit -> t
val lazy_leveled : unit -> t
val partial : unit -> t
val leveldb_seed : unit -> t

(** Factory by name ([tiered] | [leveled] | [lazy-leveled] | [partial] |
    [leveldb-seed]); [None] for unknown names. *)
val of_name : string -> t option

val all_names : string list
