(** Compaction policies: the *what-to-merge* decision.

    The merge machinery in this repository is split across pacing
    ({!Scheduler}: when and how fast), mechanism ({!Merge_process},
    {!Policy_tree}: how records move), and — with this
    module — policy: which runs are merged together next. A policy is a
    pure decision over a metadata snapshot of the tree ({!view}): it
    never touches pages, iterators, or the store, so one policy drives
    both the simulation engines and the structural invariants directly.

    Following Sarkar et al.'s compaction design space, a policy is one
    point on four primitives:
    {v
    trigger      First_full: the shallowest level at its limit (level 0
                 by run count, deeper levels by bytes or run count)
                 Max_score: LevelDB's highest fill ratio, ties deeper
    layout       Tiered | Leveled | Lazy_leveled (tiers above one sorted
                 last level)
    granularity  Whole_level | One_file: one run plus its overlaps,
                 output split at v_file_bytes
    movement     round-robin over the key space: a per-level cursor the
                 host keeps and advances
    v}
    The named points:
    {v
    name          trigger     layout        granularity
    tiered        First_full  Tiered        Whole_level
    leveled       First_full  Leveled       Whole_level
    lazy-leveled  First_full  Lazy_leveled  Whole_level
    partial       First_full  Leveled       One_file
    leveldb-seed  Max_score   Leveled       One_file
    v}
    The first four are the grid's design points ({!named});
    {!leveldb_seed} is circa-2012 LevelDB's selection, which
    {!Policy_tree.leveldb_pconfig} runs as the paper's comparator. *)

(** Metadata of one on-disk sorted run. [run_id] is the engine's
    creation-order stamp: unique, and within a level a higher id means
    fresher data. *)
type run = {
  run_id : int;
  run_bytes : int;
  run_min_key : string;
  run_max_key : string;
}

(** Snapshot the engine hands the policy. [v_levels.(i)] lists level
    [i]'s runs in the engine's storage order (level 0 newest-first;
    deeper levels sorted by [run_min_key]). Knobs: [v_l0_trigger]
    level-0 run count that makes compaction urgent, [v_fanout] the size
    ratio / tiering width T, [v_base_bytes] the level-1 byte target
    ([target(i) = base * fanout^(i-1)]), [v_file_bytes] the output split
    for [One_file] policies, [v_max_levels] the deepest level + 1. *)
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
}

type trigger = First_full | Max_score
type layout = Tiered | Leveled | Lazy_leveled
type granularity = Whole_level | One_file
type t = { trigger : trigger; layout : layout; granularity : granularity }

(** The grid's four design points, by name: [tiered], [leveled],
    [lazy-leveled], [partial]. *)
val named : (string * t) list

val leveldb_seed : t

(** [pick p ~cursor v] chooses the most urgent job, or [None] when the
    shape satisfies [p]. [cursor.(i)] (one entry per level, initially
    [""]) is the min key of the last run a one-run job moved out of
    level [i]; a [One_file] pick takes the first run past it, wrapping.
    The host sets it when it starts such a job, as LevelDB keeps
    [compact_pointer_]. *)
val pick : t -> cursor:string array -> view -> job option

(** The job that merges level 0 down (hard drains). *)
val l0_job : t -> view -> job option

(** The structural invariant the shape satisfies at a maintenance
    fixpoint; [Some msg] describes the violation. *)
val check : t -> view -> string option
