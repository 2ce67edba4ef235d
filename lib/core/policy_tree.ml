(* Policy-driven multi-level LSM engine: the host for
   {!Compaction_policy}. One memtable + logical WAL in front of an array
   of levels of Bloom-filtered runs; victim selection is delegated
   entirely to the policy, while flushing, pacing, durability, recovery
   and the read stack are shared — so the four compaction disciplines
   differ in exactly the decision the design space varies.

   Flushes and compactions both run on {!Merge_process}, the executor
   {!Tree}'s merges use: a job merges its runs through a
   {!Sstable.Merge_iter}, metered in input bytes read, into output runs
   split at the job's size; a flush runs a memtable-consuming pull to
   completion. The shell owns each from start to install and abandons
   the in-flight ones at a crash.

   Pacing: flushes are atomic (charged as merge1 time), compaction work
   runs inside the write path (merge2 time) — stepped in spring-quota
   quanta, or as whole jobs against a LevelDB-style byte credit — and
   level-0 pressure past the stop threshold triggers a synchronous hard
   drain (hard time). The write path, newest-first reads, stall window,
   manifest, recovery sequence and typed corruption are the {!Lsm_shell}'s, shared
   with {!Tree}, so the stability observatory instruments every policy
   for free. *)

type pacing =
  | Spring
  | Credit of {
      credit_per_byte : float;
      slowdown_at : int;
      slowdown_us : float;
    }

type pconfig = {
  pt_l0_trigger : int;
  pt_l0_stop : int;
  pt_fanout : float;
  pt_base_bytes : int;
  pt_file_bytes : int;
  pt_max_levels : int;
  pt_pacing : pacing;
}

let default_pconfig =
  {
    pt_l0_trigger = 4;
    pt_l0_stop = 8;
    pt_fanout = 4.0;
    pt_base_bytes = 256 * 1024;
    pt_file_bytes = 64 * 1024;
    pt_max_levels = 6;
    pt_pacing = Spring;
  }

let leveldb_pconfig =
  {
    pt_l0_trigger = 4;
    pt_l0_stop = 12;
    pt_fanout = 10.0;
    pt_base_bytes = 10 * 1024 * 1024;
    pt_file_bytes = 2 * 1024 * 1024;
    pt_max_levels = 7;
    pt_pacing =
      Credit { credit_per_byte = 10.0; slowdown_at = 8; slowdown_us = 1000.0 };
  }

type engine_stats = {
  mutable flushes : int;
  mutable compactions : int;
  mutable bytes_flushed : int;
  mutable bytes_compacted : int;
  mutable slowdown_writes : int;
  mutable recoveries : int;
  mutable recoveries_mid_compaction : int;
}

(* One in-flight incremental compaction. Inputs stay mounted (and
   readable) until commit; output runs are invisible until the shell
   installs them. A run's id is its component timestamp. *)
type active = {
  ac_job : Compaction_policy.job;
  ac_inputs : Component.t list;
  ac_overlaps : Component.t list;
  ac_merge : Merge_process.t;
}

type t = {
  config : Config.t;
  pc : pconfig;
  policy : Compaction_policy.t;
  cursor : string array;  (* round-robin key per level, see [start_job] *)
  mutable idle_at : int;
      (* the shell's level generation at which [pick] last found nothing
         to do, or -1; see [pick_due] *)
  store : Pagestore.Store.t;
  mem : Memtable.t;
  mutable active : active option;
  mutable credit : float;  (* [Credit] pacing: compaction bytes earned *)
  sh : Lsm_shell.t;
  es : engine_stats;
  mutable metrics : Obs.Metrics.t option;
}

let config t = t.config
let store t = t.store
let disk t = Pagestore.Store.disk t.store
let stats t = Lsm_shell.stats t.sh
let engine_stats t = t.es

let level_name lvl = "P" ^ string_of_int lvl

let last_stall t = Lsm_shell.last_stall t.sh
let on_stall t f = Lsm_shell.on_stall t.sh f

(* {1 Level bookkeeping}: the runs live in the shell's levels. *)

let runs t lvl = Lsm_shell.runs t.sh lvl
let run_id = Component.timestamp
let run_bytes = Component.data_bytes
let run_min_key c = Sstable.Reader.min_key c.Component.sst
let run_max_key c = Sstable.Reader.max_key c.Component.sst

(* Storage order: level 0 newest run first (ids are creation-ordered),
   deeper levels sorted by min key — the order {!Compaction_policy.view}
   documents. *)
let level_order lvl runs =
  if lvl = 0 then
    List.sort (fun a b -> Int.compare (run_id b) (run_id a)) runs
  else
    List.sort (fun a b -> String.compare (run_min_key a) (run_min_key b)) runs

let view t =
  {
    Compaction_policy.v_levels =
      Array.init t.pc.pt_max_levels (fun lvl ->
          List.map
            (fun r ->
              {
                Compaction_policy.run_id = run_id r;
                run_bytes = run_bytes r;
                run_min_key = run_min_key r;
                run_max_key = run_max_key r;
              })
            (runs t lvl));
    v_l0_trigger = t.pc.pt_l0_trigger;
    v_fanout = t.pc.pt_fanout;
    v_base_bytes = t.pc.pt_base_bytes;
    v_file_bytes = t.pc.pt_file_bytes;
    v_max_levels = t.pc.pt_max_levels;
  }

let check_invariant t = Compaction_policy.check t.policy (view t)
let pick t = Compaction_policy.pick t.policy ~cursor:t.cursor (view t)

(* [pick] reads only the levels and the cursor, so once it has found
   nothing to do it is not run again until one of them changes: the
   shell's level generation moves, or [start_job] steps the cursor and
   resets [idle_at]. The writes in between build no view. *)
let idle t = t.idle_at = Lsm_shell.generation t.sh

let pick_due t =
  if idle t then None
  else
    match pick t with
    | None ->
        t.idle_at <- Lsm_shell.generation t.sh;
        None
    | some -> some

type level_info = { li_level : int; li_runs : int; li_bytes : int }

let levels t =
  List.init t.pc.pt_max_levels (fun lvl ->
      let runs = runs t lvl in
      {
        li_level = lvl;
        li_runs = List.length runs;
        li_bytes = List.fold_left (fun a r -> a + run_bytes r) 0 runs;
      })

let total_run_bytes t = Lsm_shell.data_bytes t.sh

(* {1 Merges}

   The shell owns each merge until it installs the outputs and commits
   the manifest (on the default root slot, with the WAL floor the last
   flush made durable). Every output run takes the shell's next
   timestamp as its id as it is sealed, and a Bloom filter sized for its
   share of the input keys (at least 16). *)

let start_merge t ~label ~args ~input ~keys ~split =
  Lsm_shell.start_merge t.sh ~label ~args ~input ~bloom_items:(max 16 keys)
    ~output:(Merge_process.Runs split)

(* {1 Flush: memtable -> one level-0 run}

   Atomic: the whole memtable streams into a single run, the manifest
   commits with the new WAL floor, then the log truncates. A crash
   anywhere in between recovers either the old state (replay from the
   old floor) or the new one (replay from the new floor skips the
   now-durable records) — deltas never double-apply. *)

let do_flush t =
  let wal = Pagestore.Store.wal t.store in
  let floor = Pagestore.Wal.next_lsn wal in
  let bytes = Memtable.bytes t.mem and keys = Memtable.count t.mem in
  let input =
    Merge_process.merge_input ~resolver:t.config.Config.resolver
      ~drop_tombstones:false ~total:bytes
      [ (fun () -> Memtable.consume_geq_lsn t.mem "") ]
  in
  let m =
    start_merge t ~label:"flush" ~args:[ ("c0_bytes", Obs.Trace.I bytes) ] ~input
      ~keys ~split:0
  in
  ignore (Merge_process.step m ~quota:max_int : Merge_process.outcome);
  (* a non-empty memtable always seals at least one run *)
  Lsm_shell.install t.sh ~floor_lsn:floor m (fun flushed ->
      Lsm_shell.set_runs t.sh 0 (List.rev_append flushed (runs t 0));
      t.es.flushes <- t.es.flushes + 1;
      t.es.bytes_flushed <-
        List.fold_left (fun a r -> a + run_bytes r) t.es.bytes_flushed flushed;
      []);
  Pagestore.Wal.truncate wal ~upto_lsn:floor

let flush t = if not (Memtable.is_empty t.mem) then do_flush t

(* {1 Compaction mechanism: execute one policy job incrementally} *)

let resolve_runs t ~lvl ids =
  List.map
    (fun id ->
      match List.find_opt (fun r -> run_id r = id) (runs t lvl) with
      | Some r -> r
      | None ->
          failwith
            (Printf.sprintf
               "policy_tree: policy selected unknown run %d at level %d" id lvl))
    ids

(* Tombstones (and orphan deltas) may be dropped only when the output
   lands at the bottom of the data: nothing below the target level, and
   nothing left *at* the target level outside the job — otherwise a
   dropped tombstone would resurrect an older record it was shadowing. *)
let job_reaches_bottom t (job : Compaction_policy.job) =
  let deeper_empty = ref true in
  for l = job.j_target + 1 to t.pc.pt_max_levels - 1 do
    if runs t l <> [] then deeper_empty := false
  done;
  let consumed id =
    List.mem id job.j_overlaps
    || (job.j_target = job.j_level && List.mem id job.j_inputs)
  in
  !deeper_empty
  && List.for_all (fun r -> consumed (run_id r)) (runs t job.j_target)

let start_job t (job : Compaction_policy.job) =
  assert (t.active = None);
  let inputs = resolve_runs t ~lvl:job.j_level job.j_inputs in
  let overlaps =
    if job.j_target = job.j_level then []
    else resolve_runs t ~lvl:job.j_target job.j_overlaps
  in
  (* The round-robin cursor, LevelDB's [compact_pointer_]: a job that
     moves one run records its min key, so the level's next one-file
     pick moves on past it. Every pick is started at once, so this is
     where each pick's cursor step lands. *)
  (match inputs with
  | [ r ] ->
      t.cursor.(job.j_level) <- run_min_key r;
      t.idle_at <- -1
  | _ -> ());
  (* Freshest source wins ties: inputs come from above the target (or
     are newer runs of the same level), ordered newest id first; the
     target level's overlapping runs are older than all of them and,
     being key-disjoint, chain into one stream. *)
  let inputs_desc = List.sort (fun a b -> Int.compare (run_id b) (run_id a)) inputs in
  (* the inputs open first, then the target's chain *)
  let input_pulls =
    List.map
      (Lsm_shell.component_pull t.sh ~level:(level_name job.j_level) ~from:None)
      inputs_desc
  in
  let overlap_pull =
    match overlaps with
    | [] -> []
    | _ ->
        [
          Lsm_shell.chain t.sh ~level:(level_name job.j_target) ~from:None
            (List.sort (fun a b -> String.compare (run_min_key a) (run_min_key b)) overlaps);
        ]
  in
  let sources = input_pulls @ overlap_pull in
  let sum f = List.fold_left (fun a r -> a + f r) 0 (inputs @ overlaps) in
  let total_bytes = sum run_bytes in
  let total_records = sum Component.record_count in
  let split = job.j_split_bytes in
  let merge =
    start_merge t ~label:"compact"
      ~args:
        [ ("level", Obs.Trace.I job.j_level);
          ("target", Obs.Trace.I job.j_target);
          ("input_bytes", Obs.Trace.I total_bytes) ]
      ~input:
        (Merge_process.merge_input ~resolver:t.config.Config.resolver
           ~drop_tombstones:(job_reaches_bottom t job)
           ~total:total_bytes sources)
      ~keys:
        (if split <= 0 || total_bytes <= 0 then total_records
         else total_records * split / max 1 total_bytes)
      ~split
  in
  t.active <-
    Some
      { ac_job = job; ac_inputs = inputs; ac_overlaps = overlaps; ac_merge = merge }

(* Swap the job's output in for its inputs through the shell's install
   order. [t.active] is cleared only once the outputs are sealed: a crash
   inside the seal is a recovery mid-compaction. *)
let commit_active t ac =
  let job = ac.ac_job in
  Lsm_shell.install t.sh ac.ac_merge (fun outputs ->
      t.active <- None;
      let without gone lvl = List.filter (fun r -> not (List.memq r gone)) (runs t lvl) in
      Lsm_shell.set_runs t.sh job.j_level (without ac.ac_inputs job.j_level);
      Lsm_shell.set_runs t.sh job.j_target
        (level_order job.j_target (outputs @ without ac.ac_overlaps job.j_target));
      t.es.compactions <- t.es.compactions + 1;
      t.es.bytes_compacted <-
        List.fold_left (fun a r -> a + run_bytes r) t.es.bytes_compacted
          (ac.ac_inputs @ ac.ac_overlaps);
      ac.ac_inputs @ ac.ac_overlaps)

let step_active t ac ~quota =
  Lsm_shell.step t.sh `Merge2 ac.ac_merge ~quota ~finish:(fun () -> commit_active t ac)

let finish_active t =
  match t.active with
  | None -> ()
  | Some ac ->
      Lsm_shell.spend ~budget:max_int (fun ~quota ->
          match step_active t ac ~quota with `More -> `Spent | `Done -> `Stop)

(* Start the policy's most urgent job when no compaction is in flight. *)
let ensure_active t =
  if t.active = None then
    match pick_due t with
    | Some job -> start_job t job
    | None -> ()

(* {1 Pacing: the per-write scheduler window} *)

let run_job t job =
  start_job t job;
  finish_active t

(* Hard drain: level 0 reached the stop threshold, so writes block until
   the policy has merged it down to [limit] runs. The parked elective
   compaction finishes first — its inputs may pin runs the drain jobs
   need. *)
let hard_drain t ~limit =
  finish_active t;
  let fuel = ref 0 in
  while List.length (runs t 0) > limit do
    incr fuel;
    if !fuel > 10_000 then failwith "policy_tree: hard drain stuck";
    match Compaction_policy.l0_job t.policy (view t) with
    | Some job -> run_job t job
    | None ->
        failwith
          (Printf.sprintf
             "policy_tree: level 0 at %d runs >= stop %d but the policy is idle"
             (List.length (runs t 0))
             t.pc.pt_l0_stop)
  done

let flush_if_full t =
  if Memtable.bytes t.mem >= Config.c0_capacity t.config then
    Lsm_shell.charge t.sh `Merge1 (fun () -> do_flush t)

(* Spring pacing: the single active job advances by a deadline quota on
   the memtable fill band, then a full memtable flushes and level 0 past
   the stop threshold drains. *)
let pace_spring t ~write_bytes =
  (* Starting a job opens iterators on every input run (seeks on the
     simulated disk), so it must land in a stall bucket too or the
     attribution would not tile the pacing window. *)
  if t.active = None && not (idle t) then
    Lsm_shell.charge t.sh `Merge2 (fun () -> ensure_active t);
  (match t.active with
  | None -> ()
  | Some ac ->
      let p = Merge_process.progress ac.ac_merge in
      let quota =
        min t.config.Config.max_quota_per_write
          (Scheduler.spring_quota ~write_bytes:(max 64 write_bytes)
             ~fill:(Lsm_shell.fill t.sh t.mem)
             ~remaining_bytes:(max 1 (p.bytes_total - p.bytes_read))
             ~c0_capacity:(Config.c0_capacity t.config))
      in
      if quota > 0 then ignore (step_active t ac ~quota : Merge_process.outcome));
  flush_if_full t;
  if List.length (runs t 0) >= t.pc.pt_l0_stop then
    Lsm_shell.hard_stall t.sh (fun () -> hard_drain t ~limit:(t.pc.pt_l0_stop - 1))

(* Credit pacing, 2012 LevelDB's background thread: each written byte
   earns [credit_per_byte] compaction bytes (capped at twice the level-1
   target); while credit is positive the policy's pick runs whole. At
   [slowdown_at] level-0 runs every write sleeps [slowdown_us], time the
   compaction thread spends at full disk bandwidth; at the stop
   threshold the write blocks until level 0 is back at the trigger. *)
let pace_credit t ~write_bytes ~credit_per_byte ~slowdown_at ~slowdown_us =
  flush_if_full t;
  t.credit <-
    Float.min
      (2.0 *. float_of_int t.pc.pt_base_bytes)
      (t.credit +. (float_of_int write_bytes *. credit_per_byte));
  let l0 = List.length (runs t 0) in
  if l0 >= t.pc.pt_l0_stop then begin
    Lsm_shell.hard_stall t.sh (fun () -> hard_drain t ~limit:t.pc.pt_l0_trigger);
    t.credit <- 0.0
  end
  else begin
    if l0 >= slowdown_at then begin
      t.es.slowdown_writes <- t.es.slowdown_writes + 1;
      Lsm_shell.charge t.sh `Hard (fun () -> Simdisk.Disk.advance (disk t) slowdown_us);
      t.credit <-
        t.credit
        +. (slowdown_us /. 1e6
           *. (Simdisk.Disk.profile (disk t)).Simdisk.Profile.write_mb_per_s
           *. 1e6)
    end;
    if t.credit > 0.0 then
      match pick_due t with
      | Some job ->
          let before = t.es.bytes_compacted in
          Lsm_shell.charge t.sh `Merge2 (fun () -> run_job t job);
          t.credit <-
            t.credit -. float_of_int (t.es.bytes_compacted - before)
      | None -> ()
  end

let pace t ~write_bytes =
  match t.pc.pt_pacing with
  | Spring -> pace_spring t ~write_bytes
  | Credit { credit_per_byte; slowdown_at; slowdown_us } ->
      pace_credit t ~write_bytes ~credit_per_byte ~slowdown_at ~slowdown_us

(* {1 Ops}: the shell's write and read paths. *)

let put t key value = Lsm_shell.put t.sh key value
let delete t key = Lsm_shell.delete t.sh key
let apply_delta t key d = Lsm_shell.apply_delta t.sh key d
let write_batch t ops = Lsm_shell.write_batch t.sh ops
let get t key = Lsm_shell.get t.sh key
let read_modify_write t key f = Lsm_shell.read_modify_write t.sh key f
let insert_if_absent t key value = Lsm_shell.insert_if_absent t.sh key value
let scan t start n = Lsm_shell.scan t.sh start n

(* {1 Creation}: the memtable is the whole memory side. *)

let create ?(config = Config.default) ?(pconfig = default_pconfig) ~policy store =
  if pconfig.pt_max_levels < 2 then invalid_arg "Policy_tree.create: pt_max_levels < 2";
  let mem = Memtable.create ~resolver:config.Config.resolver () in
  let t =
    {
      config;
      pc = pconfig;
      policy;
      cursor = Array.make pconfig.pt_max_levels "";
      idle_at = -1;
      store;
      mem;
      active = None;
      credit = 0.0;
      sh =
        Lsm_shell.create config store
          ~level_names:(Array.init pconfig.pt_max_levels level_name) ~slot:"";
      es =
        { flushes = 0; compactions = 0; bytes_flushed = 0; bytes_compacted = 0;
          slowdown_writes = 0; recoveries = 0; recoveries_mid_compaction = 0 };
      metrics = None;
    }
  in
  Lsm_shell.attach t.sh
    { pace = pace t; memtable = (fun () -> mem);
      memory = (fun key absorb -> absorb (Memtable.get mem key));
      memory_pulls = (fun from -> [ Memtable.pull_from mem ~from ]) };
  t

(* {1 Maintenance} *)

let maintenance t =
  flush t;
  finish_active t;
  let fuel = ref 0 in
  let rec settle () =
    incr fuel;
    if !fuel > 100_000 then failwith "policy_tree: maintenance stuck";
    match pick t with
    | Some job ->
        run_job t job;
        settle ()
    | None -> ()
  in
  settle ()

(* {1 Crash and recovery} *)

let crash_and_recover ?(verify = false) t =
  let mid_compaction = t.active <> None in
  let fresh = create ~config:t.config ~pconfig:t.pc ~policy:t.policy t.store in
  fresh.es.recoveries <- t.es.recoveries + 1;
  fresh.es.recoveries_mid_compaction <-
    (t.es.recoveries_mid_compaction + if mid_compaction then 1 else 0);
  (* Every flushed record is truncated from the log, so no run is ever
     covered by it: rot quarantines, it never drops a run. Every record
     below the floor is durably folded into a committed level-0 run
     (flushes are atomic), so replaying from the floor alone prevents
     double-apply — crucially for deltas, which are not idempotent. The
     shell rolls back the in-flight compaction and a mid-flush memtable,
     and frees installed-but-uncommitted runs: the durable manifest is
     the authority on what must survive. *)
  Lsm_shell.recover fresh.sh ~crashed:t.sh ~verify ~covered:(fun _ -> false)
    ~resume:ignore ~keep:(fun _ _ -> true);
  fresh

(* {1 Scrubbing} *)

let scrub t = Lsm_shell.scrub t.sh
let component_footers t = Lsm_shell.component_footers t.sh

(* {1 Metrics} *)

let metrics t =
  match t.metrics with
  | Some m -> m
  | None ->
      let reg = Obs.Metrics.create () in
      let s = stats t and es = t.es in
      let counter = Obs.Metrics.counter in
      Lsm_shell.register_metrics t.sh reg ~prefix:"ptree";
      counter reg "ptree.flushes" ~help:"memtable flushes" (fun () ->
          es.flushes);
      counter reg "ptree.compactions" ~help:"policy jobs executed" (fun () ->
          es.compactions);
      counter reg "ptree.bytes_flushed" ~help:"level-0 output bytes" (fun () ->
          es.bytes_flushed);
      counter reg "ptree.bytes_compacted" ~help:"compaction input bytes"
        (fun () -> es.bytes_compacted);
      counter reg "ptree.user_bytes" ~help:"logical bytes accepted" (fun () ->
          s.user_bytes_written);
      counter reg "ptree.slowdown_writes" ~help:"writes delayed by level 0"
        (fun () -> es.slowdown_writes);
      counter reg "ptree.recoveries" ~help:"crash recoveries (lifetime)"
        (fun () -> es.recoveries);
      counter reg "ptree.recoveries_mid_compaction"
        ~help:"recoveries that rolled back an in-flight compaction" (fun () ->
          es.recoveries_mid_compaction);
      counter reg "ptree.quarantined_runs"
        ~help:"corrupt runs mounted read-around at recovery" (fun () ->
          s.quarantined_components);
      counter reg "ptree.run_bytes" ~help:"bytes across all runs" (fun () ->
          total_run_bytes t);
      counter reg "ptree.runs" ~help:"run count across all levels" (fun () ->
          List.length (Lsm_shell.components t.sh));
      Obs.Metrics.gauge reg "ptree.stall_merge1_us"
        ~help:"pacing time spent flushing, µs" (fun () -> s.stall_merge1_us);
      Obs.Metrics.gauge reg "ptree.stall_merge2_us"
        ~help:"pacing time spent compacting, µs" (fun () -> s.stall_merge2_us);
      Obs.Metrics.gauge reg "ptree.stall_hard_us"
        ~help:"hard-drain time, µs" (fun () -> s.stall_hard_us);
      Obs.Metrics.gauge reg "ptree.c0_fill" ~help:"memtable fill fraction"
        (fun () -> Lsm_shell.fill t.sh t.mem);
      Pagestore.Store.register_metrics reg t.store;
      t.metrics <- Some reg;
      reg

(* {1 Engine adapter} *)

let engine ~name t = Lsm_shell.engine t.sh ~name ~maintenance:(fun () -> maintenance t)
