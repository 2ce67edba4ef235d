(* Policy-driven multi-level LSM engine: the host for
   {!Compaction_policy}. One memtable + logical WAL in front of an array
   of levels of Bloom-filtered runs; victim selection is delegated
   entirely to the policy, while flushing, pacing, durability, recovery
   and the read stack are shared — so the four compaction disciplines
   differ in exactly the decision the design space varies.

   Pacing: flushes are atomic (charged as merge1 time), compaction work
   runs inside the write path (merge2 time) — stepped in spring-quota
   quanta, or as whole jobs against a LevelDB-style byte credit — and
   level-0 pressure past the stop threshold triggers a synchronous hard
   drain (hard time). The write path, newest-first reads, stall window,
   recovery mount and typed corruption are the {!Lsm_shell}'s, shared
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
  mutable hard_stalls : int;
  mutable slowdown_writes : int;
  mutable recoveries : int;
  mutable recoveries_mid_compaction : int;
}

type prun = { pr_id : int; pr_comp : Component.t }

(* One in-flight incremental compaction. Inputs stay mounted (and
   readable) until commit; output runs are invisible until the manifest
   commit installs them. *)
type active = {
  ac_job : Compaction_policy.job;
  ac_inputs : prun list;
  ac_overlaps : prun list;
  ac_iter : Sstable.Merge_iter.t;
  ac_total_bytes : int;
  ac_total_records : int;
  mutable ac_read_bytes : int;
  mutable ac_builder : Sstable.Builder.t option;
  mutable ac_bloom : Bloom.t option;
  mutable ac_outputs : prun list;  (* newest split first *)
  mutable ac_done : bool;
}

type t = {
  config : Config.t;
  pc : pconfig;
  policy : Compaction_policy.t;
  store : Pagestore.Store.t;
  mem : Memtable.t;
  levels : prun list array;  (* level 0 newest-first; deeper by min key *)
  mutable next_id : int;
  mutable floor_lsn : int;  (* WAL floor recorded in the manifest *)
  mutable active : active option;
  mutable flush_builder : Sstable.Builder.t option;  (* crash rollback *)
  mutable credit : float;  (* [Credit] pacing: compaction bytes earned *)
  sh : Lsm_shell.t;
  es : engine_stats;
  mutable metrics : Obs.Metrics.t option;
}

let config t = t.config
let pconfig t = t.pc
let policy t = t.policy
let store t = t.store
let disk t = Pagestore.Store.disk t.store
let stats t = Lsm_shell.stats t.sh
let engine_stats t = t.es

let create ?(config = Config.default) ?(pconfig = default_pconfig) ~policy
    store =
  if pconfig.pt_max_levels < 2 then
    invalid_arg "Policy_tree.create: pt_max_levels < 2";
  {
    config;
    pc = pconfig;
    policy;
    store;
    mem =
      Memtable.create ~seed:config.Config.seed
        ~resolver:config.Config.resolver ();
    levels = Array.make pconfig.pt_max_levels [];
    next_id = 1;
    floor_lsn = 0;
    active = None;
    flush_builder = None;
    credit = 0.0;
    sh = Lsm_shell.create config store;
    es =
      { flushes = 0; compactions = 0; bytes_flushed = 0; bytes_compacted = 0;
        hard_stalls = 0; slowdown_writes = 0; recoveries = 0;
        recoveries_mid_compaction = 0 };
    metrics = None;
  }

let last_stall t = Lsm_shell.last_stall t.sh
let on_stall t f = Lsm_shell.on_stall t.sh f
let level_name lvl = "P" ^ string_of_int lvl
let guard t ~lvl f = Lsm_shell.guard t.sh ~level:(level_name lvl) f

(* {1 Level bookkeeping} *)

let run_bytes r = Component.data_bytes r.pr_comp
let run_min_key r = Sstable.Reader.min_key r.pr_comp.Component.sst
let run_max_key r = Sstable.Reader.max_key r.pr_comp.Component.sst

(* Storage order: level 0 newest run first (ids are creation-ordered),
   deeper levels sorted by min key — the order {!Compaction_policy.view}
   documents. *)
let level_order lvl runs =
  if lvl = 0 then
    List.sort (fun a b -> Int.compare b.pr_id a.pr_id) runs
  else
    List.sort (fun a b -> String.compare (run_min_key a) (run_min_key b)) runs

let view t =
  {
    Compaction_policy.v_levels =
      Array.mapi
        (fun lvl runs ->
          List.map
            (fun r ->
              {
                Compaction_policy.run_id = r.pr_id;
                run_level = lvl;
                run_bytes = run_bytes r;
                run_records = Component.record_count r.pr_comp;
                run_min_key = run_min_key r;
                run_max_key = run_max_key r;
              })
            runs)
        t.levels;
    v_l0_trigger = t.pc.pt_l0_trigger;
    v_fanout = t.pc.pt_fanout;
    v_base_bytes = t.pc.pt_base_bytes;
    v_file_bytes = t.pc.pt_file_bytes;
    v_max_levels = t.pc.pt_max_levels;
  }

let check_invariant t = t.policy.Compaction_policy.p_check (view t)

type level_info = { li_level : int; li_runs : int; li_bytes : int }

let levels t =
  Array.to_list
    (Array.mapi
       (fun lvl runs ->
         {
           li_level = lvl;
           li_runs = List.length runs;
           li_bytes = List.fold_left (fun a r -> a + run_bytes r) 0 runs;
         })
       t.levels)

let total_run_bytes t =
  Array.fold_left
    (fun a runs -> List.fold_left (fun a r -> a + run_bytes r) a runs)
    0 t.levels

(* {1 Manifest}

   "PLSM" | next_id | floor_lsn | run count | (level, id, meta blob)*.
   Force-written through the store root, so recovery sees a physically
   consistent set of committed runs plus the exact WAL floor the last
   flush made durable. *)

let commit_manifest t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "PLSM";
  Repro_util.Varint.write buf t.next_id;
  Repro_util.Varint.write buf t.floor_lsn;
  let all = ref [] in
  Array.iteri
    (fun lvl runs -> List.iter (fun r -> all := (lvl, r) :: !all) runs)
    t.levels;
  let all = List.rev !all in
  Repro_util.Varint.write buf (List.length all);
  List.iter
    (fun (lvl, r) ->
      Repro_util.Varint.write buf lvl;
      Repro_util.Varint.write buf r.pr_id;
      let blob = Component.meta_blob r.pr_comp in
      Repro_util.Varint.write buf (String.length blob);
      Buffer.add_string buf blob)
    all;
  Pagestore.Store.commit_root t.store (Buffer.contents buf)

(* The durable manifest: [(next_id, floor_lsn, [(level, id, meta blob)])].
   Absent, foreign or torn root (truncated varint, blob length past the
   end): [None], read as an empty tree. *)
let read_manifest t =
  let root = Pagestore.Store.read_root t.store in
  if String.length root < 4 || String.sub root 0 4 <> "PLSM" then None
  else
    match
      let next_id, pos = Repro_util.Varint.read root 4 in
      let floor, pos = Repro_util.Varint.read root pos in
      let n, pos = Repro_util.Varint.read root pos in
      let pos = ref pos in
      let runs =
        List.init n (fun _ ->
            let lvl, p = Repro_util.Varint.read root !pos in
            let id, p = Repro_util.Varint.read root p in
            let len, p = Repro_util.Varint.read root p in
            pos := p + len;
            (lvl, id, String.sub root p len))
      in
      (next_id, floor, runs)
    with
    | m -> Some m
    | exception Invalid_argument _ -> None

(* Ids listed in the durable manifest right now — the set of runs whose
   regions must survive a crash. *)
let durable_ids t =
  match read_manifest t with
  | Some (_, _, runs) -> List.map (fun (_, id, _) -> id) runs
  | None -> []

(* {1 Bloom filters} *)

let mk_bloom t ~expected_items =
  if Config.bloom_enabled t.config then
    Some
      (Bloom.create ~bits_per_item:t.config.Config.bloom_bits_per_key
         ~expected_items:(max 16 expected_items) ())
  else None

(* Seal a finished builder into a mounted, not-yet-committed run. *)
let seal t b bloom =
  let id = t.next_id in
  t.next_id <- id + 1;
  let bloom_blob =
    if t.config.Config.persist_bloom then Option.map Bloom.to_string bloom
    else None
  in
  let footer = Sstable.Builder.finish ?bloom_blob b ~timestamp:id in
  let sst =
    Sstable.Reader.open_in_ram t.store footer ~index:(Sstable.Builder.index_blob b)
  in
  { pr_id = id; pr_comp = Component.of_sst ?bloom sst }

(* {1 Flush: memtable -> one level-0 run}

   Atomic: the whole memtable streams into a single run, the manifest
   commits with the new WAL floor, then the log truncates. A crash
   anywhere in between recovers either the old state (replay from the
   old floor) or the new one (replay from the new floor skips the
   now-durable records) — deltas never double-apply. *)

let do_flush t =
  let wal = Pagestore.Store.wal t.store in
  let floor = Pagestore.Wal.next_lsn wal in
  let b =
    Sstable.Builder.create ~extent_pages:t.config.Config.extent_pages t.store
  in
  t.flush_builder <- Some b;
  let bloom = mk_bloom t ~expected_items:(Memtable.count t.mem) in
  let rec drain () =
    match Memtable.consume_geq_lsn t.mem "" with
    | Some (k, e, lsn) ->
        Sstable.Builder.add ~lsn b k e;
        Option.iter (fun bl -> Bloom.add bl k) bloom;
        drain ()
    | None -> ()
  in
  drain ();
  if Sstable.Builder.record_count b = 0 then begin
    Sstable.Builder.abandon b;
    t.flush_builder <- None
  end
  else begin
    let run = seal t b bloom in
    t.flush_builder <- None;
    t.levels.(0) <- run :: t.levels.(0);
    t.es.flushes <- t.es.flushes + 1;
    t.es.bytes_flushed <- t.es.bytes_flushed + run_bytes run;
    t.floor_lsn <- floor;
    commit_manifest t;
    Pagestore.Wal.truncate wal ~upto_lsn:floor
  end

let flush t = if not (Memtable.is_empty t.mem) then do_flush t

(* {1 Compaction mechanism: execute one policy job incrementally} *)

let resolve_runs t ~lvl ids =
  List.map
    (fun id ->
      match List.find_opt (fun r -> r.pr_id = id) t.levels.(lvl) with
      | Some r -> r
      | None ->
          failwith
            (Printf.sprintf
               "policy_tree: policy %s selected unknown run %d at level %d"
               t.policy.Compaction_policy.p_name id lvl))
    ids

let comp_pull t ~lvl ~from comp =
  Lsm_shell.component_pull t.sh ~level:(level_name lvl) ~from comp

(* Pull a list of key-disjoint components (sorted by min key) as one
   ordered stream, opening each only when the previous one runs dry;
   [from] positions the first. *)
let chain_pull t ~lvl ~from comps =
  let remaining = ref comps in
  let from = ref from in
  let cur = ref None in
  let rec next () =
    match !cur with
    | Some pull -> (
        match pull () with
        | Some _ as r -> r
        | None ->
            cur := None;
            next ())
    | None -> (
        match !remaining with
        | [] -> None
        | c :: rest ->
            remaining := rest;
            cur := Some (comp_pull t ~lvl ~from:!from c);
            from := None;
            next ())
  in
  next

(* Tombstones (and orphan deltas) may be dropped only when the output
   lands at the bottom of the data: nothing below the target level, and
   nothing left *at* the target level outside the job — otherwise a
   dropped tombstone would resurrect an older record it was shadowing. *)
let job_reaches_bottom t (job : Compaction_policy.job) =
  let deeper_empty = ref true in
  for l = job.j_target + 1 to t.pc.pt_max_levels - 1 do
    if t.levels.(l) <> [] then deeper_empty := false
  done;
  let consumed id =
    List.mem id job.j_overlaps
    || (job.j_target = job.j_level && List.mem id job.j_inputs)
  in
  !deeper_empty
  && List.for_all (fun r -> consumed r.pr_id) t.levels.(job.j_target)

let start_job t (job : Compaction_policy.job) =
  assert (t.active = None);
  let inputs = resolve_runs t ~lvl:job.j_level job.j_inputs in
  let overlaps =
    if job.j_target = job.j_level then []
    else resolve_runs t ~lvl:job.j_target job.j_overlaps
  in
  (* Freshest source wins ties: inputs come from above the target (or
     are newer runs of the same level), ordered newest id first; the
     target level's overlapping runs are older than all of them and,
     being key-disjoint, chain into one stream. *)
  let inputs_desc =
    List.sort (fun a b -> Int.compare b.pr_id a.pr_id) inputs
  in
  let sources =
    List.mapi
      (fun i r -> (i, comp_pull t ~lvl:job.j_level ~from:None r.pr_comp))
      inputs_desc
    @
    match overlaps with
    | [] -> []
    | _ ->
        let sorted =
          List.sort
            (fun a b -> String.compare (run_min_key a) (run_min_key b))
            overlaps
        in
        [
          ( List.length inputs_desc,
            chain_pull t ~lvl:job.j_target ~from:None
              (List.map (fun r -> r.pr_comp) sorted) );
        ]
  in
  let total_bytes =
    List.fold_left (fun a r -> a + run_bytes r) 0 (inputs @ overlaps)
  in
  let total_records =
    List.fold_left
      (fun a r -> a + Component.record_count r.pr_comp)
      0 (inputs @ overlaps)
  in
  t.active <-
    Some
      {
        ac_job = job;
        ac_inputs = inputs;
        ac_overlaps = overlaps;
        ac_iter =
          Sstable.Merge_iter.create ~resolver:t.config.Config.resolver
            ~drop_tombstones:(job_reaches_bottom t job)
            sources;
        ac_total_bytes = total_bytes;
        ac_total_records = total_records;
        ac_read_bytes = 0;
        ac_builder = None;
        ac_bloom = None;
        ac_outputs = [];
        ac_done = false;
      }

(* Seal the current output split (if it holds records) into a mounted,
   not-yet-committed run. *)
let rotate_output t ac =
  (match ac.ac_builder with
  | None -> ()
  | Some b ->
      if Sstable.Builder.record_count b = 0 then Sstable.Builder.abandon b
      else ac.ac_outputs <- seal t b ac.ac_bloom :: ac.ac_outputs);
  ac.ac_builder <- None;
  ac.ac_bloom <- None

(* Expected keys per output split, for Bloom sizing. *)
let split_expected ac split =
  if split <= 0 || ac.ac_total_bytes <= 0 then ac.ac_total_records
  else ac.ac_total_records * split / max 1 ac.ac_total_bytes

let record_cost k e = String.length k + Kv.Entry.payload_bytes e + 16

(* Consume up to [quota] input bytes (approximated by surviving record
   sizes; pacing only needs smoothness, not exactness). *)
let step_active t ac ~quota =
  let split = ac.ac_job.Compaction_policy.j_split_bytes in
  let spent = ref 0 in
  while (not ac.ac_done) && !spent < quota do
    match Sstable.Merge_iter.next ac.ac_iter with
    | None ->
        rotate_output t ac;
        ac.ac_done <- true
    | Some (k, e, lsn) ->
        (match ac.ac_builder with
        | Some b
          when split > 0 && Sstable.Builder.data_bytes b >= split ->
            rotate_output t ac
        | _ -> ());
        let b =
          match ac.ac_builder with
          | Some b -> b
          | None ->
              let b =
                Sstable.Builder.create
                  ~extent_pages:t.config.Config.extent_pages t.store
              in
              ac.ac_builder <- Some b;
              ac.ac_bloom <- mk_bloom t ~expected_items:(split_expected ac split);
              b
        in
        Sstable.Builder.add ~lsn b k e;
        Option.iter (fun bl -> Bloom.add bl k) ac.ac_bloom;
        let c = record_cost k e in
        ac.ac_read_bytes <- ac.ac_read_bytes + c;
        spent := !spent + c
  done

(* Swap the job's output in for its inputs, commit the manifest, free
   the superseded runs. The in-memory install happens before the commit
   and [t.active] is cleared first, so a crash point inside the root
   write leaves exactly one owner for every region: uncommitted outputs
   are freed by recovery's durable-set sweep, committed inputs are
   still in the old manifest. *)
let commit_active t ac =
  let job = ac.ac_job in
  let gone_inputs = List.map (fun r -> r.pr_id) ac.ac_inputs in
  let gone_overlaps = List.map (fun r -> r.pr_id) ac.ac_overlaps in
  let outputs = List.rev ac.ac_outputs in
  t.active <- None;
  t.levels.(job.Compaction_policy.j_level) <-
    List.filter
      (fun r -> not (List.mem r.pr_id gone_inputs))
      t.levels.(job.Compaction_policy.j_level);
  t.levels.(job.Compaction_policy.j_target) <-
    level_order job.Compaction_policy.j_target
      (outputs
      @ List.filter
          (fun r -> not (List.mem r.pr_id gone_overlaps))
          t.levels.(job.Compaction_policy.j_target));
  t.es.compactions <- t.es.compactions + 1;
  t.es.bytes_compacted <- t.es.bytes_compacted + ac.ac_total_bytes;
  commit_manifest t;
  List.iter (fun r -> Component.free r.pr_comp) ac.ac_inputs;
  List.iter (fun r -> Component.free r.pr_comp) ac.ac_overlaps

let finish_active t =
  match t.active with
  | None -> ()
  | Some ac ->
      let fuel = ref 0 in
      while not ac.ac_done do
        incr fuel;
        if !fuel > 10_000_000 then failwith "policy_tree: compaction stuck";
        step_active t ac ~quota:(64 * 1024)
      done;
      commit_active t ac

(* Start the policy's most urgent job when no compaction is in flight. *)
let ensure_active t =
  if t.active = None then
    match t.policy.Compaction_policy.p_pick (view t) with
    | Some job -> start_job t job
    | None -> ()

(* {1 Pacing: the per-write scheduler window} *)

let run_job t job =
  start_job t job;
  finish_active t

let charge t bucket f = Lsm_shell.charge t.sh bucket f

(* Hard drain: level 0 reached the stop threshold, so writes block until
   the policy has merged it down to [limit] runs. The parked elective
   compaction finishes first — its inputs may pin runs the drain jobs
   need. *)
let hard_drain t ~limit =
  t.es.hard_stalls <- t.es.hard_stalls + 1;
  finish_active t;
  let fuel = ref 0 in
  while List.length t.levels.(0) > limit do
    incr fuel;
    if !fuel > 10_000 then failwith "policy_tree: hard drain stuck";
    match t.policy.Compaction_policy.p_job_at (view t) ~level:0 with
    | Some job -> run_job t job
    | None ->
        failwith
          (Printf.sprintf
             "policy_tree: level 0 at %d runs >= stop %d but policy %s \
              is idle"
             (List.length t.levels.(0))
             t.pc.pt_l0_stop t.policy.Compaction_policy.p_name)
  done

let flush_if_full t =
  if Memtable.bytes t.mem >= Config.c0_capacity t.config then
    charge t `Merge1 (fun () -> do_flush t)

(* Spring pacing: the single active job advances by a deadline quota on
   the memtable fill band, then a full memtable flushes and level 0 past
   the stop threshold drains. *)
let pace_spring t ~write_bytes =
  let capacity = Config.c0_capacity t.config in
  (* Starting a job opens iterators on every input run (seeks on the
     simulated disk), so it must land in a stall bucket too or the
     attribution would not tile the pacing window. *)
  charge t `Merge2 (fun () -> ensure_active t);
  (match t.active with
  | None -> ()
  | Some ac ->
      let fill = float_of_int (Memtable.bytes t.mem) /. float_of_int capacity in
      let quota =
        min t.config.Config.max_quota_per_write
          (Scheduler.spring_quota ~write_bytes:(max 64 write_bytes) ~fill
             ~low:t.config.Config.low_watermark
             ~high:t.config.Config.high_watermark
             ~remaining_bytes:(max 1 (ac.ac_total_bytes - ac.ac_read_bytes))
             ~c0_capacity:capacity)
      in
      if quota > 0 then
        charge t `Merge2 (fun () ->
            step_active t ac ~quota;
            if ac.ac_done then commit_active t ac));
  flush_if_full t;
  if List.length t.levels.(0) >= t.pc.pt_l0_stop then
    charge t `Hard (fun () -> hard_drain t ~limit:(t.pc.pt_l0_stop - 1))

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
  let l0 = List.length t.levels.(0) in
  if l0 >= t.pc.pt_l0_stop then begin
    charge t `Hard (fun () -> hard_drain t ~limit:t.pc.pt_l0_trigger);
    t.credit <- 0.0
  end
  else begin
    if l0 >= slowdown_at then begin
      t.es.slowdown_writes <- t.es.slowdown_writes + 1;
      charge t `Hard (fun () -> Simdisk.Disk.advance (disk t) slowdown_us);
      t.credit <-
        t.credit
        +. (slowdown_us /. 1e6
           *. (Simdisk.Disk.profile (disk t)).Simdisk.Profile.write_mb_per_s
           *. 1e6)
    end;
    if t.credit > 0.0 then
      match t.policy.Compaction_policy.p_pick (view t) with
      | Some job ->
          let before = t.es.bytes_compacted in
          charge t `Merge2 (fun () -> run_job t job);
          t.credit <-
            t.credit -. float_of_int (t.es.bytes_compacted - before)
      | None -> ()
  end

let pace t ~write_bytes =
  match t.pc.pt_pacing with
  | Spring -> pace_spring t ~write_bytes
  | Credit { credit_per_byte; slowdown_at; slowdown_us } ->
      pace_credit t ~write_bytes ~credit_per_byte ~slowdown_at ~slowdown_us

(* {1 Write path} *)

let write t = Lsm_shell.write t.sh ~pace:(pace t) ~memtable:(fun () -> t.mem)
let put t = Lsm_shell.put t.sh ~write:(write t)
let delete t = Lsm_shell.delete t.sh ~write:(write t)
let apply_delta t = Lsm_shell.apply_delta t.sh ~write:(write t)
let write_batch t ops = Lsm_shell.write_batch t.sh ~write:(write t) ops

(* {1 Read path}

   Record states newest-first: memtable, then every level top down.
   Within a level, the runs whose key range covers the key are visited
   newest id first — required where runs overlap (level 0, tiered
   levels); where they are key-disjoint at most one is left. A level's
   runs are filtered only if the lookup reaches it. *)

let sources t key absorb =
  let rec from lvl =
    lvl < t.pc.pt_max_levels
    && (List.filter
          (fun r ->
            String.compare (run_min_key r) key <= 0
            && String.compare key (run_max_key r) <= 0)
          t.levels.(lvl)
       |> List.sort (fun a b -> Int.compare b.pr_id a.pr_id)
       |> List.exists (fun r ->
              absorb (guard t ~lvl (fun () -> Component.get r.pr_comp key)))
       || from (lvl + 1))
  in
  absorb (Memtable.get t.mem key) || from 0

let get t key = Lsm_shell.get t.sh (sources t key)

let read_modify_write t key f =
  Lsm_shell.read_modify_write t.sh ~write:(write t) (sources t key) key f

let insert_if_absent t key value =
  Lsm_shell.insert_if_absent t.sh ~write:(write t) (sources t key) key value

(* {1 Scans} *)

(* One level's scan sources, freshest first. Runs whose key ranges are
   pairwise disjoint (judged from their min/max keys) chain into a
   single source that skips runs ending before [from] and positions
   only the first: a short scan seeks once per such level. Overlapping
   runs (level 0, tiers) each get a source, newest id first. *)
let level_sources t ~lvl ~from =
  let by_min =
    List.sort
      (fun a b -> String.compare (run_min_key a) (run_min_key b))
      t.levels.(lvl)
  in
  let rec disjoint = function
    | a :: (b :: _ as rest) ->
        String.compare (run_max_key a) (run_min_key b) < 0 && disjoint rest
    | [ _ ] | [] -> true
  in
  match by_min with
  | [] -> []
  | _ when disjoint by_min ->
      [
        chain_pull t ~lvl ~from:(Some from)
          (List.filter_map
             (fun r ->
               if String.compare (run_max_key r) from >= 0 then Some r.pr_comp
               else None)
             by_min);
      ]
  | _ ->
      List.map
        (fun r -> comp_pull t ~lvl ~from:(Some from) r.pr_comp)
        (List.sort (fun a b -> Int.compare b.pr_id a.pr_id) by_min)

(* Freshest first: the memtable shadows every run, then levels top down
   (the order [sources] uses). *)
let scan t start n =
  Lsm_shell.scan t.sh
    (fun () ->
      Memtable.pull_from t.mem ~from:start
      :: List.concat_map
           (fun lvl -> level_sources t ~lvl ~from:start)
           (List.init t.pc.pt_max_levels Fun.id))
    n

(* {1 Maintenance} *)

let maintenance t =
  flush t;
  finish_active t;
  let fuel = ref 0 in
  let rec settle () =
    incr fuel;
    if !fuel > 100_000 then failwith "policy_tree: maintenance stuck";
    match t.policy.Compaction_policy.p_pick (view t) with
    | Some job ->
        run_job t job;
        settle ()
    | None -> ()
  in
  settle ()

(* {1 Crash and recovery} *)

let crash_and_recover ?(verify = false) t =
  let mid_compaction = t.active <> None in
  (* Roll back everything uncommitted while the allocator is still
     coherent: the in-flight compaction's builder and sealed outputs,
     a mid-flush builder, and any installed-but-uncommitted runs (a
     crash point inside the root write itself). The durable manifest is
     the authority on what must survive. *)
  (match t.active with
  | Some ac ->
      (match ac.ac_builder with
      | Some b -> Sstable.Builder.abandon b
      | None -> ());
      List.iter (fun r -> Component.free r.pr_comp) ac.ac_outputs
  | None -> ());
  (match t.flush_builder with
  | Some b -> Sstable.Builder.abandon b
  | None -> ());
  let durable = durable_ids t in
  Array.iter
    (List.iter (fun r ->
         if not (List.mem r.pr_id durable) then Component.free r.pr_comp))
    t.levels;
  Pagestore.Store.crash t.store;
  let policy =
    match Compaction_policy.of_name t.policy.Compaction_policy.p_name with
    | Some p -> p
    | None -> t.policy
  in
  let fresh = create ~config:t.config ~pconfig:t.pc ~policy t.store in
  fresh.es.recoveries <- t.es.recoveries + 1;
  fresh.es.recoveries_mid_compaction <-
    (t.es.recoveries_mid_compaction + if mid_compaction then 1 else 0);
  (match read_manifest t with
  | None -> ()
  | Some (next_id, floor, runs) ->
      fresh.next_id <- next_id;
      fresh.floor_lsn <- floor;
      (* Every flushed record is truncated from the log, so no run is
         ever covered by it: rot quarantines, it never drops a run. *)
      List.iter
        (fun (lvl, id, blob) ->
          if lvl >= fresh.pc.pt_max_levels then
            failwith "policy_tree: manifest level out of range";
          Option.iter
            (fun comp ->
              fresh.levels.(lvl) <- { pr_id = id; pr_comp = comp } :: fresh.levels.(lvl))
            (Lsm_shell.mount fresh.sh ~level:(level_name lvl) ~verify
               ~covered:(fun _ -> false) blob))
        runs;
      Array.iteri
        (fun lvl runs -> fresh.levels.(lvl) <- level_order lvl runs)
        fresh.levels);
  (* Replay the log into the memtable. Every record with lsn < floor is
     durably folded into a committed level-0 run (flushes are atomic),
     so the floor filter alone prevents double-apply — crucially for
     deltas, which are not idempotent. *)
  Lsm_shell.replay fresh.sh ~from_lsn:fresh.floor_lsn (fun lsn ops ->
      if lsn >= fresh.floor_lsn then
        List.iter (fun (key, entry) -> Memtable.write fresh.mem ~lsn key entry) ops);
  fresh

(* {1 Scrubbing} *)

let live_runs t =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun lvl runs -> List.map (fun r -> (level_name lvl, r.pr_comp)) runs)
          t.levels))

let scrub t = Lsm_shell.scrub t.sh (live_runs t)

let component_footers t =
  List.map (fun (level, c) -> (level, Sstable.Reader.footer c.Component.sst)) (live_runs t)

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
      counter reg "ptree.hard_stalls" ~help:"level-0 stop-threshold drains"
        (fun () -> es.hard_stalls);
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
          Array.fold_left (fun a l -> a + List.length l) 0 t.levels);
      Obs.Metrics.gauge reg "ptree.stall_merge1_us"
        ~help:"pacing time spent flushing, µs" (fun () -> s.stall_merge1_us);
      Obs.Metrics.gauge reg "ptree.stall_merge2_us"
        ~help:"pacing time spent compacting, µs" (fun () -> s.stall_merge2_us);
      Obs.Metrics.gauge reg "ptree.stall_hard_us"
        ~help:"hard-drain time, µs" (fun () -> s.stall_hard_us);
      Obs.Metrics.gauge reg "ptree.c0_fill" ~help:"memtable fill fraction"
        (fun () ->
          float_of_int (Memtable.bytes t.mem)
          /. float_of_int (Config.c0_capacity t.config));
      Pagestore.Store.register_metrics reg t.store;
      t.metrics <- Some reg;
      reg

(* {1 Engine adapter} *)

let engine ?name t =
  let name =
    match name with
    | Some n -> n
    | None -> "policy-" ^ t.policy.Compaction_policy.p_name
  in
  {
    Kv.Kv_intf.name;
    disk = disk t;
    get = (fun k -> get t k);
    put = (fun k v -> put t k v);
    delete = (fun k -> delete t k);
    apply_delta = (fun k d -> apply_delta t k d);
    read_modify_write = (fun k f -> read_modify_write t k f);
    insert_if_absent = (fun k v -> insert_if_absent t k v);
    scan = (fun start n -> scan t start n);
    maintenance = (fun () -> maintenance t);
  }
