(** The bLSM tree (§4, Figure 1).

    Three levels: C0 (a {!Memtable}), C1 and C2 ({!Component}s, Bloom
    filtered), plus C1' while a C1:C2 merge is in flight. Writes are
    logical-logged and buffered in C0; two incremental merge processes move
    data down the tree; a level scheduler paces them against application
    progress so that writes see bounded backpressure instead of unbounded
    pauses.

    All merge work is performed synchronously inside the write path, in
    scheduler-chosen quanta: this is the simulation counterpart of merge
    threads sharing the disk with the application, and it makes every
    stall visible as write latency (see DESIGN.md §1). *)

(** Detected damage that could not be masked: a checksum mismatch in the
    named level that recovery could neither rebuild from the log nor
    readers route around. "No silent garbage" — the failure surfaces as
    this typed exception, never as a wrong answer. *)
exception Corruption of { level : string; what : string; page_or_lsn : int }

type stats = {
  mutable puts : int;
  mutable gets : int;
  mutable deletes : int;
  mutable deltas : int;
  mutable scans : int;
  mutable rmws : int;
  mutable checked_inserts : int;
  mutable checked_insert_seekfree : int;
      (** insert-if-not-exists resolved purely by Bloom filters *)
  mutable merge1_completions : int;
  mutable merge2_completions : int;
  mutable promotions : int;
  mutable hard_stalls : int;  (** writes that hit the C0 hard limit *)
  mutable user_bytes_written : int;
  mutable corruptions_detected : int;
      (** checksum mismatches seen (reads, recovery, scrubs) *)
  mutable component_rebuilds : int;
      (** corrupt components dropped and rebuilt from WAL replay *)
  mutable quarantined_components : int;
      (** corrupt components mounted read-around at recovery *)
  mutable scrubs : int;
  mutable bloom_negative : int;
      (** lookups a component's Bloom filter answered for free, summed
          over retired components (live components add their own) *)
  mutable bloom_false_positive : int;
      (** filter said maybe, the component read said no — the wasted
          I/O the filter exists to avoid; same retirement accounting *)
  stall_us : Repro_util.Histogram.t;
      (** synchronous merge time charged to each write *)
  (* Cumulative stall attribution (simulated µs): where the pacing time
     recorded in [stall_us] actually went. merge1 + merge2 + hard tile
     the histogram's total within float rounding. WAL and recovery time
     are charged to writes / recovery outside the pacing window. *)
  mutable stall_merge1_us : float;
  mutable stall_merge2_us : float;
  mutable stall_hard_us : float;
  mutable wal_us : float;  (** WAL append/group-commit time, all writes *)
  mutable recovery_us : float;  (** replay + component-rebuild time *)
}

(** Per-operation stall attribution: how the last write's pacing time
    ([total_us], the sample added to [stall_us]) divides across causes.
    [merge1_us + merge2_us + hard_us = total_us] within float rounding;
    [wal_us] is the WAL append time, charged outside the pacing window. *)
type stall_breakdown = {
  sb_merge1_us : float;
  sb_merge2_us : float;
  sb_hard_us : float;
  sb_wal_us : float;
  sb_total_us : float;
}

(* Mutable scratch behind {!stall_breakdown}, reset per write. *)
type stall_scratch = {
  mutable sc_merge1_us : float;
  mutable sc_merge2_us : float;
  mutable sc_hard_us : float;
  mutable sc_wal_us : float;
  mutable sc_total_us : float;
}

type t = {
  config : Config.t;
  store : Pagestore.Store.t;
  root_slot : string;  (** journal slot / WAL-client id on shared stores *)
  mutable c0 : Memtable.t;
  mutable frozen : Memtable.t option;  (** C0' (gear scheduler only) *)
  mutable c1 : Component.t option;
  mutable c1_prime : Component.t option;
  mutable c2 : Component.t option;
  mutable merge1 : Merge_process.c0_merge option;
  mutable merge2 : Merge_process.c12 option;
  mutable timestamp : int;
  stats : stats;
  scratch : stall_scratch;
  mutable in_hard_stall : bool;
      (** inside {!force_space} / the naive drain: merge time is a
          hard-stall wait, whichever merge performs it *)
  mutable write_fenced : bool;
      (** writes raise {!Write_fenced}; replication raises the fence on
          a primary while a snapshot cursor copy is in flight *)
  mutable metrics_cache : Obs.Metrics.t option;
  mutable stall_observer : (stall_breakdown -> unit) option;
      (** invoked after every pacing decision with the finalized
          attribution — stall-episode detectors hook in here *)
}

exception Write_fenced

let make_stats () =
  {
    puts = 0;
    gets = 0;
    deletes = 0;
    deltas = 0;
    scans = 0;
    rmws = 0;
    checked_inserts = 0;
    checked_insert_seekfree = 0;
    merge1_completions = 0;
    merge2_completions = 0;
    promotions = 0;
    hard_stalls = 0;
    user_bytes_written = 0;
    corruptions_detected = 0;
    component_rebuilds = 0;
    quarantined_components = 0;
    scrubs = 0;
    bloom_negative = 0;
    bloom_false_positive = 0;
    stall_us = Repro_util.Histogram.create ();
    stall_merge1_us = 0.0;
    stall_merge2_us = 0.0;
    stall_hard_us = 0.0;
    wal_us = 0.0;
    recovery_us = 0.0;
  }

let create ?(config = Config.default) ?(root_slot = "") store =
  (* hold the shared log from this point: records this tree buffers in
     C0 may not be truncated away by co-hosted trees' merges *)
  Pagestore.Wal.register_client (Pagestore.Store.wal store) ~client:root_slot;
  {
    config;
    store;
    root_slot;
    c0 = Memtable.create ~seed:config.Config.seed ~resolver:config.Config.resolver ();
    frozen = None;
    c1 = None;
    c1_prime = None;
    c2 = None;
    merge1 = None;
    merge2 = None;
    timestamp = 0;
    stats = make_stats ();
    scratch =
      { sc_merge1_us = 0.0; sc_merge2_us = 0.0; sc_hard_us = 0.0;
        sc_wal_us = 0.0; sc_total_us = 0.0 };
    in_hard_stall = false;
    write_fenced = false;
    metrics_cache = None;
    stall_observer = None;
  }

let stats t = t.stats
let set_write_fence t fenced = t.write_fenced <- fenced

let last_stall t =
  {
    sb_merge1_us = t.scratch.sc_merge1_us;
    sb_merge2_us = t.scratch.sc_merge2_us;
    sb_hard_us = t.scratch.sc_hard_us;
    sb_wal_us = t.scratch.sc_wal_us;
    sb_total_us = t.scratch.sc_total_us;
  }

let on_stall t f = t.stall_observer <- Some f
let store t = t.store
let disk t = Pagestore.Store.disk t.store
let config t = t.config

(** {1 Sizing} *)

let component_bytes = function Some c -> Component.data_bytes c | None -> 0

let disk_data_bytes t =
  component_bytes t.c1 + component_bytes t.c1_prime + component_bytes t.c2

(** Effective size ratio R: fixed, or the 3-level optimum
    R = sqrt(|data| / |C0|) (§2.3.1), floored at 2. *)
let effective_r t =
  match t.config.Config.size_ratio with
  | Config.Fixed r -> r
  | Config.Adaptive ->
      let data = float_of_int (max 1 (disk_data_bytes t)) in
      let ram = float_of_int (Config.c0_capacity t.config) in
      Float.max 2.0 (sqrt (data /. ram))

let target_c1_bytes t =
  int_of_float (effective_r t *. float_of_int (Config.c0_capacity t.config))

let c0_fill t =
  float_of_int (Memtable.bytes t.c0)
  /. float_of_int (Config.c0_capacity t.config)

(** {1 Root metadata (commit record)} *)

let encode_root t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "BLSM";
  Repro_util.Varint.write buf t.timestamp;
  let opt = function
    | None -> Repro_util.Varint.write buf 0
    | Some c ->
        let blob = Component.meta_blob c in
        Repro_util.Varint.write buf (String.length blob);
        Buffer.add_string buf blob
  in
  opt t.c1;
  opt t.c1_prime;
  opt t.c2;
  Buffer.contents buf

let commit_root t =
  Pagestore.Store.commit_root ~slot:t.root_slot t.store (encode_root t)

(* Convert a low-level checksum failure into the tree-level typed error,
   naming the component (or site) it came from. Readers verify before
   decoding, so rot either surfaces here or is masked — never returned as
   data. {!Simdisk.Faults.Crash_point} passes through untouched. *)
let guard t ~level f =
  try f ()
  with Sstable.Sst_format.Corrupt { what; page } ->
    t.stats.corruptions_detected <- t.stats.corruptions_detected + 1;
    raise (Corruption { level; what; page_or_lsn = page })

(** {1 Write-ahead log records}

    One log record carries an atomic batch of operations (usually a
    single one): replay applies a record's operations together, which is
    what makes {!write_batch} all-or-nothing across crashes — the ACID
    building block §4.4.2 attributes to the logical log. *)

let encode_ops ops =
  let buf = Buffer.create 64 in
  Repro_util.Varint.write buf (List.length ops);
  List.iter
    (fun (key, entry) ->
      Repro_util.Varint.write buf (String.length key);
      Buffer.add_string buf key;
      Kv.Entry.encode buf entry)
    ops;
  Buffer.contents buf

let decode_ops s =
  let count, pos = Repro_util.Varint.read s 0 in
  let pos = ref pos in
  let rec go n acc =
    if n = 0 then List.rev acc
    else begin
      let klen, p = Repro_util.Varint.read s !pos in
      let key = String.sub s p klen in
      let entry, p = Kv.Entry.decode s (p + klen) in
      pos := p;
      go (n - 1) ((key, entry) :: acc)
    end
  in
  go count []

(** {1 Merge lifecycle} *)

let open_component t ~bloom footer ~index =
  let sst = Sstable.Reader.open_in_ram t.store footer ~index in
  Component.of_sst ?bloom sst

(* Start a C1':C2 merge if C1 has reached its target size and no other
   bottom merge is active. *)
let try_promote t =
  match (t.c1, t.merge2) with
  | Some c1, None when Component.data_bytes c1 >= target_c1_bytes t ->
      t.c1_prime <- Some c1;
      t.c1 <- None;
      t.merge2 <-
        Some
          (guard t ~level:"C2" (fun () ->
               Merge_process.create_c12 ~config:t.config ~store:t.store
                 ~c1_prime:c1 ~c2:t.c2));
      t.stats.promotions <- t.stats.promotions + 1;
      commit_root t;
      true
  | _ -> false

(* Can a new C0:C1 run begin? Blocked exactly when C1 is full and the
   C1':C2 merge has not yet freed the slot (Figure 4's danger state). *)
let merge1_blocked t =
  match t.c1 with
  | Some c1 ->
      Component.data_bytes c1 >= target_c1_bytes t && t.c1_prime <> None
  | None -> false

let source_has_data t =
  if t.config.Config.snowshovel then not (Memtable.is_empty t.c0)
  else
    match t.frozen with
    | Some f -> not (Memtable.is_empty f)
    | None -> not (Memtable.is_empty t.c0) (* a swap would have work to do *)

(* Begin a C0:C1 run. With snowshoveling the live C0 is the source; the
   gear scheduler instead freezes the current C0 into C0' and opens a
   fresh C0 (halving the write pool, §4.2.1). *)
let start_merge1 t =
  assert (t.merge1 = None);
  ignore (try_promote t);
  if merge1_blocked t then false
  else begin
    let source =
      if t.config.Config.snowshovel then
        Merge_process.Live
          { mem = t.c0; shadow = Memtable.Skiplist.create ~seed:t.config.Config.seed () }
      else begin
        (match t.frozen with
        | Some _ -> ()
        | None ->
            t.frozen <- Some t.c0;
            t.c0 <-
              Memtable.create ~seed:t.config.Config.seed
                ~resolver:t.config.Config.resolver ());
        Merge_process.Frozen (Option.get t.frozen)
      end
    in
    let c1_count = match t.c1 with Some c -> Component.record_count c | None -> 0 in
    let expected_items = max 1 (Memtable.count t.c0 + c1_count + 128) in
    let run_cap =
      (* Only live (snowshovel) runs may stop early: a frozen C0' must be
         fully drained because it is discarded at completion. *)
      if not t.config.Config.snowshovel then max_int
      else
        max
          (int_of_float
             (t.config.Config.run_cap_factor *. float_of_int (target_c1_bytes t)))
          (component_bytes t.c1 + 1)
    in
    t.merge1 <-
      Some
        (guard t ~level:"C1" (fun () ->
             Merge_process.create_c0_merge ~config:t.config ~store:t.store
               ~source ~c1:t.c1 ~run_cap ~expected_items));
    true
  end

(* Retire a superseded component: fold its Bloom-filter outcome counters
   into the tree's stats (live components report their own; the metrics
   registry sums both) before releasing its extents. *)
let retire_component t (c : Component.t) =
  t.stats.bloom_negative <- t.stats.bloom_negative + c.Component.bloom_negative;
  t.stats.bloom_false_positive <-
    t.stats.bloom_false_positive + c.Component.bloom_false_positive;
  Component.free c

let complete_merge1 t m =
  t.timestamp <- t.timestamp + 1;
  let footer, index, bloom = Merge_process.finish_c0 m ~timestamp:t.timestamp in
  let fresh = open_component t ~bloom footer ~index in
  let old_c1 = Merge_process.c0_old_c1 m in
  t.c1 <- Some fresh;
  t.merge1 <- None;
  (match Merge_process.c0_source_kind m with
  | `Live -> () (* shadow entries are now durable in the new C1 *)
  | `Frozen -> t.frozen <- None (* C0' contents are useless, discard *));
  commit_root t;
  (match old_c1 with Some c -> retire_component t c | None -> ());
  (* Log truncation: everything older than the oldest entry still live in
     C0 is covered by the freshly committed component. Snowshoveling keeps
     old entries live in C0 longer, delaying this point (§4.4.2). *)
  let wal = Pagestore.Store.wal t.store in
  let floor =
    match Memtable.oldest_lsn t.c0 with
    | Some lsn -> lsn
    | None -> Pagestore.Wal.next_lsn wal
  in
  (* On a shared store (partitioned trees), only records below every
     tree's floor may be dropped. *)
  Pagestore.Wal.propose_truncate wal ~client:t.root_slot ~upto_lsn:floor;
  t.stats.merge1_completions <- t.stats.merge1_completions + 1;
  ignore (try_promote t)

let complete_merge2 t m =
  t.timestamp <- t.timestamp + 1;
  let footer, index, bloom = Merge_process.finish_c12 m ~timestamp:t.timestamp in
  let fresh = open_component t ~bloom footer ~index in
  let old_c1p, old_c2 = Merge_process.c12_inputs m in
  t.c2 <- Some fresh;
  t.c1_prime <- None;
  t.merge2 <- None;
  commit_root t;
  retire_component t old_c1p;
  (match old_c2 with Some c -> retire_component t c | None -> ());
  t.stats.merge2_completions <- t.stats.merge2_completions + 1;
  ignore (try_promote t)

(* Advance merge1 by [quota] input bytes; starts a run when appropriate. *)
let do_step_merge1 t ~quota =
  match t.merge1 with
  | Some m -> (
      match guard t ~level:"C1" (fun () -> Merge_process.step_c0 m ~quota) with
      | `More -> `More
      | `Done ->
          complete_merge1 t m;
          `Completed)
  | None ->
      if source_has_data t && (not (merge1_blocked t)) && start_merge1 t then
        `Started
      else `Idle

let do_step_merge2 t ~quota =
  match t.merge2 with
  | Some m -> (
      match guard t ~level:"C2" (fun () -> Merge_process.step_c12 m ~quota) with
      | `More -> `More
      | `Done ->
          complete_merge2 t m;
          `Completed)
  | None -> `Idle

(* Stall attribution: every quantum of synchronous merge work is timed on
   the simulated clock and charged to a cause. The clock only advances
   inside disk operations, and during pacing those all happen inside
   these two wrappers — so the per-cause sums tile the pacing window
   exactly (within float-addition rounding). Work done while
   [in_hard_stall] is a hard-stall *wait* regardless of which merge
   performs it: the write is blocked on space, not electively pacing. *)
let step_merge1 t ~quota =
  let t0 = Pagestore.Store.now_us t.store in
  let r = do_step_merge1 t ~quota in
  let dt = Pagestore.Store.now_us t.store -. t0 in
  let sc = t.scratch in
  if t.in_hard_stall then sc.sc_hard_us <- sc.sc_hard_us +. dt
  else sc.sc_merge1_us <- sc.sc_merge1_us +. dt;
  r

let step_merge2 t ~quota =
  let t0 = Pagestore.Store.now_us t.store in
  let r = do_step_merge2 t ~quota in
  let dt = Pagestore.Store.now_us t.store -. t0 in
  let sc = t.scratch in
  if t.in_hard_stall then sc.sc_hard_us <- sc.sc_hard_us +. dt
  else sc.sc_merge2_us <- sc.sc_merge2_us +. dt;
  r

(** {1 Progress estimators} *)

let merge1_inprogress t =
  match t.merge1 with Some m -> Merge_process.c0_inprogress m | None -> 0.0

let merge2_inprogress t =
  match t.merge2 with Some m -> Merge_process.c12_inprogress m | None -> 1.0

let outprogress1 t =
  Scheduler.outprogress ~inprogress:(merge1_inprogress t)
    ~ci_bytes:(component_bytes t.c1)
    ~ram_bytes:(Config.c0_capacity t.config)
    ~r:(effective_r t)

let merge1_remaining_bytes t =
  match t.merge1 with
  | Some m ->
      let p = Merge_process.c0_progress m in
      max 0 (p.Merge_process.bytes_total - p.Merge_process.bytes_read)
  | None -> Memtable.bytes t.c0 + component_bytes t.c1

let merge2_remaining_bytes t =
  match t.merge2 with
  | Some m ->
      let p = Merge_process.c12_progress m in
      max 0 (p.Merge_process.bytes_total - p.Merge_process.bytes_read)
  | None -> 0

(** {1 Scheduling: pacing merge work into the write path} *)

let chunk = 64 * 1024 (* stepping granularity, bytes of merge input *)

(* Couple the bottom merge to C1's overall progress, gear-style: merge2
   must stay at least as far along as outprogress1. *)
let pace_merge2 t ~cap =
  let spent = ref 0 in
  let continue = ref true in
  while
    !continue && !spent < cap
    && t.merge2 <> None
    && merge2_inprogress t < outprogress1 t
  do
    match step_merge2 t ~quota:chunk with
    | `More -> spent := !spent + chunk
    | `Completed | `Idle | `Started -> continue := false
  done

(* Hard limit: C0 is at capacity and the write cannot be admitted. Force
   merges forward until space frees; this is the unbounded-latency path
   that good pacing is supposed to avoid (Table 1, last row). *)
let force_space t =
  t.stats.hard_stalls <- t.stats.hard_stalls + 1;
  let cap = Config.c0_capacity t.config in
  let guard = ref 0 in
  let was_hard = t.in_hard_stall in
  t.in_hard_stall <- true;
  Fun.protect
    ~finally:(fun () -> t.in_hard_stall <- was_hard)
    (fun () ->
      while Memtable.bytes t.c0 >= cap do
        incr guard;
        if !guard > 1_000_000 then failwith "bLSM: stall loop failed to free C0";
        match step_merge1 t ~quota:(4 * chunk) with
        | `More | `Completed | `Started -> ()
        | `Idle ->
            (* merge1 blocked (C1 full, C1':C2 behind) or sourceless: push the
               bottom merge *)
            (match step_merge2 t ~quota:(4 * chunk) with
            | `More | `Completed -> ()
            | `Idle | `Started ->
                (* nothing to do anywhere: C0 must have been drained *)
                if Memtable.bytes t.c0 >= cap then
                  failwith "bLSM: C0 full but no merge can run")
      done)

let pace_naive t ~write_bytes:_ =
  (* The base LSM algorithm (§2.3.1): nothing happens until C0 is full,
     then the application blocks while the entire C0:C1 merge (and any
     C1':C2 merge it is waiting on) completes — the unbounded write pause
     every level scheduler exists to avoid. *)
  if Memtable.bytes t.c0 >= Config.c0_capacity t.config then begin
    t.stats.hard_stalls <- t.stats.hard_stalls + 1;
    let guard = ref 0 in
    let drained () =
      Memtable.is_empty t.c0
      && (match t.frozen with Some f -> Memtable.is_empty f | None -> true)
      && t.merge1 = None
    in
    let was_hard = t.in_hard_stall in
    t.in_hard_stall <- true;
    Fun.protect
      ~finally:(fun () -> t.in_hard_stall <- was_hard)
      (fun () ->
        while not (drained ()) do
          incr guard;
          if !guard > 1_000_000 then failwith "bLSM: naive drain stuck";
          match step_merge1 t ~quota:(16 * chunk) with
          | `More | `Completed | `Started -> ()
          | `Idle -> (
              match step_merge2 t ~quota:(16 * chunk) with
              | `More | `Completed -> ()
              | `Idle | `Started ->
                  if not (drained ()) then failwith "bLSM: naive drain wedged")
        done)
  end

let pace_gear t ~write_bytes:_ =
  let cap = t.config.Config.max_quota_per_write in
  let partition = Config.c0_capacity t.config in
  let f0 = float_of_int (Memtable.bytes t.c0) /. float_of_int partition in
  (* keep C0' merge at least as far along as C0's fill *)
  let spent = ref 0 in
  let continue = ref true in
  while !continue && !spent < cap && t.merge1 <> None && merge1_inprogress t < f0 do
    match step_merge1 t ~quota:chunk with
    | `More -> spent := !spent + chunk
    | `Completed | `Idle | `Started -> continue := false
  done;
  pace_merge2 t ~cap;
  if Memtable.bytes t.c0 >= partition then begin
    (* C0 partition full: C0' must hand off now; finish it, swap, restart *)
    let guard = ref 0 in
    while t.merge1 <> None do
      incr guard;
      if !guard > 1_000_000 then failwith "bLSM: gear handoff stuck";
      match step_merge1 t ~quota:(4 * chunk) with
      | `More | `Completed | `Started -> ()
      | `Idle -> ()
    done;
    (match step_merge1 t ~quota:0 with
    | `Started | `Idle | `More | `Completed -> ());
    if Memtable.bytes t.c0 >= partition && t.merge1 = None then force_space t
  end

let pace_spring t ~write_bytes =
  let budget = Config.c0_capacity t.config in
  let fill = c0_fill t in
  let low = t.config.Config.low_watermark in
  let high = t.config.Config.high_watermark in
  let cap = t.config.Config.max_quota_per_write in
  (* the spring: below the low watermark merges rest; inside the band a
     deadline controller paces merge1 to finish before C0 hits high *)
  if fill > low then begin
    let quota =
      Scheduler.spring_quota ~write_bytes ~fill ~low ~high
        ~remaining_bytes:(merge1_remaining_bytes t) ~c0_capacity:budget
      |> min cap
    in
    let spent = ref 0 in
    let continue = ref true in
    while !continue && !spent < quota do
      match step_merge1 t ~quota:(min chunk (quota - !spent)) with
      | `More -> spent := !spent + chunk
      | `Completed | `Started -> ()
      | `Idle -> continue := false
    done
  end;
  pace_merge2 t ~cap;
  (* hard deadline for the bottom merge: it must complete before C0 and
     C1 are simultaneously full (Figure 4's danger state), or merge1 will
     block and writes will stall unboundedly. Same controller shape as
     the C0 band, with the remaining C0+C1 headroom as the deadline. *)
  (match t.merge2 with
  | None -> ()
  | Some _ ->
      let remaining2 = merge2_remaining_bytes t in
      let headroom =
        max write_bytes
          (target_c1_bytes t + budget
          - (component_bytes t.c1 + Memtable.bytes t.c0))
      in
      let quota2 =
        min cap (write_bytes * remaining2 / max write_bytes headroom)
      in
      let spent = ref 0 in
      let continue = ref true in
      while !continue && !spent < quota2 do
        match step_merge2 t ~quota:(min chunk (quota2 - !spent)) with
        | `More -> spent := !spent + chunk
        | `Completed | `Idle | `Started -> continue := false
      done);
  if Memtable.bytes t.c0 >= budget then force_space t

let scheduler_name = function
  | Config.Naive -> "naive"
  | Config.Gear -> "gear"
  | Config.Spring -> "spring"

let before_write t ~write_bytes =
  let sc = t.scratch in
  sc.sc_merge1_us <- 0.0;
  sc.sc_merge2_us <- 0.0;
  sc.sc_hard_us <- 0.0;
  sc.sc_wal_us <- 0.0;
  sc.sc_total_us <- 0.0;
  let tr = Pagestore.Store.trace t.store in
  if Obs.Trace.enabled tr then
    (* one event per pacing decision, carrying the §4.1 inputs the
       scheduler is about to act on *)
    Obs.Trace.instant tr ~cat:"sched" ~name:"pace"
      ~args:
        [ ("scheduler", Obs.Trace.S (scheduler_name t.config.Config.scheduler));
          ("c0_fill", Obs.Trace.F (c0_fill t));
          ("inprogress1", Obs.Trace.F (merge1_inprogress t));
          ("inprogress2", Obs.Trace.F (merge2_inprogress t));
          ("outprogress1", Obs.Trace.F (outprogress1 t));
          ("write_bytes", Obs.Trace.I write_bytes) ];
  let t0 = Pagestore.Store.now_us t.store in
  (match t.config.Config.scheduler with
  | Config.Naive -> pace_naive t ~write_bytes
  | Config.Gear -> pace_gear t ~write_bytes
  | Config.Spring -> pace_spring t ~write_bytes);
  let dt = Pagestore.Store.now_us t.store -. t0 in
  sc.sc_total_us <- dt;
  t.stats.stall_merge1_us <- t.stats.stall_merge1_us +. sc.sc_merge1_us;
  t.stats.stall_merge2_us <- t.stats.stall_merge2_us +. sc.sc_merge2_us;
  t.stats.stall_hard_us <- t.stats.stall_hard_us +. sc.sc_hard_us;
  Repro_util.Histogram.add t.stats.stall_us (int_of_float dt);
  match t.stall_observer with
  | None -> ()
  | Some f ->
      f
        {
          sb_merge1_us = sc.sc_merge1_us;
          sb_merge2_us = sc.sc_merge2_us;
          sb_hard_us = sc.sc_hard_us;
          sb_wal_us = 0.0;
          sb_total_us = sc.sc_total_us;
        }

(** {1 Write path} *)

(* Emit the write's span: wall-to-wall duration plus the stall
   attribution the breakdown scratch accumulated during this write. *)
let emit_write_span t tr ~op ~ts =
  let sc = t.scratch in
  Obs.Trace.complete tr ~cat:"tree" ~name:op ~ts_us:ts
    ~dur_us:(Obs.Trace.now_us tr -. ts)
    ~args:
      [ ("stall_us", Obs.Trace.F sc.sc_total_us);
        ("merge1_us", Obs.Trace.F sc.sc_merge1_us);
        ("merge2_us", Obs.Trace.F sc.sc_merge2_us);
        ("hard_us", Obs.Trace.F sc.sc_hard_us);
        ("wal_us", Obs.Trace.F sc.sc_wal_us);
        ("c0_fill", Obs.Trace.F (c0_fill t)) ]

let write_entry ?(op = "put") t key entry =
  if t.write_fenced then raise Write_fenced;
  let tr = Pagestore.Store.trace t.store in
  let traced = Obs.Trace.enabled tr in
  let ts = if traced then Obs.Trace.now_us tr else 0.0 in
  let bytes = String.length key + Kv.Entry.payload_bytes entry in
  before_write t ~write_bytes:(max 64 bytes);
  let t_wal = Pagestore.Store.now_us t.store in
  let lsn =
    Pagestore.Wal.append (Pagestore.Store.wal t.store) (encode_ops [ (key, entry) ])
  in
  let wal_dt = Pagestore.Store.now_us t.store -. t_wal in
  t.scratch.sc_wal_us <- t.scratch.sc_wal_us +. wal_dt;
  t.stats.wal_us <- t.stats.wal_us +. wal_dt;
  Memtable.write t.c0 ~lsn key entry;
  t.stats.user_bytes_written <- t.stats.user_bytes_written + bytes;
  if traced then emit_write_span t tr ~op ~ts

(** [write_batch t ops] applies [ops] atomically: one log record covers
    the whole batch, so after a crash either every operation is recovered
    or none is. Operations apply in list order (later entries for the
    same key win). *)
let write_batch t ops =
  if t.write_fenced then raise Write_fenced;
  if ops <> [] then begin
    let tr = Pagestore.Store.trace t.store in
    let traced = Obs.Trace.enabled tr in
    let ts = if traced then Obs.Trace.now_us tr else 0.0 in
    let bytes =
      List.fold_left
        (fun a (k, e) -> a + String.length k + Kv.Entry.payload_bytes e)
        0 ops
    in
    before_write t ~write_bytes:(max 64 bytes);
    let t_wal = Pagestore.Store.now_us t.store in
    let lsn = Pagestore.Wal.append (Pagestore.Store.wal t.store) (encode_ops ops) in
    let wal_dt = Pagestore.Store.now_us t.store -. t_wal in
    t.scratch.sc_wal_us <- t.scratch.sc_wal_us +. wal_dt;
    t.stats.wal_us <- t.stats.wal_us +. wal_dt;
    List.iter (fun (key, entry) -> Memtable.write t.c0 ~lsn key entry) ops;
    t.stats.puts <- t.stats.puts + List.length ops;
    t.stats.user_bytes_written <- t.stats.user_bytes_written + bytes;
    if traced then emit_write_span t tr ~op:"batch" ~ts
  end

(** [absorb_batch t ~lsn ops] folds into C0 a batch slice that was
    already durably logged elsewhere — the per-partition half of
    {!Partitioned.write_batch}, where one shared-WAL record covers
    several trees. The caller is responsible for pacing
    ({!before_write}) and for the WAL append; recovery replays the
    shared record into each tree through its own [should_replay]
    filter, so atomicity across the trees rides the single record. *)
let absorb_batch t ~lsn ops =
  if t.write_fenced then raise Write_fenced;
  if ops <> [] then begin
    let bytes =
      List.fold_left
        (fun a (k, e) -> a + String.length k + Kv.Entry.payload_bytes e)
        0 ops
    in
    List.iter (fun (key, entry) -> Memtable.write t.c0 ~lsn key entry) ops;
    t.stats.puts <- t.stats.puts + List.length ops;
    t.stats.user_bytes_written <- t.stats.user_bytes_written + bytes
  end

(** [put t key value]: blind write — insert or overwrite, zero seeks. *)
let put t key value =
  t.stats.puts <- t.stats.puts + 1;
  write_entry t key (Kv.Entry.Base value)

(** [delete t key]: blind tombstone write. *)
let delete t key =
  t.stats.deletes <- t.stats.deletes + 1;
  write_entry ~op:"delete" t key Kv.Entry.Tombstone

(** [apply_delta t key d]: zero-seek delta write (§2.3); the delta is
    resolved against the base record by reads and merges. *)
let apply_delta t key d =
  t.stats.deltas <- t.stats.deltas + 1;
  write_entry ~op:"delta" t key (Kv.Entry.Delta [ d ])

(** {1 Read path} *)

let shadow_lookup t key =
  match t.merge1 with
  | Some m -> (
      match Merge_process.c0_shadow m with
      | Some shadow ->
          Option.map fst (Memtable.Skiplist.find shadow key)
      | None -> None)
  | None -> None

let frozen_lookup t key =
  match t.frozen with Some f -> Memtable.get f key | None -> None

(* Visit record states newest-first. Early termination (§3.1.1) stops at
   the first base record or tombstone; the ablation visits everything and
   merges, which costs extra seeks for frequently-updated keys. *)
let lookup_entry t key =
  let early = t.config.Config.early_termination in
  let sources =
    [
      (fun () -> Memtable.get t.c0 key);
      (fun () -> shadow_lookup t key);
      (fun () -> frozen_lookup t key);
      (fun () ->
        guard t ~level:"C1" (fun () ->
            Option.bind t.c1 (fun c -> Component.get c key)));
      (fun () ->
        guard t ~level:"C1'" (fun () ->
            Option.bind t.c1_prime (fun c -> Component.get c key)));
      (fun () ->
        guard t ~level:"C2" (fun () ->
            Option.bind t.c2 (fun c -> Component.get c key)));
    ]
  in
  let rec visit acc = function
    | [] -> acc
    | src :: rest -> (
        match src () with
        | None -> visit acc rest
        | Some e ->
            let acc =
              match acc with
              | None -> Some e
              | Some newer -> Some (Kv.Entry.merge t.config.Config.resolver ~newer ~older:e)
            in
            if early then
              match acc with
              | Some (Kv.Entry.Base _ | Kv.Entry.Tombstone) -> acc
              | _ -> visit acc rest
            else visit acc rest)
  in
  visit None sources

(* Newest LSN affecting [key]'s visible state: C0/shadow slots track it
   directly; durable components store it per record. 0 = never written
   (within retained history). OCC validation compares these. *)
let read_version t key =
  let c0_v =
    match Memtable.peek_geq_lsn t.c0 key with
    | Some (k, _, lsn) when String.equal k key -> Some lsn
    | _ -> None
  in
  match c0_v with
  | Some v -> v
  | None -> (
      let shadow_v =
        match t.merge1 with
        | Some m -> (
            match Merge_process.c0_shadow m with
            | Some shadow ->
                Option.map snd (Memtable.Skiplist.find shadow key)
            | None -> None)
        | None -> None
      in
      match shadow_v with
      | Some v -> v
      | None -> (
          let frozen_v =
            match t.frozen with
            | Some f -> (
                match Memtable.peek_geq_lsn f key with
                | Some (k, _, lsn) when String.equal k key -> Some lsn
                | _ -> None)
            | None -> None
          in
          match frozen_v with
          | Some v -> v
          | None ->
              let comp level c =
                Option.bind c (fun c ->
                    if not (Component.maybe_contains c key) then None
                    else
                      guard t ~level (fun () ->
                          match Sstable.Reader.get_with_lsn c.Component.sst key with
                          | Some (_, lsn) -> Some lsn
                          | None -> None))
              in
              let rec first = function
                | [] -> 0
                | (level, c) :: rest -> (
                    match comp level c with Some v -> v | None -> first rest)
              in
              first [ ("C1", t.c1); ("C1'", t.c1_prime); ("C2", t.c2) ]))

let interpret t e = Kv.Entry.value t.config.Config.resolver e

(** [get t key] point lookup: at most ~1 seek on a settled tree thanks to
    Bloom filters and early termination. *)
let get t key =
  t.stats.gets <- t.stats.gets + 1;
  let tr = Pagestore.Store.trace t.store in
  if not (Obs.Trace.enabled tr) then interpret t (lookup_entry t key)
  else begin
    let ts = Obs.Trace.now_us tr in
    let r = interpret t (lookup_entry t key) in
    Obs.Trace.complete tr ~cat:"tree" ~name:"get" ~ts_us:ts
      ~dur_us:(Obs.Trace.now_us tr -. ts)
      ~args:[ ("found", Obs.Trace.B (r <> None)) ];
    r
  end

(** [read_modify_write t key f] reads, applies [f], writes back: the
    B-Tree-equivalent primitive (1 seek vs InnoDB's 2, Table 1). *)
let read_modify_write t key f =
  t.stats.rmws <- t.stats.rmws + 1;
  let v = interpret t (lookup_entry t key) in
  write_entry ~op:"rmw" t key (Kv.Entry.Base (f v))

(** [insert_if_absent t key value] checks for the key and inserts only if
    missing. The check consults C0 and the Bloom filters; when every
    filter says "absent" the whole operation performs zero seeks (§3.1.2). *)
let insert_if_absent t key value =
  t.stats.checked_inserts <- t.stats.checked_inserts + 1;
  let disk = Pagestore.Store.disk t.store in
  let before = (Simdisk.Disk.snapshot disk).Simdisk.Disk.seeks in
  let existing = interpret t (lookup_entry t key) in
  let after = (Simdisk.Disk.snapshot disk).Simdisk.Disk.seeks in
  if after = before then
    t.stats.checked_insert_seekfree <- t.stats.checked_insert_seekfree + 1;
  match existing with
  | Some _ -> false
  | None ->
      write_entry ~op:"insert_if_absent" t key (Kv.Entry.Base value);
      true

(** {1 Scans} *)

let skiplist_pull sl ~from =
  let cursor = ref from in
  fun () ->
    match Memtable.Skiplist.succ_geq sl !cursor with
    | Some (k, (e, lsn)) ->
        cursor := k ^ "\000";
        Some (k, e, lsn)
    | None -> None

let component_pull t ~level c ~from =
  guard t ~level (fun () ->
      let it = Component.iterator ~from c in
      fun () -> guard t ~level (fun () -> Sstable.Reader.iter_next_full it))

let scan_sources t start =
  List.filteri
    (fun _ -> Option.is_some)
    [
      Some (Memtable.pull_from t.c0 ~from:start);
      (match t.merge1 with
      | Some m ->
          Option.map
            (fun s -> skiplist_pull s ~from:start)
            (Merge_process.c0_shadow m)
      | None -> None);
      Option.map (fun f -> Memtable.pull_from f ~from:start) t.frozen;
      Option.map (fun c -> component_pull t ~level:"C1" c ~from:start) t.c1;
      Option.map (fun c -> component_pull t ~level:"C1'" c ~from:start) t.c1_prime;
      Option.map (fun c -> component_pull t ~level:"C2" c ~from:start) t.c2;
    ]
  |> List.map Option.get
  |> List.mapi (fun i pull -> (i, pull))

(** A streaming range cursor over the merged tree. The cursor reflects
    the components live at creation; do not interleave writes with
    cursor pulls (single-writer discipline, as for merges). *)
type cursor = { cursor_merge : Sstable.Merge_iter.t }

(** [cursor t ?from ()] opens a cursor at the smallest key >= [from]. *)
let cursor ?(from = "") t =
  t.stats.scans <- t.stats.scans + 1;
  {
    cursor_merge =
      Sstable.Merge_iter.create ~resolver:t.config.Config.resolver
        ~drop_tombstones:true (scan_sources t from);
  }

(** [cursor_next c] yields the next live record, deltas resolved. *)
let rec cursor_next c =
  match Sstable.Merge_iter.next c.cursor_merge with
  | None -> None
  | Some (key, Kv.Entry.Base v, _) -> Some (key, v)
  | Some (_, (Kv.Entry.Delta _ | Kv.Entry.Tombstone), _) ->
      (* drop_tombstones output is Base-only; defensive *)
      cursor_next c

(** [scan t start n] returns up to [n] live records with key >= [start],
    fully resolved. Touches every component: 2-3 seeks (§3.3). *)
let scan t start n =
  let tr = Pagestore.Store.trace t.store in
  let traced = Obs.Trace.enabled tr in
  let ts = if traced then Obs.Trace.now_us tr else 0.0 in
  let c = cursor ~from:start t in
  let rec collect acc k =
    if k = 0 then List.rev acc
    else
      match cursor_next c with
      | None -> List.rev acc
      | Some row -> collect (row :: acc) (k - 1)
  in
  let rows = collect [] n in
  if traced then
    Obs.Trace.complete tr ~cat:"tree" ~name:"scan" ~ts_us:ts
      ~dur_us:(Obs.Trace.now_us tr -. ts)
      ~args:
        [ ("requested", Obs.Trace.I n);
          ("returned", Obs.Trace.I (List.length rows)) ];
  rows

(** {1 Maintenance, flush, recovery} *)

(** [maintenance t] runs active merges to completion (between experiment
    phases; never during measurement). *)
let maintenance t =
  let guard = ref 0 in
  while t.merge1 <> None || t.merge2 <> None do
    incr guard;
    if !guard > 10_000_000 then failwith "bLSM: maintenance stuck";
    (match step_merge1 t ~quota:(16 * chunk) with
    | `More | `Completed | `Started -> ()
    | `Idle -> ());
    match step_merge2 t ~quota:(16 * chunk) with
    | `More | `Completed | `Idle | `Started -> ()
  done

(** [flush t] drains C0 (and C0') entirely to disk. *)
let flush t =
  let guard = ref 0 in
  let dirty () =
    (not (Memtable.is_empty t.c0))
    || (match t.frozen with Some f -> not (Memtable.is_empty f) | None -> false)
    || t.merge1 <> None || t.merge2 <> None
  in
  while dirty () do
    incr guard;
    if !guard > 10_000_000 then failwith "bLSM: flush stuck";
    (match step_merge1 t ~quota:(16 * chunk) with
    | `More | `Completed | `Started -> ()
    | `Idle -> (
        match step_merge2 t ~quota:(16 * chunk) with
        | `More | `Completed -> ()
        | `Idle | `Started -> ()));
    ()
  done

(** [crash_and_recover t] simulates power loss and runs recovery: the
    buffer pool and all in-memory tree state vanish; the committed root is
    read back, components reopened (indexes re-read, Bloom filters rebuilt
    by scanning — they are not persisted, §4.4.3), and the logical log
    replayed into a fresh C0.

    Recovery tolerates corruption found on the way back up. A component
    whose footer, index, or (with [~verify:true], which checksums every
    page at mount) data fails verification is handled by coverage: if the
    log still holds everything folded into it ([min_lsn] has not been
    truncated away, under [Full] durability), the component is dropped and
    its contents rebuilt by the replay below — the log is the authority.
    Otherwise an openable component is quarantined (mounted; only reads
    that touch a rotted page fail, with the typed {!Corruption}), and an
    unopenable one is a typed recovery failure. Never a wrong answer. *)
let crash_and_recover ?(should_replay = fun _ -> true) ?(verify = false) t =
  let t_rec = Pagestore.Store.now_us t.store in
  (* abort in-flight merge transactions: their output regions are freed,
     exactly as Stasis would roll back an uncommitted merge *)
  (match t.merge1 with Some m -> Merge_process.abandon_c0 m | None -> ());
  (match t.merge2 with Some m -> Merge_process.abandon_c12 m | None -> ());
  Pagestore.Store.crash t.store;
  let root = Pagestore.Store.read_root ~slot:t.root_slot t.store in
  let fresh = create ~config:t.config ~root_slot:t.root_slot t.store in
  let wal = Pagestore.Store.wal t.store in
  let rebuilds = ref 0 in
  (if String.length root >= 4 && String.sub root 0 4 = "BLSM" then begin
     let ts, pos = Repro_util.Varint.read root 4 in
     fresh.timestamp <- ts;
     let pos = ref pos in
     (* Everything folded into the component is still in the log: it can
        be dropped and recovered by replay. Degraded durability may have
        lost acked-by-merge records, so only Full qualifies. *)
     let covered (f : Sstable.Sst_format.footer) =
       f.record_count = 0
       || (Pagestore.Wal.durability wal = Pagestore.Wal.Full
          && f.min_lsn > 0
          && f.min_lsn >= Pagestore.Wal.truncated_to wal)
     in
     let note () =
       fresh.stats.corruptions_detected <- fresh.stats.corruptions_detected + 1
     in
     let drop_component (f : Sstable.Sst_format.footer) =
       List.iter
         (fun (start, length) ->
           Pagestore.Store.free_region t.store
             { Pagestore.Region_allocator.start; length })
         f.extents;
       fresh.stats.component_rebuilds <- fresh.stats.component_rebuilds + 1;
       incr rebuilds;
       None
     in
     let read_opt ~level () =
       let len, p = Repro_util.Varint.read root !pos in
       if len = 0 then begin
         pos := p;
         None
       end
       else begin
         let blob = String.sub root p len in
         pos := p + len;
         let footer =
           (* The root is force-written and tiny; a garbled footer means
              the metadata itself rotted. No extents to rebuild from. *)
           match Sstable.Sst_format.decode_footer blob with
           | f -> f
           | exception Sstable.Sst_format.Corrupt { what; page } ->
               note ();
               raise (Corruption { level; what; page_or_lsn = page })
         in
         match Sstable.Reader.open_from_disk t.store footer with
         | exception Sstable.Sst_format.Corrupt { what; page } ->
             (* index blob rotted: unreadable without it *)
             note ();
             if covered footer then drop_component footer
             else raise (Corruption { level; what; page_or_lsn = page })
         | sst -> (
             let errs = if verify then Sstable.Reader.verify sst else [] in
             (* A rotted Bloom blob is derived data: build_bloom masks it
                by rebuilding from a scan, so it never justifies dropping
                or quarantining the component. Count it, ignore it. *)
             fresh.stats.corruptions_detected <-
               fresh.stats.corruptions_detected
               + List.length
                   (List.filter
                      (fun (what, _) -> what = "bloom blob checksum")
                      errs);
             let errs =
               List.filter (fun (what, _) -> what <> "bloom blob checksum") errs
             in
             match errs with
             | [] ->
                 let bloom =
                   Component.build_bloom ~kind:t.config.Config.bloom_kind
                     ~bits_per_key:t.config.Config.bloom_bits_per_key sst
                 in
                 Some (Component.of_sst ?bloom sst)
             | _ :: _ ->
                 fresh.stats.corruptions_detected <-
                   fresh.stats.corruptions_detected + List.length errs;
                 if covered footer then drop_component footer
                 else begin
                   (* Quarantine: mount it — good pages stay readable,
                      rotted ones raise on touch. Bloomless: the rebuild
                      scan would trip over the bad page. *)
                   fresh.stats.quarantined_components <-
                     fresh.stats.quarantined_components + 1;
                   Some (Component.of_sst sst)
                 end)
       end
     in
     fresh.c1 <- read_opt ~level:"C1" ();
     fresh.c1_prime <- read_opt ~level:"C1'" ();
     fresh.c2 <- read_opt ~level:"C2" ();
     (* a C1':C2 merge was in flight at the crash: restart it from scratch
        (its uncommitted output was rolled back above) *)
     match fresh.c1_prime with
     | Some c1p ->
         fresh.merge2 <-
           Some
             (guard fresh ~level:"C2" (fun () ->
                  Merge_process.create_c12 ~config:t.config ~store:t.store
                    ~c1_prime:c1p ~c2:fresh.c2))
     | None -> ()
   end);
  (* Replay the logical log into C0, skipping records whose effect is
     already durable in a committed component: every component record
     carries the newest LSN folded into it, so a WAL record with
     lsn <= that is covered. Base/Tombstone replays would be idempotent,
     but replaying a covered *delta* would apply it twice. *)
  let durable_lsn key =
    let check = function
      | Some c -> (
          (* A rotted page in a quarantined component reads as "unknown":
             replay the record. Reads of that key hit the bad page and
             raise the typed error anyway, so this cannot turn into a
             silent double-apply. *)
          match Sstable.Reader.get_with_lsn c.Component.sst key with
          | Some (_, lsn) -> Some lsn
          | None -> None
          | exception Sstable.Sst_format.Corrupt _ ->
              fresh.stats.corruptions_detected <-
                fresh.stats.corruptions_detected + 1;
              None)
      | None -> None
    in
    match check fresh.c1 with
    | Some l -> l
    | None -> (
        match check fresh.c1_prime with
        | Some l -> l
        | None -> ( match check fresh.c2 with Some l -> l | None -> 0))
  in
  (match
     Pagestore.Wal.replay wal ~from_lsn:0 (fun lsn payload ->
         List.iter
           (fun (key, entry) ->
             (* [should_replay] scopes a shared log to this tree's key range
                (partitioned stores); singleton trees replay everything *)
             if should_replay key && lsn > durable_lsn key then
               Memtable.write fresh.c0 ~lsn key entry)
           (decode_ops payload))
   with
  | () -> ()
  | exception Pagestore.Wal.Corrupt { what; lsn } ->
      (* mid-log rot: power loss cannot explain it, and silently skipping
         a record would resurrect overwritten state *)
      fresh.stats.corruptions_detected <- fresh.stats.corruptions_detected + 1;
      raise (Corruption { level = "WAL"; what; page_or_lsn = lsn }));
  if !rebuilds > 0 then commit_root fresh;
  let rec_dt = Pagestore.Store.now_us t.store -. t_rec in
  fresh.stats.recovery_us <- fresh.stats.recovery_us +. rec_dt;
  let tr = Pagestore.Store.trace t.store in
  if Obs.Trace.enabled tr then
    Obs.Trace.complete tr ~cat:"tree" ~name:"recovery" ~ts_us:t_rec
      ~dur_us:rec_dt
      ~args:
        [ ("rebuilds", Obs.Trace.I !rebuilds);
          ("replayed_c0_bytes", Obs.Trace.I (Memtable.bytes fresh.c0)) ];
  fresh

(** {1 Scrubbing} *)

type scrub_report = {
  scrub_errors : (string * string * int) list;
      (** (level, what, page-or-lsn) per mismatch *)
  scrub_wal_records : int;  (** live log records checked *)
  scrub_clean : bool;
}

(** [scrub t] proactively verifies every checksum the tree owns — each
    on-disk component page, the index and Bloom blobs, every live WAL
    record — and reports what it found, without touching tree state.
    The on-demand form of the background scrubbing a production store
    would run; pairs with {!crash_and_recover}'s [~verify]. *)
let scrub t =
  t.stats.scrubs <- t.stats.scrubs + 1;
  let comp name = function
    | None -> []
    | Some c ->
        List.map
          (fun (what, page) -> (name, what, page))
          (Sstable.Reader.verify c.Component.sst)
  in
  let wal_records, wal_errs =
    Pagestore.Wal.verify (Pagestore.Store.wal t.store)
  in
  let errors =
    comp "C1" t.c1 @ comp "C1'" t.c1_prime @ comp "C2" t.c2
    @ List.map (fun (what, lsn) -> ("WAL", what, lsn)) wal_errs
  in
  t.stats.corruptions_detected <-
    t.stats.corruptions_detected + List.length errors;
  { scrub_errors = errors; scrub_wal_records = wal_records;
    scrub_clean = errors = [] }

(** {1 Introspection} *)

type level_info = {
  level : string;
  bytes : int;
  records : int;
  level_timestamp : int;
}

let levels t =
  let comp name = function
    | None -> []
    | Some c ->
        [
          {
            level = name;
            bytes = Component.data_bytes c;
            records = Component.record_count c;
            level_timestamp = Component.timestamp c;
          };
        ]
  in
  [
    {
      level = "C0";
      bytes = Memtable.bytes t.c0;
      records = Memtable.count t.c0;
      level_timestamp = 0;
    };
  ]
  @ comp "C1" t.c1 @ comp "C1'" t.c1_prime @ comp "C2" t.c2

(** Footer of each mounted on-disk component, newest level first —
    extents and page layout for scrub tooling and fault tests. *)
let component_footers t =
  let comp name = function
    | None -> []
    | Some c -> [ (name, Sstable.Reader.footer c.Component.sst) ]
  in
  comp "C1" t.c1 @ comp "C1'" t.c1_prime @ comp "C2" t.c2

(** Total bloom-filter RAM currently allocated (Appendix A overhead). *)
let bloom_bytes t =
  List.fold_left
    (fun acc c ->
      match c with
      | Some { Component.bloom = Some b; _ } -> acc + Bloom.size_bytes b
      | _ -> acc)
    0
    [ t.c1; t.c1_prime; t.c2 ]

(* Bloom-filter outcome totals: retired components' counters (folded into
   stats by [retire_component]) plus the live components' own. *)
let bloom_counters t =
  List.fold_left
    (fun (neg, fp) c ->
      match c with
      | Some c ->
          ( neg + c.Component.bloom_negative,
            fp + c.Component.bloom_false_positive )
      | None -> (neg, fp))
    (t.stats.bloom_negative, t.stats.bloom_false_positive)
    [ t.c1; t.c1_prime; t.c2 ]

(** Lookups any Bloom filter answered "absent" for free — tree lifetime,
    retired components included. *)
let bloom_negative_total t = fst (bloom_counters t)

(** Filter said maybe, the component read said no: the wasted page reads
    the filters exist to avoid — tree lifetime, retired included. *)
let bloom_false_positive_total t = snd (bloom_counters t)

(** {1 Metrics} *)

(** [metrics t] is the tree's registry: every [tree.*] stat plus the
    whole store stack ([disk.*], [wal.*], [buf.*], [faults.*]) as
    pull-closures over the live records. Built once per tree and cached;
    dumps sample at call time. *)
let metrics t =
  match t.metrics_cache with
  | Some reg -> reg
  | None ->
      let reg = Obs.Metrics.create () in
      let open Obs.Metrics in
      let s = t.stats in
      counter reg "tree.puts" ~help:"blind writes" (fun () -> s.puts);
      counter reg "tree.gets" ~help:"point lookups" (fun () -> s.gets);
      counter reg "tree.deletes" ~help:"tombstone writes" (fun () -> s.deletes);
      counter reg "tree.deltas" ~help:"delta writes" (fun () -> s.deltas);
      counter reg "tree.scans" ~help:"range scans" (fun () -> s.scans);
      counter reg "tree.rmws" ~help:"read-modify-writes" (fun () -> s.rmws);
      counter reg "tree.checked_inserts" ~help:"insert-if-absent calls"
        (fun () -> s.checked_inserts);
      counter reg "tree.checked_insert_seekfree"
        ~help:"insert-if-absent resolved by Bloom filters alone" (fun () ->
          s.checked_insert_seekfree);
      counter reg "tree.merge1_completions" ~help:"C0:C1 runs committed"
        (fun () -> s.merge1_completions);
      counter reg "tree.merge2_completions" ~help:"C1':C2 merges committed"
        (fun () -> s.merge2_completions);
      counter reg "tree.promotions" ~help:"C1 -> C1' promotions" (fun () ->
          s.promotions);
      counter reg "tree.hard_stalls" ~help:"writes that hit the C0 hard limit"
        (fun () -> s.hard_stalls);
      counter reg "tree.user_bytes_written" ~help:"application payload bytes"
        (fun () -> s.user_bytes_written);
      counter reg "tree.corruptions_detected" ~help:"checksum mismatches seen"
        (fun () -> s.corruptions_detected);
      counter reg "tree.component_rebuilds" ~help:"components rebuilt from WAL"
        (fun () -> s.component_rebuilds);
      counter reg "tree.quarantined_components"
        ~help:"corrupt components mounted read-around" (fun () ->
          s.quarantined_components);
      counter reg "tree.scrubs" ~help:"scrub passes" (fun () -> s.scrubs);
      histogram reg "tree.stall_us" ~help:"per-write pacing time, µs"
        s.stall_us;
      gauge reg "tree.stall.merge1_us" ~help:"pacing time spent in merge1, µs"
        (fun () -> s.stall_merge1_us);
      gauge reg "tree.stall.merge2_us" ~help:"pacing time spent in merge2, µs"
        (fun () -> s.stall_merge2_us);
      gauge reg "tree.stall.hard_us" ~help:"pacing time spent hard-stalled, µs"
        (fun () -> s.stall_hard_us);
      gauge reg "tree.wal_us" ~help:"WAL append/group-commit time, µs"
        (fun () -> s.wal_us);
      gauge reg "tree.recovery_us" ~help:"recovery replay/rebuild time, µs"
        (fun () -> s.recovery_us);
      gauge reg "tree.c0_fill" ~help:"C0 fill fraction" (fun () -> c0_fill t);
      gauge reg "tree.c0_bytes" ~help:"C0 bytes" (fun () ->
          float_of_int (Memtable.bytes t.c0));
      gauge reg "tree.disk_data_bytes" ~help:"bytes in C1 + C1' + C2"
        (fun () -> float_of_int (disk_data_bytes t));
      gauge reg "tree.effective_r" ~help:"effective size ratio R" (fun () ->
          effective_r t);
      gauge reg "tree.bloom_bytes" ~help:"Bloom filter RAM" (fun () ->
          float_of_int (bloom_bytes t));
      counter reg "bloom.negative"
        ~help:"lookups a Bloom filter answered absent for free" (fun () ->
          bloom_negative_total t);
      counter reg "bloom.false_positive"
        ~help:"Bloom maybes refuted by the component read" (fun () ->
          bloom_false_positive_total t);
      let level_bloom name comp =
        gauge reg ("bloom." ^ name ^ ".negative")
          ~help:("filter negatives, live " ^ name) (fun () ->
            match comp () with
            | Some c -> float_of_int c.Component.bloom_negative
            | None -> 0.);
        gauge reg ("bloom." ^ name ^ ".false_positive")
          ~help:("filter false positives, live " ^ name) (fun () ->
            match comp () with
            | Some c -> float_of_int c.Component.bloom_false_positive
            | None -> 0.)
      in
      level_bloom "c1" (fun () -> t.c1);
      level_bloom "c1_prime" (fun () -> t.c1_prime);
      level_bloom "c2" (fun () -> t.c2);
      gauge reg "tree.inprogress1" ~help:"merge1 progress estimator (§4.1)"
        (fun () -> merge1_inprogress t);
      gauge reg "tree.inprogress2" ~help:"merge2 progress estimator (§4.1)"
        (fun () -> merge2_inprogress t);
      gauge reg "tree.outprogress1" ~help:"merge1 out-progress target (§4.1)"
        (fun () -> outprogress1 t);
      Pagestore.Store.register_metrics reg t.store;
      t.metrics_cache <- Some reg;
      reg

(** {1 Engine adapter} *)

let engine ?(name = "bLSM") t =
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
