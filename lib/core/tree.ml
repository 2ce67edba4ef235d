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

exception Corruption = Lsm_shell.Corruption

type stats = Lsm_shell.stats = {
  mutable puts : int;
  mutable gets : int;
  mutable deletes : int;
  mutable deltas : int;
  mutable scans : int;
  mutable rmws : int;
  mutable checked_inserts : int;
  mutable checked_insert_seekfree : int;
  mutable user_bytes_written : int;
  mutable corruptions_detected : int;
  mutable component_rebuilds : int;
  mutable quarantined_components : int;
  mutable scrubs : int;
  stall_us : Repro_util.Histogram.t;
  mutable stall_merge1_us : float;
  mutable stall_merge2_us : float;
  mutable stall_hard_us : float;
  mutable wal_us : float;
  mutable recovery_us : float;
}

type stall_breakdown = Lsm_shell.stall_breakdown = {
  sb_merge1_us : float;
  sb_merge2_us : float;
  sb_hard_us : float;
  sb_wal_us : float;
  sb_total_us : float;
}

type merge_stats = {
  mutable merge1_completions : int;
  mutable merge2_completions : int;
  mutable promotions : int;
  mutable hard_stalls : int;
  mutable bloom_negative : int;
  mutable bloom_false_positive : int;
}

(* A C0:C1 run in flight: the executor, its C0 source (the snowshovel
   shadow, or the C0' dropped at commit) and the C1 it rewrites. *)
type run1 = {
  r1_merge : Merge_process.t;
  r1_source : Merge_process.c0_source;
  r1_old_c1 : Component.t option;
}

type t = {
  config : Config.t;
  store : Pagestore.Store.t;
  root_slot : string;  (** journal slot / WAL-client id on shared stores *)
  sh : Lsm_shell.t;
  mutable c0 : Memtable.t;
  mutable frozen : Memtable.t option;  (** C0' (gear scheduler only) *)
  mutable c1 : Component.t option;
  mutable c1_prime : Component.t option;
  mutable c2 : Component.t option;
  mutable merge1 : run1 option;
  mutable merge2 : Merge_process.t option;  (** C1':C2, inputs [c1_prime], [c2] *)
  mutable stamp : int;  (** next component timestamp to issue *)
  ms : merge_stats;
  mutable in_hard_stall : bool;
      (** inside {!force_space} / the naive drain: merge time is a
          hard-stall wait, whichever merge performs it *)
  mutable metrics_cache : Obs.Metrics.t option;
}

let create ?(config = Config.default) ?(root_slot = "") store =
  (* hold the shared log from this point: records this tree buffers in
     C0 may not be truncated away by co-hosted trees' merges *)
  Pagestore.Wal.register_client (Pagestore.Store.wal store) ~client:root_slot;
  {
    config;
    store;
    root_slot;
    sh = Lsm_shell.create config store;
    c0 = Memtable.create ~seed:config.Config.seed ~resolver:config.Config.resolver ();
    frozen = None;
    c1 = None;
    c1_prime = None;
    c2 = None;
    merge1 = None;
    merge2 = None;
    stamp = 1;
    ms =
      { merge1_completions = 0; merge2_completions = 0; promotions = 0;
        hard_stalls = 0; bloom_negative = 0; bloom_false_positive = 0 };
    in_hard_stall = false;
    metrics_cache = None;
  }

let stats t = Lsm_shell.stats t.sh
let merge_stats t = t.ms
let last_stall t = Lsm_shell.last_stall t.sh
let on_stall t f = Lsm_shell.on_stall t.sh f
let store t = t.store
let disk t = Pagestore.Store.disk t.store
let config t = t.config

(** {1 Sizing} *)

let component_bytes = function Some c -> Component.data_bytes c | None -> 0
let component_records = function Some c -> Component.record_count c | None -> 0

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

(* Manifest level indexes 0, 1, 2 are C1, C1', C2. *)
let level_names = [| "C1"; "C1'"; "C2" |]

(* The mounted on-disk components by level index, newest level first. *)
let live_levels t =
  List.filter_map
    (fun (lvl, c) -> Option.map (fun c -> (lvl, c)) c)
    [ (0, t.c1); (1, t.c1_prime); (2, t.c2) ]

let live_components t =
  List.map (fun (lvl, c) -> (level_names.(lvl), c)) (live_levels t)

(* Replay always starts at LSN 0 (floor 0): a rotted component the log
   still covers is rebuilt from records older than any floor. *)
let commit t =
  Lsm_shell.commit_manifest t.sh ~slot:t.root_slot ~stamp:t.stamp ~floor_lsn:0
    (live_levels t)

let guard t ~level f = Lsm_shell.guard t.sh ~level f
let encode_ops = Lsm_shell.encode_ops

(** {1 Merge lifecycle} *)

let next_timestamp t () =
  let ts = t.stamp in
  t.stamp <- ts + 1;
  ts

(* The C1':C2 merge. C2 is the bottom level, so tombstones are elided
   and orphan deltas resolve to base records (§3.1.1). *)
let start_merge2 t ~c1_prime ~c2 =
  guard t ~level:"C2" (fun () ->
      let pull c =
        let it = Component.iterator c in
        fun () -> Sstable.Reader.iter_next_full it
      in
      let c1p_bytes = Component.data_bytes c1_prime in
      let input =
        Merge_process.merge_input ~resolver:t.config.Config.resolver
          ~drop_tombstones:true
          ~total:(c1p_bytes + component_bytes c2)
          (pull c1_prime :: (match c2 with Some c -> [ pull c ] | None -> []))
      in
      Merge_process.create ~config:t.config ~store:t.store ~label:"merge2"
        ~args:
          [ ("c1p_bytes", Obs.Trace.I c1p_bytes);
            ("c2_bytes", Obs.Trace.I (component_bytes c2)) ]
        ~input
        ~bloom_items:(max 1 (Component.record_count c1_prime + component_records c2))
        ~output:Merge_process.Level ~stamp:(next_timestamp t))

(* Start a C1':C2 merge if C1 has reached its target size and no other
   bottom merge is active. *)
let try_promote t =
  match (t.c1, t.merge2) with
  | Some c1, None when Component.data_bytes c1 >= target_c1_bytes t ->
      t.c1_prime <- Some c1;
      t.c1 <- None;
      t.merge2 <- Some (start_merge2 t ~c1_prime:c1 ~c2:t.c2);
      t.ms.promotions <- t.ms.promotions + 1;
      commit t;
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

(* A live C0:C1 run ends early once its output passes this multiple of
   the C1 target, so sorted inserts cannot grow one run without bound. *)
let run_cap_factor = 1.25

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
          { mem = t.c0; shadow = Merge_process.Shadow.create ~capacity:(Memtable.count t.c0) }
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
    let expected_items = max 1 (Memtable.count t.c0 + component_records t.c1 + 128) in
    let run_cap =
      (* Only live (snowshovel) runs may stop early: a frozen C0' must be
         fully drained because it is discarded at completion. *)
      if not t.config.Config.snowshovel then max_int
      else
        max
          (int_of_float (run_cap_factor *. float_of_int (target_c1_bytes t)))
          (component_bytes t.c1 + 1)
    in
    let merge =
      guard t ~level:"C1" (fun () ->
          let input =
            Merge_process.c0_input ~resolver:t.config.Config.resolver ~source
              ~c1:t.c1 ~run_cap
          in
          let mem = match source with Live { mem; _ } | Frozen mem -> mem in
          Merge_process.create ~config:t.config ~store:t.store ~label:"merge1"
            ~args:
              [ ("source",
                 Obs.Trace.S (match source with Live _ -> "live" | Frozen _ -> "frozen"));
                ("c0_bytes", Obs.Trace.I (Memtable.bytes mem));
                ("c1_bytes", Obs.Trace.I (component_bytes t.c1));
                ("run_cap", Obs.Trace.I run_cap) ]
            ~input ~bloom_items:expected_items ~output:Merge_process.Level
            ~stamp:(next_timestamp t))
    in
    t.merge1 <- Some { r1_merge = merge; r1_source = source; r1_old_c1 = t.c1 };
    true
  end

(* Retire a superseded component: fold its Bloom-filter outcome counters
   into the tree's stats (live components report their own; the metrics
   registry sums both) before releasing its extents. *)
let retire_component t (c : Component.t) =
  t.ms.bloom_negative <- t.ms.bloom_negative + c.Component.bloom_negative;
  t.ms.bloom_false_positive <-
    t.ms.bloom_false_positive + c.Component.bloom_false_positive;
  Component.free c

(* The one component a [Level] merge seals. *)
let sealed m =
  match Merge_process.finish m with
  | [ c ] -> c
  | _ -> failwith "bLSM: a level merge seals exactly one component"

let complete_merge1 t r =
  t.c1 <- Some (sealed r.r1_merge);
  t.merge1 <- None;
  (match r.r1_source with
  | Live _ -> () (* shadow entries are now durable in the new C1 *)
  | Frozen _ -> t.frozen <- None (* C0' contents are useless, discard *));
  commit t;
  (match r.r1_old_c1 with Some c -> retire_component t c | None -> ());
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
  t.ms.merge1_completions <- t.ms.merge1_completions + 1;
  ignore (try_promote t)

let complete_merge2 t m =
  let old_c1p = t.c1_prime and old_c2 = t.c2 in
  t.c2 <- Some (sealed m);
  t.c1_prime <- None;
  t.merge2 <- None;
  commit t;
  Option.iter (retire_component t) old_c1p;
  Option.iter (retire_component t) old_c2;
  t.ms.merge2_completions <- t.ms.merge2_completions + 1;
  ignore (try_promote t)

(* Advance merge1 by [quota] input bytes; starts a run when appropriate. *)
let do_step_merge1 t ~quota =
  match t.merge1 with
  | Some r -> (
      match guard t ~level:"C1" (fun () -> Merge_process.step r.r1_merge ~quota) with
      | `More -> `More
      | `Done ->
          complete_merge1 t r;
          `Completed)
  | None ->
      if source_has_data t && (not (merge1_blocked t)) && start_merge1 t then
        `Started
      else `Idle

let do_step_merge2 t ~quota =
  match t.merge2 with
  | Some m -> (
      match guard t ~level:"C2" (fun () -> Merge_process.step m ~quota) with
      | `More -> `More
      | `Done ->
          complete_merge2 t m;
          `Completed)
  | None -> `Idle

(* Stall attribution: every quantum of synchronous merge work is charged
   to a cause. Work done while [in_hard_stall] is a hard-stall *wait*
   regardless of which merge performs it: the write is blocked on space,
   not electively pacing. *)
let step_merge1 t ~quota =
  Lsm_shell.charge t.sh (if t.in_hard_stall then `Hard else `Merge1) (fun () ->
      do_step_merge1 t ~quota)

let step_merge2 t ~quota =
  Lsm_shell.charge t.sh (if t.in_hard_stall then `Hard else `Merge2) (fun () ->
      do_step_merge2 t ~quota)

(** {1 Progress estimators} *)

let merge1_inprogress t =
  match t.merge1 with Some r -> Merge_process.inprogress r.r1_merge | None -> 0.0

let merge2_inprogress t =
  match t.merge2 with Some m -> Merge_process.inprogress m | None -> 1.0

let outprogress1 t =
  Scheduler.outprogress ~inprogress:(merge1_inprogress t)
    ~ci_bytes:(component_bytes t.c1)
    ~ram_bytes:(Config.c0_capacity t.config)
    ~r:(effective_r t)

let remaining_bytes m =
  let p = Merge_process.progress m in
  max 0 (p.Merge_process.bytes_total - p.Merge_process.bytes_read)

let merge1_remaining_bytes t =
  match t.merge1 with
  | Some r -> remaining_bytes r.r1_merge
  | None -> Memtable.bytes t.c0 + component_bytes t.c1

let merge2_remaining_bytes t =
  match t.merge2 with Some m -> remaining_bytes m | None -> 0

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
  t.ms.hard_stalls <- t.ms.hard_stalls + 1;
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
    t.ms.hard_stalls <- t.ms.hard_stalls + 1;
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

(* The pacing decision for one write: one trace event carries the §4.1
   inputs the scheduler acts on. *)
let pace t ~write_bytes =
  let tr = Pagestore.Store.trace t.store in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"sched" ~name:"pace"
      ~args:
        [ ("scheduler", Obs.Trace.S (Config.scheduler_name t.config.Config.scheduler));
          ("c0_fill", Obs.Trace.F (c0_fill t));
          ("inprogress1", Obs.Trace.F (merge1_inprogress t));
          ("inprogress2", Obs.Trace.F (merge2_inprogress t));
          ("outprogress1", Obs.Trace.F (outprogress1 t));
          ("write_bytes", Obs.Trace.I write_bytes) ];
  match t.config.Config.scheduler with
  | Config.Naive -> pace_naive t ~write_bytes
  | Config.Gear -> pace_gear t ~write_bytes
  | Config.Spring -> pace_spring t ~write_bytes

let before_write t ~write_bytes =
  Lsm_shell.stall_window t.sh (fun () -> pace t ~write_bytes)

(** {1 Write path} *)

let write t =
  Lsm_shell.write t.sh
    ~pace:(fun ~write_bytes -> pace t ~write_bytes:(max 64 write_bytes))
    ~memtable:(fun () -> t.c0)

let write_batch t ops = Lsm_shell.write_batch t.sh ~write:(write t) ops

(** [absorb_batch t ~lsn ops] folds into C0 a batch slice that was
    already durably logged elsewhere — the per-partition half of
    {!Partitioned.write_batch}, where one shared-WAL record covers
    several trees. The caller is responsible for pacing
    ({!before_write}) and for the WAL append; recovery replays the
    shared record into each tree through its own [should_replay]
    filter, so atomicity across the trees rides the single record. *)
let absorb_batch t ~lsn ops =
  List.iter (fun (key, entry) -> Memtable.write t.c0 ~lsn key entry) ops;
  let s = stats t in
  s.puts <- s.puts + List.length ops;
  s.user_bytes_written <- s.user_bytes_written + Lsm_shell.payload_bytes ops

let put t = Lsm_shell.put t.sh ~write:(write t)
let delete t = Lsm_shell.delete t.sh ~write:(write t)
let apply_delta t = Lsm_shell.apply_delta t.sh ~write:(write t)

(** {1 Read path} *)

(* The snowshovel shadow of the running C0:C1 merge, if any. *)
let shadow t =
  match t.merge1 with
  | Some { r1_source = Live { shadow; _ }; _ } -> Some shadow
  | Some { r1_source = Frozen _; _ } | None -> None

(* [key]'s record in the snowshovel shadow, if any. *)
let shadow_find t key =
  match shadow t with
  | Some s -> Merge_process.Shadow.find s key
  | None -> None

(* Record states newest-first: C0, the shadow, C0', then the on-disk
   components. *)
let sources t key absorb =
  let comp level c =
    absorb (Option.bind c (fun c -> guard t ~level (fun () -> Component.get c key)))
  in
  absorb (Memtable.get t.c0 key)
  || absorb (Option.map (fun (_, e, _) -> e) (shadow_find t key))
  || absorb (Option.bind t.frozen (fun f -> Memtable.get f key))
  || comp "C1" t.c1 || comp "C1'" t.c1_prime || comp "C2" t.c2

(* Newest LSN affecting [key]'s visible state: C0/shadow slots track it
   directly; durable components store it per record. 0 = never written
   (within retained history). OCC validation compares these. *)
let read_version t key =
  let comp_lsn (level, c) () =
    if not (Component.maybe_contains c key) then None
    else
      guard t ~level (fun () ->
          Option.map snd (Sstable.Reader.get_with_lsn c.Component.sst key))
  in
  List.to_seq
    ((fun () -> Memtable.newest_lsn t.c0 key)
    :: (fun () -> Option.map (fun (_, _, lsn) -> lsn) (shadow_find t key))
    :: (fun () -> Option.bind t.frozen (fun f -> Memtable.newest_lsn f key))
    :: List.map comp_lsn (live_components t))
  |> Seq.find_map (fun probe -> probe ())
  |> Option.value ~default:0

(** [get t key] point lookup: at most ~1 seek on a settled tree thanks to
    Bloom filters and early termination. *)
let get t key = Lsm_shell.get t.sh (sources t key)

(** [read_modify_write t key f] reads, applies [f], writes back: the
    B-Tree-equivalent primitive (1 seek vs InnoDB's 2, Table 1). *)
let read_modify_write t key f =
  Lsm_shell.read_modify_write t.sh ~write:(write t) (sources t key) key f

(** [insert_if_absent t key value] checks for the key and inserts only if
    missing. The check consults C0 and the Bloom filters; when every
    filter says "absent" the whole operation performs zero seeks (§3.1.2). *)
let insert_if_absent t key value =
  Lsm_shell.insert_if_absent t.sh ~write:(write t) (sources t key) key value

(** {1 Scans} *)

let scan_sources t start () =
  let comp level = Option.map (Lsm_shell.component_pull t.sh ~level ~from:(Some start)) in
  List.filter_map Fun.id
    [
      Some (Memtable.pull_from t.c0 ~from:start);
      Option.map (fun s -> Merge_process.Shadow.pull_from s ~from:start) (shadow t);
      Option.map (fun f -> Memtable.pull_from f ~from:start) t.frozen;
      comp "C1" t.c1;
      comp "C1'" t.c1_prime;
      comp "C2" t.c2;
    ]

type cursor = Lsm_shell.cursor

let cursor ?(from = "") t = Lsm_shell.cursor t.sh (scan_sources t from)
let cursor_next = Lsm_shell.cursor_next

(** [scan t start n] returns up to [n] live records with key >= [start],
    fully resolved. Touches every component: 2-3 seeks (§3.3). *)
let scan t start n = Lsm_shell.scan t.sh (scan_sources t start) n

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

(* Power loss, then the shell's recovery sequence ({!Lsm_shell.recover})
   with the tree's parts: which rotted components replay can rebuild,
   the C1':C2 restart, and the per-key replay filter. *)
let crash_and_recover ?(should_replay = fun _ -> true) ?(verify = false) t =
  (* abort in-flight merge transactions: their output regions are freed,
     exactly as Stasis would roll back an uncommitted merge *)
  Option.iter (fun r -> Merge_process.abandon r.r1_merge) t.merge1;
  Option.iter Merge_process.abandon t.merge2;
  let fresh = create ~config:t.config ~root_slot:t.root_slot t.store in
  let wal = Pagestore.Store.wal t.store in
  let s = stats fresh in
  (* Everything folded into the component is still in the log: it can be
     dropped and recovered by replay. Degraded durability may have lost
     acked-by-merge records, so only Full qualifies. *)
  let covered (f : Sstable.Sst_format.footer) =
    f.record_count = 0
    || (Pagestore.Wal.durability wal = Pagestore.Wal.Full
       && f.min_lsn > 0
       && f.min_lsn >= Pagestore.Wal.truncated_to wal)
  in
  let install comps =
    List.iter
      (fun (lvl, c) ->
        match lvl with
        | 0 -> fresh.c1 <- Some c
        | 1 -> fresh.c1_prime <- Some c
        | _ -> fresh.c2 <- Some c)
      comps;
    (* a C1':C2 merge was in flight at the crash: restart it from scratch
       (its uncommitted output was rolled back above) *)
    Option.iter
      (fun c1p -> fresh.merge2 <- Some (start_merge2 fresh ~c1_prime:c1p ~c2:fresh.c2))
      fresh.c1_prime
  in
  (* Skip records whose effect is already durable in a committed
     component: every component record carries the newest LSN folded into
     it, so a WAL record with lsn <= that is covered. Base/Tombstone
     replays would be idempotent, but replaying a covered *delta* would
     apply it twice. *)
  let durable_lsn key =
    List.find_map
      (fun ((_ : string), c) ->
        (* A rotted page in a quarantined component reads as "unknown":
           replay the record. Reads of that key hit the bad page and raise
           the typed error anyway, so this cannot turn into a silent
           double-apply. *)
        match Sstable.Reader.get_with_lsn c.Component.sst key with
        | r -> Option.map snd r
        | exception Sstable.Sst_format.Corrupt _ ->
            s.corruptions_detected <- s.corruptions_detected + 1;
            None)
      (live_components fresh)
    |> Option.value ~default:0
  in
  let m =
    Lsm_shell.recover fresh.sh ~slot:t.root_slot ~level_names ~verify ~covered
      ~install ~memtable:fresh.c0
      (* [should_replay] scopes a shared log to this tree's key range
         (partitioned stores); singleton trees replay everything *)
      ~keep:(fun lsn key -> should_replay key && lsn > durable_lsn key)
  in
  fresh.stamp <- m.Lsm_shell.stamp;
  fresh

(** {1 Scrubbing} *)

type scrub_report = Lsm_shell.scrub_report = {
  scrub_errors : (string * string * int) list;
  scrub_wal_records : int;
  scrub_clean : bool;
}

(** [scrub t] proactively verifies every checksum the tree owns — each
    on-disk component page, the index and Bloom blobs, every live WAL
    record — and reports what it found, without touching tree state.
    The on-demand form of the background scrubbing a production store
    would run; pairs with {!crash_and_recover}'s [~verify]. *)
let scrub t = Lsm_shell.scrub t.sh (live_components t)

(** {1 Introspection} *)

type level_info = {
  level : string;
  bytes : int;
  records : int;
  level_timestamp : int;
}

let levels t =
  { level = "C0"; bytes = Memtable.bytes t.c0; records = Memtable.count t.c0;
    level_timestamp = 0 }
  :: List.map
       (fun (level, c) ->
         { level; bytes = Component.data_bytes c; records = Component.record_count c;
           level_timestamp = Component.timestamp c })
       (live_components t)

(** Footer of each mounted on-disk component, newest level first —
    extents and page layout for scrub tooling and fault tests. *)
let component_footers t =
  List.map (fun (name, c) -> (name, Sstable.Reader.footer c.Component.sst)) (live_components t)

(** Total bloom-filter RAM currently allocated (Appendix A overhead). *)
let bloom_bytes t =
  List.fold_left
    (fun acc (_, c) ->
      match c.Component.bloom with Some b -> acc + Bloom.size_bytes b | None -> acc)
    0 (live_components t)

(* Bloom-filter outcome totals: retired components' counters (folded into
   [merge_stats] by [retire_component]) plus the live components' own. *)
let bloom_counters t =
  List.fold_left
    (fun (neg, fp) (_, c) ->
      (neg + c.Component.bloom_negative, fp + c.Component.bloom_false_positive))
    (t.ms.bloom_negative, t.ms.bloom_false_positive)
    (live_components t)

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
      let s = stats t and ms = t.ms in
      Lsm_shell.register_metrics t.sh reg ~prefix:"tree";
      counter reg "tree.merge1_completions" ~help:"C0:C1 runs committed"
        (fun () -> ms.merge1_completions);
      counter reg "tree.merge2_completions" ~help:"C1':C2 merges committed"
        (fun () -> ms.merge2_completions);
      counter reg "tree.promotions" ~help:"C1 -> C1' promotions" (fun () ->
          ms.promotions);
      counter reg "tree.hard_stalls" ~help:"writes that hit the C0 hard limit"
        (fun () -> ms.hard_stalls);
      counter reg "tree.user_bytes_written" ~help:"application payload bytes"
        (fun () -> s.user_bytes_written);
      counter reg "tree.component_rebuilds" ~help:"components rebuilt from WAL"
        (fun () -> s.component_rebuilds);
      counter reg "tree.quarantined_components"
        ~help:"corrupt components mounted read-around" (fun () ->
          s.quarantined_components);
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
