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
  mutable hard_stalls : int;
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
  mutable merge1 : run1 option;
  mutable merge2 : Merge_process.t option;  (** C1':C2, inputs C1' and C2 *)
  ms : merge_stats;
  mutable metrics_cache : Obs.Metrics.t option;
}

(* Shell level indexes 0, 1, 2 are C1, C1', C2; each holds at most one
   run. *)
let level_names = [| "C1"; "C1'"; "C2" |]

let stats t = Lsm_shell.stats t.sh
let merge_stats t = t.ms
let last_stall t = Lsm_shell.last_stall t.sh
let on_stall t f = Lsm_shell.on_stall t.sh f
let store t = t.store
let disk t = Pagestore.Store.disk t.store
let config t = t.config

let level t lvl = match Lsm_shell.runs t.sh lvl with c :: _ -> Some c | [] -> None
let c1 t = level t 0
let c1_prime t = level t 1
let c2 t = level t 2
let set_level t lvl c = Lsm_shell.set_runs t.sh lvl (Option.to_list c)

(** {1 Sizing} *)

let component_bytes = function Some c -> Component.data_bytes c | None -> 0
let component_records = function Some c -> Component.record_count c | None -> 0
let disk_data_bytes t = Lsm_shell.data_bytes t.sh

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

let c0_fill t = Lsm_shell.fill t.sh t.c0

let guard t ~level f = Lsm_shell.guard t.sh ~level f
let encode_ops = Lsm_shell.encode_ops

(** {1 Merge lifecycle}

    The shell owns each merge from {!Lsm_shell.start_merge} to
    {!Lsm_shell.install}. The tree never moves the manifest's WAL floor
    off 0: replay always starts at LSN 0, so a rotted component the log
    still covers is rebuilt from records older than any floor. *)

(* The C1':C2 merge. C2 is the bottom level, so tombstones are elided
   and orphan deltas resolve to base records (§3.1.1). Each input is its
   own level's stream, so rot is typed at the level it came from. *)
let start_merge2 t ~c1_prime ~c2 =
  let pull level c = Lsm_shell.component_pull t.sh ~level ~from:None c in
  let c1p_bytes = Component.data_bytes c1_prime in
  let input =
    Merge_process.merge_input ~resolver:t.config.Config.resolver
      ~drop_tombstones:true
      ~total:(c1p_bytes + component_bytes c2)
      (pull "C1'" c1_prime :: (match c2 with Some c -> [ pull "C2" c ] | None -> []))
  in
  Lsm_shell.start_merge t.sh ~label:"merge2"
    ~args:
      [ ("c1p_bytes", Obs.Trace.I c1p_bytes);
        ("c2_bytes", Obs.Trace.I (component_bytes c2)) ]
    ~input
    ~bloom_items:(max 1 (Component.record_count c1_prime + component_records c2))
    ~output:Merge_process.Level

(* Start a C1':C2 merge if C1 has reached its target size and no other
   bottom merge is active. *)
let try_promote t =
  match (c1 t, t.merge2) with
  | Some c1, None when Component.data_bytes c1 >= target_c1_bytes t ->
      set_level t 1 (Some c1);
      set_level t 0 None;
      t.merge2 <- Some (start_merge2 t ~c1_prime:c1 ~c2:(c2 t));
      t.ms.promotions <- t.ms.promotions + 1;
      Lsm_shell.commit_manifest t.sh;
      true
  | _ -> false

(* Can a new C0:C1 run begin? Blocked exactly when C1 is full and the
   C1':C2 merge has not yet freed the slot (Figure 4's danger state). *)
let merge1_blocked t =
  match c1 t with
  | Some c1 -> Component.data_bytes c1 >= target_c1_bytes t && c1_prime t <> None
  | None -> false

(* C0', or C0 (the snowshovel source, or what a gear swap would freeze) *)
let source_has_data t = not (Memtable.is_empty (Option.value t.frozen ~default:t.c0))

(* A live C0:C1 run ends early once its output passes this multiple of
   the C1 target, so sorted inserts cannot grow one run without bound. *)
let run_cap_factor = 1.25

(* Begin a C0:C1 run. Every scheduler but gear snowshovels (§4.2): the
   live C0 is the source, and the run may end early at [run_cap] output
   bytes. Gear freezes the current C0 into C0' and opens a fresh C0
   (halving the write pool, §4.2.1); C0' is discarded at completion, so
   it must be fully drained. *)
let start_merge1 t =
  assert (t.merge1 = None);
  ignore (try_promote t);
  if merge1_blocked t then false
  else begin
    let c1 = c1 t in
    let source, run_cap =
      if t.config.Config.scheduler <> Config.Gear then
        ( Merge_process.Live
            { mem = t.c0; shadow = Merge_process.Shadow.create ~capacity:(Memtable.count t.c0) },
          max
            (int_of_float (run_cap_factor *. float_of_int (target_c1_bytes t)))
            (component_bytes c1 + 1) )
      else begin
        if Option.is_none t.frozen then begin
          t.frozen <- Some t.c0;
          t.c0 <- Memtable.create ~resolver:t.config.Config.resolver ()
        end;
        (Merge_process.Frozen (Option.get t.frozen), max_int)
      end
    in
    let expected_items = max 1 (Memtable.count t.c0 + component_records c1 + 128) in
    let merge =
      guard t ~level:"C1" (fun () ->
          let input =
            Merge_process.c0_input ~resolver:t.config.Config.resolver ~source
              ~c1 ~run_cap
          in
          let mem = match source with Live { mem; _ } | Frozen mem -> mem in
          Lsm_shell.start_merge t.sh ~label:"merge1"
            ~args:
              [ ("source",
                 Obs.Trace.S (match source with Live _ -> "live" | Frozen _ -> "frozen"));
                ("c0_bytes", Obs.Trace.I (Memtable.bytes mem));
                ("c1_bytes", Obs.Trace.I (component_bytes c1));
                ("run_cap", Obs.Trace.I run_cap) ]
            ~input ~bloom_items:expected_items ~output:Merge_process.Level)
    in
    t.merge1 <- Some { r1_merge = merge; r1_source = source; r1_old_c1 = c1 };
    true
  end

(* [place] the one component a [Level] merge seals, through the shell's
   install order. *)
let install t m place =
  Lsm_shell.install t.sh m (function
    | [ c ] -> place c
    | _ -> failwith "bLSM: a level merge seals exactly one component")

let complete_merge1 t r =
  install t r.r1_merge (fun c ->
      set_level t 0 (Some c);
      t.merge1 <- None;
      (match r.r1_source with
      | Live _ -> () (* shadow entries are now durable in the new C1 *)
      | Frozen _ -> t.frozen <- None (* C0' contents are useless, discard *));
      Option.to_list r.r1_old_c1);
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
  install t m (fun c ->
      let old = Lsm_shell.runs t.sh 1 @ Lsm_shell.runs t.sh 2 in
      set_level t 2 (Some c);
      set_level t 1 None;
      t.merge2 <- None;
      old);
  t.ms.merge2_completions <- t.ms.merge2_completions + 1;
  ignore (try_promote t)

(* Advance merge1 by [quota] input bytes, charged to merge1; starts a
   run when appropriate. *)
let step_merge1 t ~quota =
  match t.merge1 with
  | Some r -> (
      match
        guard t ~level:"C1" (fun () ->
            Lsm_shell.step t.sh `Merge1 r.r1_merge ~quota ~finish:(fun () ->
                complete_merge1 t r))
      with
      | `More -> `More
      | `Done -> `Completed)
  | None ->
      if
        source_has_data t && (not (merge1_blocked t))
        && Lsm_shell.charge t.sh `Merge1 (fun () -> start_merge1 t)
      then `Started
      else `Idle

let step_merge2 t ~quota =
  match t.merge2 with
  | Some m -> (
      match Lsm_shell.step t.sh `Merge2 m ~quota ~finish:(fun () -> complete_merge2 t m) with
      | `More -> `More
      | `Done -> `Completed)
  | None -> `Idle

(** {1 Progress estimators} *)

let merge1_inprogress t =
  match t.merge1 with Some r -> Merge_process.inprogress r.r1_merge | None -> 0.0

let merge2_inprogress t =
  match t.merge2 with Some m -> Merge_process.inprogress m | None -> 1.0

let outprogress1 t =
  Scheduler.outprogress ~inprogress:(merge1_inprogress t)
    ~ci_bytes:(component_bytes (c1 t))
    ~ram_bytes:(Config.c0_capacity t.config)
    ~r:(effective_r t)

let remaining_bytes m =
  let p = Merge_process.progress m in
  max 0 (p.Merge_process.bytes_total - p.Merge_process.bytes_read)

(** {1 Scheduling: the pacing policy}

    Which merge to step, its budget and when to block; the mechanism is
    the shell's. Each {!Lsm_shell.spend} sits behind a test that it has
    work, so a write while merges rest builds no closure. *)

(* Couple the bottom merge to C1's overall progress, gear-style: merge2
   must stay at least as far along as outprogress1. *)
let pace_merge2 t ~cap =
  if t.merge2 <> None then
    Lsm_shell.spend ~budget:cap (fun ~quota ->
        if t.merge2 <> None && merge2_inprogress t < outprogress1 t then
          match step_merge2 t ~quota with
          | `More -> `Spent
          | `Completed | `Idle -> `Stop
        else `Stop)

(* The one drain: step merge1, or merge2 when merge1 is idle (blocked
   on a full C1 with C1':C2 behind, or sourceless), [quota] input bytes
   at a time until [settled ()] holds. *)
let drain t ~quota settled =
  let guard = ref 0 in
  while not (settled ()) do
    incr guard;
    if !guard > 10_000_000 then failwith "bLSM: drain stuck";
    match step_merge1 t ~quota with
    | `More | `Completed | `Started -> ()
    | `Idle -> (
        match step_merge2 t ~quota with
        | `More | `Completed -> ()
        | `Idle -> failwith "bLSM: drain wedged: no merge can run")
  done

(* C0 is at capacity: the write cannot be admitted until merges make
   room. This is the unbounded-latency path that good pacing is supposed
   to avoid (Table 1, last row). *)
let force_space t =
  let cap = Config.c0_capacity t.config in
  Lsm_shell.hard_stall t.sh (fun () ->
      drain t ~quota:(4 * Lsm_shell.chunk) (fun () -> Memtable.bytes t.c0 < cap))

let memory_drained t =
  Memtable.is_empty t.c0
  && match t.frozen with Some f -> Memtable.is_empty f | None -> true

let pace_naive t ~write_bytes:_ =
  (* The base LSM algorithm (§2.3.1): nothing happens until C0 is full,
     then the application blocks while the entire C0:C1 merge (and any
     C1':C2 merge it is waiting on) completes — the unbounded write pause
     every level scheduler exists to avoid. *)
  if Memtable.bytes t.c0 >= Config.c0_capacity t.config then
    Lsm_shell.hard_stall t.sh (fun () ->
        drain t ~quota:(16 * Lsm_shell.chunk) (fun () -> memory_drained t && t.merge1 = None))

let pace_gear t ~write_bytes:_ =
  let cap = t.config.Config.max_quota_per_write in
  let partition = Config.c0_capacity t.config in
  let f0 = c0_fill t in
  (* keep C0' merge at least as far along as C0's fill *)
  if t.merge1 <> None then
    Lsm_shell.spend ~budget:cap (fun ~quota ->
        if t.merge1 <> None && merge1_inprogress t < f0 then
          match step_merge1 t ~quota with
          | `More -> `Spent
          | `Completed | `Idle | `Started -> `Stop
        else `Stop);
  pace_merge2 t ~cap;
  if Memtable.bytes t.c0 >= partition then begin
    (* C0 partition full: C0' must hand off now; finish it, swap, restart *)
    drain t ~quota:(4 * Lsm_shell.chunk) (fun () -> t.merge1 = None);
    ignore (step_merge1 t ~quota:0);
    if Memtable.bytes t.c0 >= partition && t.merge1 = None then force_space t
  end

let pace_spring t ~write_bytes =
  let budget = Config.c0_capacity t.config in
  let cap = t.config.Config.max_quota_per_write in
  (* the spring: below the low watermark merges rest (a zero quota);
     inside the band a deadline controller paces merge1 to finish before
     C0 hits the high watermark *)
  let quota =
    Scheduler.spring_quota ~write_bytes ~fill:(c0_fill t)
      ~remaining_bytes:
        (match t.merge1 with
        | Some r -> remaining_bytes r.r1_merge
        | None -> Memtable.bytes t.c0 + component_bytes (c1 t))
      ~c0_capacity:budget
    |> min cap
  in
  if quota > 0 then
    Lsm_shell.spend ~budget:quota (fun ~quota ->
        match step_merge1 t ~quota with
        | `More -> `Spent
        | `Completed | `Started -> `Free
        | `Idle -> `Stop);
  pace_merge2 t ~cap;
  (* hard deadline for the bottom merge: it must complete before C0 and
     C1 are simultaneously full (Figure 4's danger state), or merge1 will
     block and writes will stall unboundedly. Same controller shape as
     the C0 band, with the remaining C0+C1 headroom as the deadline. *)
  (match t.merge2 with
  | None -> ()
  | Some m ->
      let headroom =
        max write_bytes
          (target_c1_bytes t + budget
          - (component_bytes (c1 t) + Memtable.bytes t.c0))
      in
      Lsm_shell.spend
        ~budget:(min cap (write_bytes * remaining_bytes m / max write_bytes headroom))
        (fun ~quota ->
          match step_merge2 t ~quota with
          | `More -> `Spent
          | `Completed | `Idle -> `Stop));
  if Memtable.bytes t.c0 >= budget then force_space t

(* The pacing decision for one write, owed for at least 64 bytes: one
   trace event carries the §4.1 inputs the scheduler acts on. *)
let pace t ~write_bytes =
  let write_bytes = max 64 write_bytes in
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

(** {1 Write path}: the shell's, paced by {!pace}. *)

let before_write t ~write_bytes = Lsm_shell.pace t.sh ~write_bytes
let write_batch t ops = Lsm_shell.write_batch t.sh ops

(* The per-partition half of {!Partitioned.write_batch}: one shared
   record covers several trees, and recovery replays it into each
   through its own [should_replay] filter. *)
let absorb_batch t ~lsn ~wal_us ops =
  Lsm_shell.charge_wal t.sh wal_us;
  Lsm_shell.absorb t.sh ~lsn ops;
  let s = stats t in
  s.puts <- s.puts + List.length ops

let put t key value = Lsm_shell.put t.sh key value
let delete t key = Lsm_shell.delete t.sh key
let apply_delta t key d = Lsm_shell.apply_delta t.sh key d

(** {1 Read path} *)

(* The snowshovel shadow of the running C0:C1 merge, if any. *)
let shadow t =
  match t.merge1 with
  | Some { r1_source = Live { shadow; _ }; _ } -> Some shadow
  | Some { r1_source = Frozen _; _ } | None -> None

(* [key]'s record in the snowshovel shadow, if any: a hashed probe. *)
let shadow_find t key =
  match t.merge1 with
  | Some { r1_source = Live { shadow; _ }; _ } -> Merge_process.Shadow.find shadow key
  | Some { r1_source = Frozen _; _ } | None -> None

(* Record states newest-first: C0, the shadow, C0'; the shell then reads
   C1, C1' and C2. Closure-free: a point read allocates nothing here
   beyond the states it finds. *)
let memory t key absorb =
  absorb (Memtable.get t.c0 key)
  || (match shadow_find t key with Some (_, e, _) -> absorb (Some e) | None -> false)
  || match t.frozen with Some f -> absorb (Memtable.get f key) | None -> false

let get t key = Lsm_shell.get t.sh key

let read_modify_write t key f = Lsm_shell.read_modify_write t.sh key f

let insert_if_absent t key value = Lsm_shell.insert_if_absent t.sh key value

(** {1 Scans} *)

let memory_pulls t from =
  let c0 = Memtable.pull_from t.c0 ~from in
  let shadow = Option.map (fun s -> Merge_process.Shadow.pull_from s ~from) (shadow t) in
  let frozen = Option.map (fun f -> Memtable.pull_from f ~from) t.frozen in
  c0 :: List.filter_map Fun.id [ shadow; frozen ]

type cursor = Lsm_shell.cursor

let cursor ?(from = "") t = Lsm_shell.cursor t.sh from
let cursor_next = Lsm_shell.cursor_next

let scan t start n = Lsm_shell.scan t.sh start n

(** {1 Creation} *)

let create ?(config = Config.default) ?(root_slot = "") store =
  (* hold the shared log from this point: records this tree buffers in
     C0 may not be truncated away by co-hosted trees' merges *)
  Pagestore.Wal.register_client (Pagestore.Store.wal store) ~client:root_slot;
  let t =
    {
      config;
      store;
      root_slot;
      sh = Lsm_shell.create config store ~level_names ~slot:root_slot;
      c0 = Memtable.create ~resolver:config.Config.resolver ();
      frozen = None;
      merge1 = None;
      merge2 = None;
      ms = { merge1_completions = 0; merge2_completions = 0; promotions = 0 };
      metrics_cache = None;
    }
  in
  Lsm_shell.attach t.sh
    { pace = pace t; memtable = (fun () -> t.c0); memory = memory t;
      memory_pulls = memory_pulls t };
  t

(** {1 Maintenance, flush, recovery} *)

(** [maintenance t] runs active merges to completion (between experiment
    phases; never during measurement). *)
let maintenance t =
  let guard = ref 0 in
  while t.merge1 <> None || t.merge2 <> None do
    incr guard;
    if !guard > 10_000_000 then failwith "bLSM: maintenance stuck";
    ignore (step_merge1 t ~quota:(16 * Lsm_shell.chunk));
    ignore (step_merge2 t ~quota:(16 * Lsm_shell.chunk))
  done

(** [flush t] drains C0 (and C0') entirely to disk. *)
let flush t =
  drain t ~quota:(16 * Lsm_shell.chunk) (fun () ->
      memory_drained t && t.merge1 = None && t.merge2 = None)

(* Power loss, then the shell's recovery sequence ({!Lsm_shell.recover})
   with the tree's parts: which rotted components replay can rebuild,
   the C1':C2 restart, and the per-key replay filter. *)
let crash_and_recover ?(should_replay = fun _ -> true) ?(verify = false) t =
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
      (Lsm_shell.components fresh.sh)
    |> Option.value ~default:0
  in
  Lsm_shell.recover fresh.sh ~crashed:t.sh ~verify ~covered
    (* a C1':C2 merge was in flight at the crash: restart it from scratch
       (the shell rolled its uncommitted output back) *)
    ~resume:(fun () ->
      Option.iter
        (fun c1p -> fresh.merge2 <- Some (start_merge2 fresh ~c1_prime:c1p ~c2:(c2 fresh)))
        (c1_prime fresh))
    (* [should_replay] scopes a shared log to this tree's key range
       (partitioned stores); singleton trees replay everything *)
    ~keep:(fun lsn key -> should_replay key && lsn > durable_lsn key);
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
let scrub t = Lsm_shell.scrub t.sh

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
       (Lsm_shell.components t.sh)

(** Footer of each mounted on-disk component, newest level first —
    extents and page layout for scrub tooling and fault tests. *)
let component_footers t = Lsm_shell.component_footers t.sh

(** Total bloom-filter RAM currently allocated (Appendix A overhead). *)
let bloom_bytes t = Lsm_shell.bloom_bytes t.sh

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
          Lsm_shell.bloom_negative t.sh);
      counter reg "bloom.false_positive"
        ~help:"Bloom maybes refuted by the component read" (fun () ->
          Lsm_shell.bloom_false_positive t.sh);
      let level_bloom name lvl =
        gauge reg ("bloom." ^ name ^ ".negative")
          ~help:("filter negatives, live " ^ name) (fun () ->
            match level t lvl with
            | Some c -> float_of_int c.Component.bloom_negative
            | None -> 0.);
        gauge reg ("bloom." ^ name ^ ".false_positive")
          ~help:("filter false positives, live " ^ name) (fun () ->
            match level t lvl with
            | Some c -> float_of_int c.Component.bloom_false_positive
            | None -> 0.)
      in
      level_bloom "c1" 0;
      level_bloom "c1_prime" 1;
      level_bloom "c2" 2;
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
  Lsm_shell.engine t.sh ~name ~maintenance:(fun () -> maintenance t)
