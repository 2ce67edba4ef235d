(** Range-partitioned bLSM: the paper's "missing piece" (§4.2.2, §6).

    The paper ships an unpartitioned tree and notes that partitioning is
    "the best way to allow LSM-Trees to leverage write skew": breaking the
    tree into smaller trees concentrates merge activity on the key ranges
    actually being written, so a workload whose distribution shifts away
    from the existing data no longer forces merges to rewrite disjoint
    cold ranges — the stall mode of §4.2.2 and our adversarial ablation.

    This module implements that extension as a layer over {!Tree}: the key
    space is split at fixed boundary keys into P sub-trees that share one
    {!Pagestore.Store} (one disk, one buffer pool, one WAL, one allocator)
    and divide the C0 RAM budget. Each partition runs its own spring-and-
    gear scheduler, so backpressure is proportional to the merge debt of
    the *written* range only. Scans chain across partitions.

    Boundaries are fixed at creation (PE-file-style dynamic splitting is
    orthogonal; the scheduler hooks here are what §4.3 calls for). For the
    hashed YCSB key space, {!uniform_boundaries} gives balanced ranges. *)

type t = {
  boundaries : string array;  (** sorted; partition i covers
      [boundary.(i-1), boundary.(i)); partition 0 starts at "" *)
  partitions : Tree.t array;
  config : Config.t;
  store : Pagestore.Store.t;
}

(** [uniform_boundaries ~partitions ~prefix ()] splits a decimal-digit key
    space (e.g. YCSB's ["user<digits>"]) into equal ranges. *)
let uniform_boundaries ?(prefix = "user") ~partitions () =
  if partitions < 1 then invalid_arg "Partitioned.uniform_boundaries";
  List.init (partitions - 1) (fun i ->
      (* boundary at fraction (i+1)/partitions of the 2-digit prefix space *)
      let frac = float_of_int (i + 1) /. float_of_int partitions in
      Printf.sprintf "%s%02d" prefix (int_of_float (frac *. 100.0) |> min 99))
  |> List.sort_uniq String.compare

(** [create ?config ?c0_share ~boundaries store] builds one sub-tree per
    range. [c0_share] is each partition's slice of the C0 write pool:
    [`Static] divides it evenly (worst-case-safe: aggregate RAM is exactly
    the budget); [`Shared] gives every partition the full budget, modelling
    the shared write pool of partitioned exponential files — correct
    whenever write skew keeps only a few ranges hot at a time, which is
    precisely the workload partitioning exists for. *)
let create ?(config = Config.default) ?(c0_share = `Static) ~boundaries store =
  let boundaries = List.sort_uniq String.compare boundaries |> Array.of_list in
  let n = Array.length boundaries + 1 in
  let per_partition_c0 =
    match c0_share with
    | `Static -> max (64 * 1024) (config.Config.c0_bytes / n)
    | `Shared -> config.Config.c0_bytes
  in
  let per_partition_config = { config with Config.c0_bytes = per_partition_c0 } in
  {
    boundaries;
    partitions =
      Array.init n (fun i ->
          Tree.create ~config:per_partition_config
            ~root_slot:(Printf.sprintf "partition-%03d" i)
            store);
    config;
    store;
  }

let partition_count t = Array.length t.partitions

(* The rightmost partition whose lower bound <= key: the number of
   boundaries <= key, by binary search. *)
let partition_index t key =
  let lo = ref 0 and hi = ref (Array.length t.boundaries) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare t.boundaries.(mid) key <= 0 then lo := mid + 1
    else hi := mid
  done;
  !lo

let partition_of t key = t.partitions.(partition_index t key)

(** {1 Point operations: routed to one partition} *)

let put t key value = Tree.put (partition_of t key) key value
let get t key = Tree.get (partition_of t key) key
let delete t key = Tree.delete (partition_of t key) key
let apply_delta t key d = Tree.apply_delta (partition_of t key) key d

let read_modify_write t key f = Tree.read_modify_write (partition_of t key) key f

let insert_if_absent t key value =
  Tree.insert_if_absent (partition_of t key) key value

(** [write_batch t ops] applies [ops] atomically even when the batch
    straddles partition boundaries. All partitions share one WAL, so one
    log record can cover the whole batch: we pace every involved
    partition, append a single combined record, then fold each
    partition's slice into its C0 under that record's LSN. Recovery
    replays the shared record into every partition through its
    [should_replay] range filter, so after a crash either the whole
    batch is recovered or none of it. The append is timed as a single
    tree's write times it, and its cost is split across the covered
    partitions' WAL time by their slices' payload bytes; one [tree]/
    [batch] span covers the whole write. *)
let write_batch t ops =
  if ops <> [] then begin
    let tr = Pagestore.Store.trace t.store in
    let traced = Obs.Trace.enabled tr in
    let ts = if traced then Obs.Trace.now_us tr else 0.0 in
    let n = Array.length t.partitions in
    let slices = Array.make n [] in
    List.iter
      (fun (k, e) ->
        let i = partition_index t k in
        slices.(i) <- (k, e) :: slices.(i))
      ops;
    let bytes = Array.map Lsm_shell.payload_bytes slices in
    Array.iteri
      (fun i slice ->
        if slice <> [] then Tree.before_write t.partitions.(i) ~write_bytes:bytes.(i))
      slices;
    let t_wal = Pagestore.Store.now_us t.store in
    let lsn = Lsm_shell.append_ops (Pagestore.Store.wal t.store) ops in
    let wal_us = Pagestore.Store.now_us t.store -. t_wal in
    (* Shares by payload bytes; the partition holding the last of them
       takes what is left, so the shares sum to the append's cost. *)
    let total = Array.fold_left ( + ) 0 bytes in
    let bytes_left = ref total and us_left = ref wal_us in
    Array.iteri
      (fun i slice ->
        if slice <> [] then begin
          let share =
            if bytes.(i) = !bytes_left then !us_left
            else wal_us *. float_of_int bytes.(i) /. float_of_int total
          in
          bytes_left := !bytes_left - bytes.(i);
          us_left := !us_left -. share;
          Tree.absorb_batch t.partitions.(i) ~lsn ~wal_us:share (List.rev slice)
        end)
      slices;
    if traced then begin
      let sum f =
        Array.fold_left ( +. ) 0.0
          (Array.mapi
             (fun i slice -> if slice = [] then 0.0 else f (Tree.last_stall t.partitions.(i)))
             slices)
      in
      Obs.Trace.complete tr ~cat:"tree" ~name:"batch" ~ts_us:ts
        ~dur_us:(Obs.Trace.now_us tr -. ts)
        ~args:
          [ ("stall_us", Obs.Trace.F (sum (fun b -> b.Lsm_shell.sb_total_us)));
            ("merge1_us", Obs.Trace.F (sum (fun b -> b.Lsm_shell.sb_merge1_us)));
            ("merge2_us", Obs.Trace.F (sum (fun b -> b.Lsm_shell.sb_merge2_us)));
            ("hard_us", Obs.Trace.F (sum (fun b -> b.Lsm_shell.sb_hard_us)));
            ("wal_us", Obs.Trace.F wal_us);
            ("partitions", Obs.Trace.I (sum (fun _ -> 1.0) |> int_of_float)) ]
    end
  end

(** {1 Scans: chained across partitions} *)

let scan t start n =
  let first = partition_index t start in
  let rec go i start acc n =
    if n <= 0 || i >= Array.length t.partitions then List.rev acc
    else begin
      let rows = Tree.scan t.partitions.(i) start n in
      let acc = List.rev_append rows acc in
      let n = n - List.length rows in
      let next_start = if i < Array.length t.boundaries then t.boundaries.(i) else "" in
      go (i + 1) next_start acc n
    end
  in
  go first start [] n

(** A streaming cursor chaining the partitions' cursors in key order. *)
type cursor = {
  pt : t;
  mutable part : int;
  mutable inner : Tree.cursor;
}

let cursor ?(from = "") t =
  let part = partition_index t from in
  { pt = t; part; inner = Tree.cursor ~from t.partitions.(part) }

let rec cursor_next c =
  match Tree.cursor_next c.inner with
  | Some row -> Some row
  | None ->
      if c.part + 1 >= Array.length c.pt.partitions then None
      else begin
        let from = c.pt.boundaries.(c.part) in
        c.part <- c.part + 1;
        c.inner <- Tree.cursor ~from c.pt.partitions.(c.part);
        cursor_next c
      end

(** {1 Maintenance / recovery / stats} *)

let maintenance t = Array.iter Tree.maintenance t.partitions
let flush t = Array.iter Tree.flush t.partitions

let range_of t i =
  let lower = if i = 0 then None else Some t.boundaries.(i - 1) in
  let upper =
    if i < Array.length t.boundaries then Some t.boundaries.(i) else None
  in
  fun key ->
    (match lower with Some l -> String.compare key l >= 0 | None -> true)
    && match upper with Some u -> String.compare key u < 0 | None -> true

(** [crash_and_recover t] power-fails the shared store once and recovers
    every partition: each reads back its own root slot and replays only
    its key range from the shared log (whose truncation respected every
    partition's floor). *)
let crash_and_recover t =
  {
    t with
    partitions =
      Array.mapi
        (fun i tree -> Tree.crash_and_recover ~should_replay:(range_of t i) tree)
        t.partitions;
  }

(** Aggregate level view, tagged with partition indexes. *)
let levels t =
  Array.to_list t.partitions
  |> List.mapi (fun i p -> List.map (fun l -> (i, l)) (Tree.levels p))
  |> List.concat

let total_hard_stalls t =
  Array.fold_left
    (fun acc p -> acc + (Tree.stats p).Tree.hard_stalls)
    0 t.partitions

let total_merges t =
  Array.fold_left
    (fun acc p ->
      let ms = Tree.merge_stats p in
      acc + ms.Tree.merge1_completions + ms.Tree.merge2_completions)
    0 t.partitions

let disk t = Pagestore.Store.disk t.store

(** Per-partition on-disk bytes: shows merge activity concentrating on
    written ranges (Figure 3's motivation). *)
let partition_bytes t =
  Array.map Tree.disk_data_bytes t.partitions

(** Live per-partition op counters, partition order. *)
let partition_stats t = Array.map Tree.stats t.partitions

(** [scrub t] verifies every partition's components plus the shared WAL
    (once per partition — the log is shared, so each pass re-checks it).
    Clean iff every per-partition report is clean. *)
let scrub t = Array.to_list t.partitions |> List.map Tree.scrub

(** [metrics t] aggregates the partitions' op counters under
    [partitioned.*] and registers the shared store stack. Built fresh on
    each call — partitions are replaced wholesale by
    {!crash_and_recover}, so closures must capture [t]'s current array,
    and the caller is expected to rebuild after recovery. *)
let metrics t =
  let reg = Obs.Metrics.create () in
  let open Obs.Metrics in
  let sum f = Array.fold_left (fun a p -> a + f (Tree.stats p)) 0 t.partitions in
  let sum_ms f = Array.fold_left (fun a p -> a + f (Tree.merge_stats p)) 0 t.partitions in
  counter reg "partitioned.partitions" ~help:"partition count" (fun () ->
      Array.length t.partitions);
  counter reg "partitioned.puts" ~help:"blind writes, all partitions"
    (fun () -> sum (fun s -> s.Tree.puts));
  counter reg "partitioned.gets" ~help:"point lookups, all partitions"
    (fun () -> sum (fun s -> s.Tree.gets));
  counter reg "partitioned.deletes" ~help:"tombstone writes, all partitions"
    (fun () -> sum (fun s -> s.Tree.deletes));
  counter reg "partitioned.deltas" ~help:"delta writes, all partitions"
    (fun () -> sum (fun s -> s.Tree.deltas));
  counter reg "partitioned.scans" ~help:"range scans, all partitions"
    (fun () -> sum (fun s -> s.Tree.scans));
  counter reg "partitioned.rmws" ~help:"read-modify-writes, all partitions"
    (fun () -> sum (fun s -> s.Tree.rmws));
  counter reg "partitioned.merge1_completions"
    ~help:"C0:C1 runs committed, all partitions" (fun () ->
      sum_ms (fun s -> s.Tree.merge1_completions));
  counter reg "partitioned.merge2_completions"
    ~help:"C1':C2 merges committed, all partitions" (fun () ->
      sum_ms (fun s -> s.Tree.merge2_completions));
  counter reg "partitioned.hard_stalls"
    ~help:"writes that hit a C0 hard limit, all partitions" (fun () ->
      sum (fun s -> s.Tree.hard_stalls));
  counter reg "partitioned.corruptions_detected"
    ~help:"checksum mismatches seen, all partitions" (fun () ->
      sum (fun s -> s.Tree.corruptions_detected));
  Pagestore.Store.register_metrics reg t.store;
  reg

let engine ?(name = "bLSM(partitioned)") t =
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
