(* The engine shell every LSM engine runs on; the contract is in
   lsm_shell.mli. *)

exception Corruption of { level : string; what : string; page_or_lsn : int }

(* The exception's public name is [Tree.Corruption] (re-exported there);
   print it under that name, exactly as the default printer would. *)
let () =
  Printexc.register_printer (function
    | Corruption { level; what; page_or_lsn } ->
        Some
          (Printf.sprintf "Blsm.Tree.Corruption(%S, %S, %d)" level what
             page_or_lsn)
    | _ -> None)

type stats = {
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
  (* merge1 + merge2 + hard tile the histogram's total within float
     rounding; WAL and recovery time are charged outside the window. *)
  mutable stall_merge1_us : float;
  mutable stall_merge2_us : float;
  mutable stall_hard_us : float;
  mutable wal_us : float;
  mutable recovery_us : float;
}

type stall_breakdown = {
  sb_merge1_us : float;
  sb_merge2_us : float;
  sb_hard_us : float;
  sb_wal_us : float;
  sb_total_us : float;
}

(* Mutable scratch behind {!stall_breakdown}, reset per write. *)
type scratch = {
  mutable sc_merge1_us : float;
  mutable sc_merge2_us : float;
  mutable sc_hard_us : float;
  mutable sc_wal_us : float;
  mutable sc_total_us : float;
}

type t = {
  config : Config.t;
  store : Pagestore.Store.t;
  stats : stats;
  scratch : scratch;
  mutable observer : (stall_breakdown -> unit) option;
  mutable scan_iters : Sstable.Reader.iter list option;
      (* [Some] while {!scan} runs: the component iterators it opened,
         closed when it returns so their page buffers are reused *)
}

let fresh_stats () =
  {
    puts = 0;
    gets = 0;
    deletes = 0;
    deltas = 0;
    scans = 0;
    rmws = 0;
    checked_inserts = 0;
    checked_insert_seekfree = 0;
    user_bytes_written = 0;
    corruptions_detected = 0;
    component_rebuilds = 0;
    quarantined_components = 0;
    scrubs = 0;
    stall_us = Repro_util.Histogram.create ();
    stall_merge1_us = 0.0;
    stall_merge2_us = 0.0;
    stall_hard_us = 0.0;
    wal_us = 0.0;
    recovery_us = 0.0;
  }

let create config store =
  {
    config;
    store;
    stats = fresh_stats ();
    scratch =
      { sc_merge1_us = 0.0; sc_merge2_us = 0.0; sc_hard_us = 0.0;
        sc_wal_us = 0.0; sc_total_us = 0.0 };
    observer = None;
    scan_iters = None;
  }

let stats sh = sh.stats
let now sh = Pagestore.Store.now_us sh.store

(* {1 Typed corruption} *)

let corrupt sh ~level what page_or_lsn =
  sh.stats.corruptions_detected <- sh.stats.corruptions_detected + 1;
  raise (Corruption { level; what; page_or_lsn })

(* Readers verify before decoding, so rot either surfaces here or is
   masked. {!Simdisk.Faults.Crash_point} passes through untouched. *)
let guard sh ~level f =
  try f () with Sstable.Sst_format.Corrupt { what; page } -> corrupt sh ~level what page

(* {1 Stall window} *)

let breakdown sc ~wal_us =
  {
    sb_merge1_us = sc.sc_merge1_us;
    sb_merge2_us = sc.sc_merge2_us;
    sb_hard_us = sc.sc_hard_us;
    sb_wal_us = wal_us;
    sb_total_us = sc.sc_total_us;
  }

let last_stall sh = breakdown sh.scratch ~wal_us:sh.scratch.sc_wal_us
let on_stall sh f = sh.observer <- Some f

(* The simulated clock only advances inside disk operations, and during
   pacing those all happen inside [charge]d work, so the buckets tile
   the window. *)
let charge sh bucket f =
  let t0 = now sh in
  let add () =
    let dt = now sh -. t0 in
    let sc = sh.scratch in
    match bucket with
    | `Merge1 -> sc.sc_merge1_us <- sc.sc_merge1_us +. dt
    | `Merge2 -> sc.sc_merge2_us <- sc.sc_merge2_us +. dt
    | `Hard -> sc.sc_hard_us <- sc.sc_hard_us +. dt
  in
  match f () with
  | r ->
      add ();
      r
  | exception e ->
      add ();
      raise e

let stall_window sh pace =
  let sc = sh.scratch in
  sc.sc_merge1_us <- 0.0;
  sc.sc_merge2_us <- 0.0;
  sc.sc_hard_us <- 0.0;
  sc.sc_wal_us <- 0.0;
  sc.sc_total_us <- 0.0;
  let t0 = now sh in
  pace ();
  let dt = now sh -. t0 in
  sc.sc_total_us <- dt;
  let s = sh.stats in
  s.stall_merge1_us <- s.stall_merge1_us +. sc.sc_merge1_us;
  s.stall_merge2_us <- s.stall_merge2_us +. sc.sc_merge2_us;
  s.stall_hard_us <- s.stall_hard_us +. sc.sc_hard_us;
  Repro_util.Histogram.add s.stall_us (int_of_float dt);
  match sh.observer with None -> () | Some f -> f (breakdown sc ~wal_us:0.0)

(* {1 Write-ahead log records}

   One log record carries an atomic batch of operations (usually a
   single one): replay applies a record's operations together, which is
   what makes a batch all-or-nothing across crashes. *)

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
  let rec go n pos acc =
    if n = 0 then List.rev acc
    else
      let klen, p = Repro_util.Varint.read s pos in
      let key = String.sub s p klen in
      let entry, p = Kv.Entry.decode s (p + klen) in
      go (n - 1) p ((key, entry) :: acc)
  in
  go count pos []

(* {1 Write path} *)

let payload_bytes ops =
  List.fold_left (fun a (k, e) -> a + String.length k + Kv.Entry.payload_bytes e) 0 ops

let fill sh mem =
  float_of_int (Memtable.bytes mem) /. float_of_int (Config.c0_capacity sh.config)

let write sh ~pace ~memtable ~op ops =
  let tr = Pagestore.Store.trace sh.store in
  let traced = Obs.Trace.enabled tr in
  let ts = if traced then Obs.Trace.now_us tr else 0.0 in
  let bytes = payload_bytes ops in
  stall_window sh (fun () -> pace ~write_bytes:bytes);
  let t_wal = now sh in
  let lsn = Pagestore.Wal.append (Pagestore.Store.wal sh.store) (encode_ops ops) in
  let wal_dt = now sh -. t_wal in
  sh.scratch.sc_wal_us <- sh.scratch.sc_wal_us +. wal_dt;
  sh.stats.wal_us <- sh.stats.wal_us +. wal_dt;
  let mem = memtable () in
  List.iter (fun (key, entry) -> Memtable.write mem ~lsn key entry) ops;
  sh.stats.user_bytes_written <- sh.stats.user_bytes_written + bytes;
  if traced then begin
    let sc = sh.scratch in
    Obs.Trace.complete tr ~cat:"tree" ~name:op ~ts_us:ts
      ~dur_us:(Obs.Trace.now_us tr -. ts)
      ~args:
        [ ("stall_us", Obs.Trace.F sc.sc_total_us);
          ("merge1_us", Obs.Trace.F sc.sc_merge1_us);
          ("merge2_us", Obs.Trace.F sc.sc_merge2_us);
          ("hard_us", Obs.Trace.F sc.sc_hard_us);
          ("wal_us", Obs.Trace.F sc.sc_wal_us);
          ("c0_fill", Obs.Trace.F (fill sh (memtable ()))) ]
  end

type writer = op:string -> (string * Kv.Entry.t) list -> unit

let put sh ~(write : writer) key value =
  sh.stats.puts <- sh.stats.puts + 1;
  write ~op:"put" [ (key, Kv.Entry.Base value) ]

let delete sh ~write key =
  sh.stats.deletes <- sh.stats.deletes + 1;
  write ~op:"delete" [ (key, Kv.Entry.Tombstone) ]

let apply_delta sh ~write key d =
  sh.stats.deltas <- sh.stats.deltas + 1;
  write ~op:"delta" [ (key, Kv.Entry.Delta [ d ]) ]

let write_batch sh ~write ops =
  if ops <> [] then begin
    write ~op:"batch" ops;
    sh.stats.puts <- sh.stats.puts + List.length ops
  end

(* {1 Read path} *)

type sources = (Kv.Entry.t option -> bool) -> bool

let lookup sh (sources : sources) =
  let early = sh.config.Config.early_termination in
  let resolver = sh.config.Config.resolver in
  let acc = ref None in
  let absorb = function
    | None -> false
    | Some e -> (
        let merged =
          match !acc with
          | None -> e
          | Some newer -> Kv.Entry.merge resolver ~newer ~older:e
        in
        acc := Some merged;
        match merged with
        | Kv.Entry.Base _ | Kv.Entry.Tombstone -> early
        | Kv.Entry.Delta _ -> false)
  in
  ignore (sources absorb);
  !acc

let value sh e = Kv.Entry.value sh.config.Config.resolver e

let get sh sources =
  sh.stats.gets <- sh.stats.gets + 1;
  let tr = Pagestore.Store.trace sh.store in
  if not (Obs.Trace.enabled tr) then value sh (lookup sh sources)
  else begin
    let ts = Obs.Trace.now_us tr in
    let r = value sh (lookup sh sources) in
    Obs.Trace.complete tr ~cat:"tree" ~name:"get" ~ts_us:ts
      ~dur_us:(Obs.Trace.now_us tr -. ts)
      ~args:[ ("found", Obs.Trace.B (r <> None)) ];
    r
  end

let read_modify_write sh ~write sources key f =
  sh.stats.rmws <- sh.stats.rmws + 1;
  let v = value sh (lookup sh sources) in
  write ~op:"rmw" [ (key, Kv.Entry.Base (f v)) ]

let insert_if_absent sh ~write sources key v =
  sh.stats.checked_inserts <- sh.stats.checked_inserts + 1;
  let disk = Pagestore.Store.disk sh.store in
  let before = (Simdisk.Disk.snapshot disk).Simdisk.Disk.seeks in
  let existing = value sh (lookup sh sources) in
  if (Simdisk.Disk.snapshot disk).Simdisk.Disk.seeks = before then
    sh.stats.checked_insert_seekfree <- sh.stats.checked_insert_seekfree + 1;
  match existing with
  | Some _ -> false
  | None ->
      write ~op:"insert_if_absent" [ (key, Kv.Entry.Base v) ];
      true

(* {1 Scans} *)

type pull = unit -> (string * Kv.Entry.t * int) option

let component_pull sh ~level ~from c : pull =
  guard sh ~level (fun () ->
      let it = Component.iterator ?from c in
      Option.iter (fun its -> sh.scan_iters <- Some (it :: its)) sh.scan_iters;
      fun () -> guard sh ~level (fun () -> Sstable.Reader.iter_next_full it))

type cursor = Sstable.Merge_iter.t

let cursor sh sources =
  sh.stats.scans <- sh.stats.scans + 1;
  Sstable.Merge_iter.create ~resolver:sh.config.Config.resolver
    ~drop_tombstones:true
    (List.mapi (fun i pull -> (i, pull)) (sources ()))

(* drop_tombstones output is Base-only: deltas arrive resolved *)
let rec cursor_next c =
  match Sstable.Merge_iter.next c with
  | None -> None
  | Some (key, Kv.Entry.Base v, _) -> Some (key, v)
  | Some (_, (Kv.Entry.Delta _ | Kv.Entry.Tombstone), _) -> cursor_next c

let scan sh sources n =
  let tr = Pagestore.Store.trace sh.store in
  let traced = Obs.Trace.enabled tr in
  let ts = if traced then Obs.Trace.now_us tr else 0.0 in
  let rec collect c acc k =
    if k = 0 then List.rev acc
    else
      match cursor_next c with
      | None -> List.rev acc
      | Some row -> collect c (row :: acc) (k - 1)
  in
  sh.scan_iters <- Some [];
  let rows =
    Fun.protect
      ~finally:(fun () ->
        Option.iter (List.iter Sstable.Reader.iter_close) sh.scan_iters;
        sh.scan_iters <- None)
      (fun () -> collect (cursor sh sources) [] n)
  in
  if traced then
    Obs.Trace.complete tr ~cat:"tree" ~name:"scan" ~ts_us:ts
      ~dur_us:(Obs.Trace.now_us tr -. ts)
      ~args:
        [ ("requested", Obs.Trace.I n);
          ("returned", Obs.Trace.I (List.length rows)) ];
  rows

(* {1 Recovery} *)

(* A component whose footer, index, data page or Bloom rebuild scan
   fails its checksum is dropped when [covered] says the log still holds
   everything folded into it (replay rebuilds it), otherwise mounted
   read-around: good pages stay readable, rotted ones raise on touch.
   An unreadable footer or index with no log cover is a typed failure.
   A rotted persisted Bloom blob is derived data — the rebuild masks it,
   so it is counted and ignored. *)
let mount sh ~level ~verify ~covered blob =
  let s = sh.stats in
  let footer =
    try Sstable.Sst_format.decode_footer blob
    with Sstable.Sst_format.Corrupt { what; page } -> corrupt sh ~level what page
  in
  let drop () =
    List.iter
      (fun (start, length) ->
        Pagestore.Store.free_region sh.store
          { Pagestore.Region_allocator.start; length })
      footer.Sstable.Sst_format.extents;
    s.component_rebuilds <- s.component_rebuilds + 1;
    None
  in
  match Sstable.Reader.open_from_disk sh.store footer with
  | exception Sstable.Sst_format.Corrupt { what; page } ->
      if covered footer then begin
        s.corruptions_detected <- s.corruptions_detected + 1;
        drop ()
      end
      else corrupt sh ~level what page
  | sst -> (
      let errs = if verify then Sstable.Reader.verify sst else [] in
      let bloom_errs, errs =
        List.partition (fun (what, _) -> what = "bloom blob checksum") errs
      in
      s.corruptions_detected <- s.corruptions_detected + List.length bloom_errs;
      let errs, bloom =
        if errs <> [] then (errs, None)
        else
          match
            Component.build_bloom
              ~bits_per_key:sh.config.Config.bloom_bits_per_key sst
          with
          | bloom -> ([], bloom)
          | exception Sstable.Sst_format.Corrupt { what; page } ->
              ([ (what, page) ], None)
      in
      match errs with
      | [] -> Some (Component.of_sst ?bloom sst)
      | _ :: _ ->
          s.corruptions_detected <- s.corruptions_detected + List.length errs;
          if covered footer then drop ()
          else begin
            s.quarantined_components <- s.quarantined_components + 1;
            Some (Component.of_sst sst)
          end)

(* Mid-log rot: power loss cannot explain it, and silently skipping a
   record would resurrect overwritten state. A torn tail is truncated by
   the log itself. *)
let replay sh ~from_lsn f =
  match
    Pagestore.Wal.replay (Pagestore.Store.wal sh.store) ~from_lsn (fun lsn payload ->
        f lsn (decode_ops payload))
  with
  | () -> ()
  | exception Pagestore.Wal.Corrupt { what; lsn } -> corrupt sh ~level:"WAL" what lsn

(* {1 Scrubbing} *)

type scrub_report = {
  scrub_errors : (string * string * int) list;
  scrub_wal_records : int;
  scrub_clean : bool;
}

let scrub sh components =
  sh.stats.scrubs <- sh.stats.scrubs + 1;
  let wal_records, wal_errs = Pagestore.Wal.verify (Pagestore.Store.wal sh.store) in
  let errors =
    List.concat_map
      (fun (level, c) ->
        List.map
          (fun (what, page) -> (level, what, page))
          (Sstable.Reader.verify c.Component.sst))
      components
    @ List.map (fun (what, lsn) -> ("WAL", what, lsn)) wal_errs
  in
  sh.stats.corruptions_detected <-
    sh.stats.corruptions_detected + List.length errors;
  { scrub_errors = errors; scrub_wal_records = wal_records; scrub_clean = errors = [] }

(* {1 Metrics} *)

let register_metrics sh reg ~prefix =
  let s = sh.stats in
  let counter name help f = Obs.Metrics.counter reg (prefix ^ "." ^ name) ~help f in
  counter "puts" "blind writes" (fun () -> s.puts);
  counter "gets" "point lookups" (fun () -> s.gets);
  counter "deletes" "tombstone writes" (fun () -> s.deletes);
  counter "deltas" "delta writes" (fun () -> s.deltas);
  counter "scans" "range scans" (fun () -> s.scans);
  counter "rmws" "read-modify-writes" (fun () -> s.rmws);
  counter "checked_inserts" "insert-if-absent calls" (fun () -> s.checked_inserts);
  counter "checked_insert_seekfree"
    "insert-if-absent resolved by Bloom filters alone" (fun () ->
      s.checked_insert_seekfree);
  counter "corruptions_detected" "checksum mismatches seen" (fun () ->
      s.corruptions_detected);
  counter "scrubs" "scrub passes" (fun () -> s.scrubs)
