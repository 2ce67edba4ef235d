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
  mutable hard_stalls : int;
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

(* One level's runs in the engine's order, which is also the manifest's,
   with the two read orders derived when the level changes. *)
type level = {
  runs : Component.t list;
  newest : Component.t array;  (* timestamp descending: point reads *)
  chain : Component.t list option;
      (* by min key, when the runs are pairwise key-disjoint: scans *)
}

type pull = unit -> (string * Kv.Entry.t * int) option
type memory = string -> (Kv.Entry.t option -> bool) -> bool

type hooks = {
  pace : write_bytes:int -> unit;
  memtable : unit -> Memtable.t;
  memory : memory;
  memory_pulls : string -> pull list;
}

type t = {
  config : Config.t;
  store : Pagestore.Store.t;
  names : string array;
  levels : level array;
  slot : string;  (* the root slot the manifest commits to *)
  mutable stamp : int;  (* next component timestamp to issue *)
  mutable generation : int;  (* bumped by every {!set_runs} *)
  mutable floor_lsn : int;  (* every record below it is folded into a run *)
  mutable merges : Merge_process.t list;
      (* in flight, oldest first: the uncommitted output a crash rolls back *)
  mutable retired_bloom_negative : int;
  mutable retired_bloom_false_positive : int;
  stats : stats;
  scratch : scratch;
  mutable charging : bool;  (* inside {!charge}: the outer bracket times nested work *)
  mutable observer : (stall_breakdown -> unit) option;
  mutable scan_iters : Sstable.Reader.iter list option;
      (* [Some] while {!scan} runs: the component iterators it opened,
         closed when it returns so their page buffers are reused *)
  mutable hooks : hooks;  (* the engine's, set once by {!attach} *)
  (* The point read's accumulator: [acc] is the merged state of the
     records absorbed so far, meaningful once [found]. [absorb] is built
     once, over the shell, so a lookup allocates no closure or ref. *)
  mutable found : bool;
  mutable acc : Kv.Entry.t;
  mutable absorb : Kv.Entry.t option -> bool;
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
    hard_stalls = 0;
    stall_us = Repro_util.Histogram.create ();
    stall_merge1_us = 0.0;
    stall_merge2_us = 0.0;
    stall_hard_us = 0.0;
    wal_us = 0.0;
    recovery_us = 0.0;
  }

let empty_level = { runs = []; newest = [||]; chain = Some [] }

let detached _ = invalid_arg "Lsm_shell: no engine attached"
let no_hooks = { pace = (fun ~write_bytes -> detached write_bytes); memtable = detached;
                 memory = detached; memory_pulls = detached }

(* Fold one record state, newest first, into the lookup's accumulator;
   [true] once it settles the read (a base or tombstone with early
   termination on). *)
let absorb_into sh = function
  | None -> false
  | Some e -> (
      let merged =
        if sh.found then Kv.Entry.merge sh.config.Config.resolver ~newer:sh.acc ~older:e
        else e
      in
      sh.found <- true;
      sh.acc <- merged;
      match merged with
      | Kv.Entry.Base _ | Kv.Entry.Tombstone -> sh.config.Config.early_termination
      | Kv.Entry.Delta _ -> false)

let create config store ~level_names ~slot =
  let sh =
  {
    config;
    store;
    names = level_names;
    levels = Array.map (fun _ -> empty_level) level_names;
    slot;
    stamp = 1;
    generation = 0;
    floor_lsn = 0;
    merges = [];
    retired_bloom_negative = 0;
    retired_bloom_false_positive = 0;
    stats = fresh_stats ();
    scratch =
      { sc_merge1_us = 0.0; sc_merge2_us = 0.0; sc_hard_us = 0.0;
        sc_wal_us = 0.0; sc_total_us = 0.0 };
    charging = false;
    observer = None;
    scan_iters = None;
    hooks = no_hooks;
    found = false;
    acc = Kv.Entry.Tombstone;
    absorb = (fun _ -> false);
  }
  in
  sh.absorb <- absorb_into sh;
  sh

let attach sh hooks = sh.hooks <- hooks
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

(* {1 The component set} *)

let min_key c = Sstable.Reader.min_key c.Component.sst
let max_key c = Sstable.Reader.max_key c.Component.sst

(* Does [c]'s key range cover [key]? Reads check it before the filter. *)
let covers c key =
  String.compare (min_key c) key <= 0 && String.compare key (max_key c) <= 0

let runs sh lvl = sh.levels.(lvl).runs
let generation sh = sh.generation

let set_runs sh lvl runs =
  let newest = Array.of_list runs in
  Array.stable_sort
    (fun a b -> Int.compare (Component.timestamp b) (Component.timestamp a))
    newest;
  let by_min = List.stable_sort (fun a b -> String.compare (min_key a) (min_key b)) runs in
  let rec disjoint = function
    | a :: (b :: _ as rest) -> String.compare (max_key a) (min_key b) < 0 && disjoint rest
    | [ _ ] | [] -> true
  in
  sh.levels.(lvl) <-
    { runs; newest; chain = (if disjoint by_min then Some by_min else None) };
  sh.generation <- sh.generation + 1

(* Every run with its level index, level order. *)
let indexed sh =
  List.concat
    (Array.to_list (Array.mapi (fun lvl l -> List.map (fun c -> (lvl, c)) l.runs) sh.levels))

let components sh = List.map (fun (lvl, c) -> (sh.names.(lvl), c)) (indexed sh)

let fold_runs sh f acc =
  Array.fold_left (fun acc l -> List.fold_left f acc l.runs) acc sh.levels

let retire sh cs =
  List.iter
    (fun (c : Component.t) ->
      sh.retired_bloom_negative <- sh.retired_bloom_negative + c.bloom_negative;
      sh.retired_bloom_false_positive <-
        sh.retired_bloom_false_positive + c.bloom_false_positive;
      Component.free c)
    cs

(* Closure-free: [Tree]'s pacing reads it on every write. *)
let data_bytes sh =
  Array.fold_left
    (fun a l -> List.fold_left (fun a c -> a + Component.data_bytes c) a l.runs)
    0 sh.levels

let bloom_bytes sh =
  fold_runs sh
    (fun a c -> match c.Component.bloom with Some b -> a + Bloom.size_bytes b | None -> a)
    0

let bloom_negative sh =
  fold_runs sh (fun a c -> a + c.Component.bloom_negative) sh.retired_bloom_negative

let bloom_false_positive sh =
  fold_runs sh
    (fun a c -> a + c.Component.bloom_false_positive)
    sh.retired_bloom_false_positive

let component_footers sh =
  List.map (fun (name, c) -> (name, Sstable.Reader.footer c.Component.sst)) (components sh)

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
   the window. Only the outermost bracket times, so nested work (steps
   inside a hard stall) lands once, in the outer bucket. *)
let charge sh bucket f =
  if sh.charging then f ()
  else begin
    sh.charging <- true;
    let t0 = now sh in
    Fun.protect f ~finally:(fun () ->
        sh.charging <- false;
        let dt = now sh -. t0 in
        let sc = sh.scratch in
        match bucket with
        | `Merge1 -> sc.sc_merge1_us <- sc.sc_merge1_us +. dt
        | `Merge2 -> sc.sc_merge2_us <- sc.sc_merge2_us +. dt
        | `Hard -> sc.sc_hard_us <- sc.sc_hard_us +. dt)
  end

(* {1 Pacing mechanism} *)

let chunk = 64 * 1024

let step sh bucket m ~quota ~finish =
  charge sh bucket (fun () ->
      let r = Merge_process.step m ~quota in
      if r = `Done then finish ();
      r)

let spend ~budget step =
  let rec go spent =
    if spent < budget then
      let quota = min chunk (budget - spent) in
      match step ~quota with `Spent -> go (spent + quota) | `Free -> go spent | `Stop -> ()
  in
  go 0

let hard_stall sh f =
  sh.stats.hard_stalls <- sh.stats.hard_stalls + 1;
  charge sh `Hard f

(* The stall window: one write's pacing, timed and split into buckets. *)
let pace sh ~write_bytes =
  let sc = sh.scratch in
  sc.sc_merge1_us <- 0.0;
  sc.sc_merge2_us <- 0.0;
  sc.sc_hard_us <- 0.0;
  sc.sc_wal_us <- 0.0;
  sc.sc_total_us <- 0.0;
  let t0 = now sh in
  sh.hooks.pace ~write_bytes;
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

(* A batch's exact payload size: the count, then each key's length and
   bytes and its entry. *)
let ops_size ops =
  List.fold_left
    (fun a (key, entry) ->
      let klen = String.length key in
      a + Repro_util.Varint.size klen + klen + Kv.Entry.encoded_size entry)
    (Repro_util.Varint.size (List.length ops))
    ops

let rec write_list b pos = function
  | [] -> ()
  | (key, entry) :: rest ->
      let klen = String.length key in
      let pos = Repro_util.Varint.set b pos klen in
      Bytes.blit_string key 0 b pos klen;
      write_list b (Kv.Entry.write b (pos + klen) entry) rest

(* Write a batch's payload into [b] at [pos]: the one encoder, which
   writes straight into the WAL frame. *)
let write_ops ops b pos =
  write_list b (Repro_util.Varint.set b pos (List.length ops)) ops

let encode_ops ops =
  let b = Bytes.create (ops_size ops) in
  write_ops ops b 0;
  Bytes.unsafe_to_string b

let append_ops wal ops = Pagestore.Wal.append_with wal ~len:(ops_size ops) write_ops ops

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

let rec memtable_write mem lsn = function
  | [] -> ()
  | (key, entry) :: rest ->
      Memtable.write mem ~lsn key entry;
      memtable_write mem lsn rest

let absorb sh ~lsn ops =
  memtable_write (sh.hooks.memtable ()) lsn ops;
  sh.stats.user_bytes_written <- sh.stats.user_bytes_written + payload_bytes ops

(* Inlined, so a write's WAL time is added unboxed. *)
let[@inline] charge_wal sh us =
  sh.scratch.sc_wal_us <- sh.scratch.sc_wal_us +. us;
  sh.stats.wal_us <- sh.stats.wal_us +. us

(* Pace, log (timed as WAL time), absorb. *)
let write sh ~op ops =
  let tr = Pagestore.Store.trace sh.store in
  let traced = Obs.Trace.enabled tr in
  let ts = if traced then Obs.Trace.now_us tr else 0.0 in
  pace sh ~write_bytes:(payload_bytes ops);
  let t_wal = now sh in
  let lsn = append_ops (Pagestore.Store.wal sh.store) ops in
  charge_wal sh (now sh -. t_wal);
  absorb sh ~lsn ops;
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
          ("c0_fill", Obs.Trace.F (fill sh (sh.hooks.memtable ()))) ]
  end

let put sh key value =
  sh.stats.puts <- sh.stats.puts + 1;
  write sh ~op:"put" [ (key, Kv.Entry.Base value) ]

let delete sh key =
  sh.stats.deletes <- sh.stats.deletes + 1;
  write sh ~op:"delete" [ (key, Kv.Entry.Tombstone) ]

let apply_delta sh key d =
  sh.stats.deltas <- sh.stats.deltas + 1;
  write sh ~op:"delta" [ (key, Kv.Entry.Delta [ d ]) ]

let write_batch sh ops =
  if ops <> [] then begin
    write sh ~op:"batch" ops;
    sh.stats.puts <- sh.stats.puts + List.length ops
  end

(* {1 Read path} *)

(* [c]'s record for [key], rot typed at [lvl]. Closure-free: a point read
   allocates nothing per component it skips or probes. *)
let read_run sh lvl c key =
  match Component.get c key with
  | r -> r
  | exception Sstable.Sst_format.Corrupt { what; page } -> corrupt sh ~level:sh.names.(lvl) what page

(* Within a level the runs covering [key], newest first; levels top down;
   stops at the first [absorb] that returns true. *)
let rec probe_runs sh key lvl rs i =
  i < Array.length rs
  && ((covers rs.(i) key && sh.absorb (read_run sh lvl rs.(i) key))
     || probe_runs sh key lvl rs (i + 1))

let rec probe_levels sh key lvl =
  lvl < Array.length sh.levels
  && (probe_runs sh key lvl sh.levels.(lvl).newest 0 || probe_levels sh key (lvl + 1))

(* Fold [key]'s states into the accumulator; [sh.found] says whether
   any was found, [sh.acc] what they merge to. *)
let accumulate sh key =
  sh.found <- false;
  ignore (sh.hooks.memory key sh.absorb || probe_levels sh key 0)

let value sh e = Kv.Entry.value sh.config.Config.resolver e

(* The user-visible value of [key]: the accumulator read in place. *)
let lookup_value sh key =
  accumulate sh key;
  if not sh.found then None
  else
    match sh.acc with
    | Kv.Entry.Base v -> Some v
    | Kv.Entry.Tombstone -> None
    | Kv.Entry.Delta _ as e -> value sh (Some e)

let get sh key =
  sh.stats.gets <- sh.stats.gets + 1;
  let tr = Pagestore.Store.trace sh.store in
  if not (Obs.Trace.enabled tr) then lookup_value sh key
  else begin
    let ts = Obs.Trace.now_us tr in
    let r = lookup_value sh key in
    Obs.Trace.complete tr ~cat:"tree" ~name:"get" ~ts_us:ts
      ~dur_us:(Obs.Trace.now_us tr -. ts)
      ~args:[ ("found", Obs.Trace.B (r <> None)) ];
    r
  end

let read_modify_write sh key f =
  sh.stats.rmws <- sh.stats.rmws + 1;
  let v = lookup_value sh key in
  write sh ~op:"rmw" [ (key, Kv.Entry.Base (f v)) ]

let insert_if_absent sh key v =
  sh.stats.checked_inserts <- sh.stats.checked_inserts + 1;
  let disk = Pagestore.Store.disk sh.store in
  let before = (Simdisk.Disk.snapshot disk).Simdisk.Disk.seeks in
  let existing = lookup_value sh key in
  if (Simdisk.Disk.snapshot disk).Simdisk.Disk.seeks = before then
    sh.stats.checked_insert_seekfree <- sh.stats.checked_insert_seekfree + 1;
  match existing with
  | Some _ -> false
  | None ->
      write sh ~op:"insert_if_absent" [ (key, Kv.Entry.Base v) ];
      true

(* {1 Scans} *)

let component_pull sh ~level ~from c : pull =
  guard sh ~level (fun () ->
      let it = Component.iterator ?from c in
      Option.iter (fun its -> sh.scan_iters <- Some (it :: its)) sh.scan_iters;
      (* one thunk per stream, not one per pull *)
      let next () = Sstable.Reader.iter_next_full it in
      fun () -> guard sh ~level next)

(* Key-disjoint runs sorted by min key as one ordered stream, opening
   each only when the previous one runs dry; [from] positions the first.
   One run is its own stream. *)
let chain sh ~level ~from = function
  | [ c ] -> component_pull sh ~level ~from c
  | comps ->
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
                cur := Some (component_pull sh ~level ~from:!from c);
                from := None;
                next ())
      in
      next

(* A level's scan sources, freshest first: key-disjoint runs chain into
   one source that skips runs ending before [from], so a short scan seeks
   once per such level; overlapping runs each get one, newest first. *)
let level_pulls sh ~from lvl =
  let level = sh.names.(lvl) in
  match sh.levels.(lvl).chain with
  | Some by_min -> (
      match List.filter (fun c -> String.compare (max_key c) from >= 0) by_min with
      | [] -> []
      | live -> [ chain sh ~level ~from:(Some from) live ])
  | None ->
      List.map (component_pull sh ~level ~from:(Some from)) (Array.to_list sh.levels.(lvl).newest)

(* The memory side's pulls, then the levels top down, each opened in
   that order: a rotted run raises before any run behind it is read. *)
let scan_pulls sh from =
  let mem = sh.hooks.memory_pulls from in
  mem @ List.concat (List.init (Array.length sh.levels) (level_pulls sh ~from))

type cursor = Sstable.Merge_iter.t

let cursor sh from =
  sh.stats.scans <- sh.stats.scans + 1;
  Sstable.Merge_iter.create ~resolver:sh.config.Config.resolver
    ~drop_tombstones:true
    (List.mapi (fun i pull -> (i, pull)) (scan_pulls sh from))

(* drop_tombstones output is Base-only: deltas arrive resolved *)
let rec cursor_next c =
  match Sstable.Merge_iter.next c with
  | None -> None
  | Some (key, Kv.Entry.Base v, _) -> Some (key, v)
  | Some (_, (Kv.Entry.Delta _ | Kv.Entry.Tombstone), _) -> cursor_next c

let scan sh start n =
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
      (fun () -> collect (cursor sh start) [] n)
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

(* {2 The manifest (§4.4 commit record)}

   "LSMM" | stamp | floor_lsn | count | (level, blob length, footer blob)*
   | u32 LE CRC32C of every byte before it. The seal catches any flipped
   bit and all but 2^-32 of torn prefixes; the bounds checks the rest. *)

type manifest = { stamp : int; floor_lsn : int; components : (int * string) list }

let magic = "LSMM"

let encode_manifest m =
  let buf = Buffer.create 512 in
  let w = Repro_util.Varint.write buf in
  Buffer.add_string buf magic;
  List.iter w [ m.stamp; m.floor_lsn; List.length m.components ];
  List.iter
    (fun (level, blob) ->
      List.iter w [ level; String.length blob ];
      Buffer.add_string buf blob)
    m.components;
  Buffer.add_int32_le buf (Int32.of_int (Repro_util.Crc32c.string (Buffer.contents buf)));
  Buffer.contents buf

let decode_manifest ~levels s =
  let bad what = raise (Corruption { level = "manifest"; what; page_or_lsn = -1 }) in
  let body = String.length s - 4 in
  if body < String.length magic || not (String.starts_with ~prefix:magic s) then bad "magic";
  if
    Int32.to_int (String.get_int32_le s body) land 0xFFFF_FFFF
    <> Repro_util.Crc32c.update 0xFFFF_FFFF s 0 body lxor 0xFFFF_FFFF
  then bad "seal";
  let pos = ref (String.length magic) in
  let int () =
    match Repro_util.Varint.read_within s !pos ~stop:body with
    | v -> pos := !pos + Repro_util.Varint.size v; v
    | exception Invalid_argument _ -> bad "encoding"
  in
  let stamp = int () in
  let floor_lsn = int () in
  let entry _ =
    let level = int () in
    let len = int () in
    if level >= levels then bad "level out of range";
    if len > body - !pos then bad "blob past the end";
    pos := !pos + len;
    (level, String.sub s (!pos - len) len)
  in
  let components = List.init (int ()) entry in
  if !pos <> body then bad "trailing bytes";
  { stamp; floor_lsn; components }

(* An absent root is an empty tree; anything else must decode. *)
let read_manifest sh =
  match Pagestore.Store.read_root ~slot:sh.slot sh.store with
  | "" -> { stamp = 1; floor_lsn = 0; components = [] }
  | root -> decode_manifest ~levels:(Array.length sh.names) root

(* Every run, level order and within a level the engine's order. *)
let commit_manifest (sh : t) =
  let components = List.map (fun (lvl, c) -> (lvl, Component.meta_blob c)) (indexed sh) in
  Pagestore.Store.commit_root ~slot:sh.slot sh.store
    (encode_manifest { stamp = sh.stamp; floor_lsn = sh.floor_lsn; components })

(* {2 The merge lifecycle (§4.4: one merge, one transaction)} *)

let start_merge (sh : t) ~label ~args ~input ~bloom_items ~output =
  let stamp () =
    let ts = sh.stamp in
    sh.stamp <- ts + 1;
    ts
  in
  let m =
    Merge_process.create ~config:sh.config ~store:sh.store ~label ~args ~input
      ~bloom_items ~output ~stamp
  in
  sh.merges <- sh.merges @ [ m ];
  m

(* A crash inside the seal is rolled back by the merge's abandon; once
   disowned, the outputs are placed before the commit, so a crash inside
   the root write leaves every region one owner: {!recover} frees the
   uncommitted outputs, and the old manifest still names what they
   replace. *)
let install sh ?floor_lsn m place =
  let outputs = Merge_process.finish m in
  sh.merges <- List.filter (fun m' -> m' != m) sh.merges;
  let replaced = place outputs in
  Option.iter (fun lsn -> sh.floor_lsn <- lsn) floor_lsn;
  commit_manifest sh;
  retire sh replaced

let recover (sh : t) ~crashed ~verify ~covered ~resume ~keep =
  (* Roll back the uncommitted merges while the allocator is coherent,
     as Stasis would abort their transactions. *)
  List.iter Merge_process.abandon crashed.merges;
  crashed.merges <- [];
  let t0 = now sh in
  Pagestore.Store.crash sh.store;
  let m = read_manifest sh in
  sh.stamp <- m.stamp;
  sh.floor_lsn <- m.floor_lsn;
  (* A run the crashed engine installed but never committed has no owner
     now that its merges are abandoned: free it. *)
  List.iter
    (fun (_, c) ->
      let blob = Component.meta_blob c in
      if not (List.exists (fun (_, b) -> String.equal b blob) m.components) then
        Component.free c)
    (indexed crashed);
  (* Runs land in manifest order, which {!commit_manifest} writes level
     by level in each level's own order. *)
  let placed = Array.make (Array.length sh.names) [] in
  List.iter
    (fun (lvl, blob) ->
      Option.iter
        (fun c -> placed.(lvl) <- c :: placed.(lvl))
        (mount sh ~level:sh.names.(lvl) ~verify ~covered blob))
    m.components;
  Array.iteri (fun lvl cs -> set_runs sh lvl (List.rev cs)) placed;
  let mounted = Array.fold_left (fun a cs -> a + List.length cs) 0 placed in
  resume ();
  let memtable = sh.hooks.memtable () in
  (* Mid-log rot: power loss cannot explain it, and silently skipping a
     record would resurrect overwritten state. A torn tail is truncated
     by the log itself. *)
  (match
     Pagestore.Wal.replay (Pagestore.Store.wal sh.store) ~from_lsn:m.floor_lsn
       (fun lsn payload ->
         List.iter
           (fun (key, entry) -> if keep lsn key then Memtable.write memtable ~lsn key entry)
           (decode_ops payload))
   with
  | () -> ()
  | exception Pagestore.Wal.Corrupt { what; lsn } -> corrupt sh ~level:"WAL" what lsn);
  (* A dropped component's regions are free again: commit the set
     without it before anything can reuse them. *)
  if mounted < List.length m.components then commit_manifest sh;
  let s = sh.stats in
  let dt = now sh -. t0 in
  s.recovery_us <- s.recovery_us +. dt;
  let tr = Pagestore.Store.trace sh.store in
  if Obs.Trace.enabled tr then
    Obs.Trace.complete tr ~cat:"tree" ~name:"recovery" ~ts_us:t0 ~dur_us:dt
      ~args:
        [ ("rebuilds", Obs.Trace.I s.component_rebuilds);
          ("replayed_c0_bytes", Obs.Trace.I (Memtable.bytes memtable)) ]

(* {1 Scrubbing} *)

type scrub_report = {
  scrub_errors : (string * string * int) list;
  scrub_wal_records : int;
  scrub_clean : bool;
}

let scrub sh =
  sh.stats.scrubs <- sh.stats.scrubs + 1;
  let wal_records, wal_errs = Pagestore.Wal.verify (Pagestore.Store.wal sh.store) in
  let errors =
    List.concat_map
      (fun (level, c) ->
        List.map
          (fun (what, page) -> (level, what, page))
          (Sstable.Reader.verify c.Component.sst))
      (components sh)
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
  counter "scrubs" "scrub passes" (fun () -> s.scrubs);
  counter "hard_stalls" "writes blocked until merges made room" (fun () -> s.hard_stalls);
  Obs.Metrics.gauge reg (prefix ^ ".recovery_us") ~help:"recovery replay/rebuild time, µs"
    (fun () -> s.recovery_us)

(* {1 Engine adapter} *)

let engine sh ~name ~maintenance =
  { Kv.Kv_intf.name; disk = Pagestore.Store.disk sh.store; get = get sh; put = put sh;
    delete = delete sh; apply_delta = apply_delta sh; read_modify_write = read_modify_write sh;
    insert_if_absent = insert_if_absent sh; scan = scan sh; maintenance }
