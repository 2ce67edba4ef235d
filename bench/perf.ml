(** Perf regression harness (`bench perf`): machine-readable CPU numbers.

    Runs the Bechamel micro kernels plus warmed macro loops over the read
    and insert hot paths, and writes [BENCH_PR2.json] (ns/op and ops/sec
    per kernel, alongside the recorded pre-PR-2 baseline) so every later
    PR has a perf trajectory to diff against. Wall-clock numbers use
    best-of-N timing to shrug off scheduler noise; the simulated-I/O
    counters are also snapshotted around the lookup loop so the harness
    doubles as a cost-model invariance check (CPU optimizations must not
    change what the workload is charged). *)

(* Pre-PR-2 baselines: ns/op measured at commit ad00522 (the seed read
   path: per-fetch 4 KiB copy + re-CRC, linear record decode, byte-at-a-
   time CRC32C), same container, best of 5. Recorded here so the JSON
   reports both sides of the before/after comparison. *)
let baselines =
  [
    ("crc32c.4KiB", 14730.8);
    ("sstable.point_lookup.warm", 18632.4);
    ("tree.insert.c0", 2605.8);
    ("skiplist.set_find.prebuilt", 1197.6);
  ]

let baseline_ns name =
  match List.assoc_opt name baselines with
  | Some b when b > 0.0 -> Some b
  | _ -> None

(* Best-of-[repeats] wall-clock ns/op of [iters] calls to [f]. *)
(* The perf harness measures real elapsed time by design. *)
let[@lint.allow "D001"] time_best ~repeats ~iters f =
  f ();
  (* warm code paths and caches before the first timed run *)
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let ns = dt *. 1e9 /. float_of_int iters in
    if ns < !best then best := ns
  done;
  !best

(* Minor-heap words per call of [f], after one warm-up call. Allocation
   counts are exact, unlike wall time, so they are gated exactly. *)
let words_per_call ~iters f =
  f ();
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

type kernel = {
  k_name : string;
  k_ns : float;
  k_baseline : float option;
  k_group : string; (* "macro" | "bechamel" *)
}

let mk_store ~buffer_pages () =
  Pagestore.Store.create
    ~config:
      {
        Pagestore.Store.cfg_page_size = 4096;
        cfg_buffer_pages = buffer_pages;
        cfg_durability = Pagestore.Wal.None_;
      }
    Simdisk.Profile.ssd_raid0

(* ------------------------------------------------------------------ *)
(* Macro kernels *)

(* Returns (ns/op, words/op). *)
let crc_kernel ~repeats ~iters =
  let payload = String.make 4096 'x' in
  let f () = ignore (Repro_util.Crc32c.string payload) in
  (time_best ~repeats ~iters f, words_per_call ~iters f)

(* Warmed point lookup: every page of a 10k-record component fits in the
   pool, so after warmup each get is pure CPU — fence search, one pool
   hit, in-page record search. This is the paper's "one seek" path with
   the seek already paid (§3.1.1). Returns (ns/op, io_diff). *)
let lookup_records = 10_000

let lookup_key i = Printf.sprintf "key%08d" (i * 7919 mod lookup_records)

let build_lookup_sst ?(format = Sstable.Sst_format.V1) () =
  let store = mk_store ~buffer_pages:1024 () in
  let b = Sstable.Builder.create ~format ~extent_pages:256 store in
  for i = 0 to lookup_records - 1 do
    Sstable.Builder.add b
      (Printf.sprintf "key%08d" i)
      (Kv.Entry.Base (String.make 100 'v'))
  done;
  let footer = Sstable.Builder.finish b ~timestamp:1 in
  ( store,
    Sstable.Reader.open_in_ram store footer
      ~index:(Sstable.Builder.index_blob b) )

let lookup_kernel ?format ~repeats ~iters () =
  let store, sst = build_lookup_sst ?format () in
  (* warm the pool: touch every key once *)
  for i = 0 to lookup_records - 1 do
    ignore (Sstable.Reader.get sst (lookup_key i))
  done;
  let i = ref 0 in
  let ns =
    time_best ~repeats ~iters (fun () ->
        incr i;
        match Sstable.Reader.get sst (lookup_key !i) with
        | Some _ -> ()
        | None -> failwith "perf: warmed lookup missed")
  in
  (* Cost-model probe: warmed lookups must charge zero simulated I/O. *)
  let disk = Pagestore.Store.disk store in
  let before = Simdisk.Disk.snapshot disk in
  for j = 1 to 1000 do
    ignore (Sstable.Reader.get sst (lookup_key j))
  done;
  let d = Simdisk.Disk.diff before (Simdisk.Disk.snapshot disk) in
  (ns, d)

(* Returns (ns/op, trace_noop_ok): the tracer is never enabled here, so
   a single event reaching the sink would mean the "zero-cost when
   disabled" contract broke somewhere on the insert path. *)
let insert_kernel ~repeats ~iters =
  let store = mk_store ~buffer_pages:1024 () in
  let config =
    { Blsm.Config.default with Blsm.Config.c0_bytes = 512 * 1024 * 1024 }
  in
  let tree = Blsm.Tree.create ~config store in
  let i = ref 0 in
  let ns =
    time_best ~repeats ~iters (fun () ->
        incr i;
        Blsm.Tree.put tree
          (Repro_util.Keygen.key_of_id (!i mod 100_000))
          (String.make 100 'v'))
  in
  (ns, Obs.Trace.events_emitted (Pagestore.Store.trace store) = 0)

(* ------------------------------------------------------------------ *)
(* PR-7 read-path kernels: fence search, Bloom layouts, scan/miss I/O *)

(* Eytzinger fence descent vs the pre-PR-7 shape (binary search over the
   sorted first-key array), same keys, same probe stream. *)
let fence_kernel ~repeats ~iters =
  (* 32k fenced pages ~ a 128 MiB C2 at 4 KiB pages: the fence array no
     longer fits L2, which is where the BFS layout's locality pays. *)
  let n = 32_768 in
  let keys = Array.init n (Printf.sprintf "key%08d") in
  let pos = Array.init n (fun i -> i) in
  let fence = Sstable.Sst_format.Fence.of_sorted ~keys ~pos () in
  let nprobes = 8192 in
  let probes =
    Array.init nprobes (fun i -> Printf.sprintf "key%08d" (i * 7919 mod n))
  in
  let i = ref 0 in
  let ey =
    time_best ~repeats ~iters (fun () ->
        incr i;
        ignore
          (Sstable.Sst_format.Fence.locate fence
             probes.(!i land (nprobes - 1))))
  in
  let bin_locate key =
    let lo = ref 0 and hi = ref (n - 1) and res = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if String.compare keys.(mid) key <= 0 then begin
        res := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    !res
  in
  let i = ref 0 in
  let bs =
    time_best ~repeats ~iters (fun () ->
        incr i;
        ignore (bin_locate probes.(!i land (nprobes - 1))))
  in
  (ey, bs)

(* Bloom membership ns/op and minor words/op on a YCSB-C-style read-only
   mix (95% present / 5% absent) plus exact false-positive counts for
   both layouts at equal bits/key. Hashing is deterministic, so the FP
   counts are exact. *)
let bloom_fp_probes = 200_000

let bloom_kernels ~repeats ~iters =
  let n = 100_000 in
  let mk kind =
    let b = Bloom.create ~kind ~expected_items:n () in
    for i = 0 to n - 1 do
      Bloom.add b (Printf.sprintf "user%010d" i)
    done;
    b
  in
  let std = mk Bloom.Standard and blk = mk Bloom.Blocked in
  let nprobes = 8192 in
  let probes =
    Array.init nprobes (fun i ->
        if i mod 20 = 0 then Printf.sprintf "miss%010d" i
        else Printf.sprintf "user%010d" (i * 7919 mod n))
  in
  let time b =
    let i = ref 0 in
    let f () =
      incr i;
      ignore (Bloom.mem b probes.(!i land (nprobes - 1)))
    in
    (time_best ~repeats ~iters f, words_per_call ~iters f)
  in
  let std_cost = time std and blk_cost = time blk in
  let fp b =
    let c = ref 0 in
    for i = 0 to bloom_fp_probes - 1 do
      if Bloom.mem b (Printf.sprintf "absent%010d" i) then incr c
    done;
    !c
  in
  (std_cost, blk_cost, fp std, fp blk)

(* Cold read-path simulated I/O, V1 vs V2 on identical records: full
   scan and tail scan (prefix compression shrinks pages; the fence's
   zone maps let a mid-table start skip the floor page) and zone-mapped
   point misses (answered with zero I/O under V2). Sizes are fixed —
   independent of --quick — so the byte counts are exact regression
   gates, not statistics. *)
type readpath_io = {
  rp_data_pages : int;
  rp_full_scan_bytes : int;
  rp_tail_scan_bytes : int;
  rp_zone_miss_bytes : int;
}

let readpath_records = 20_000

let build_readpath_sst format =
  let store = mk_store ~buffer_pages:1024 () in
  let b = Sstable.Builder.create ~format ~extent_pages:256 store in
  for i = 0 to readpath_records - 1 do
    Sstable.Builder.add b
      (Printf.sprintf "key%08d" i)
      (Kv.Entry.Base (String.make 100 'v'))
  done;
  let footer = Sstable.Builder.finish b ~timestamp:1 in
  ( store,
    footer,
    Sstable.Reader.open_in_ram store footer
      ~index:(Sstable.Builder.index_blob b) )

let readpath_measure (store, footer, sst) ~zone_probes =
  let disk = Pagestore.Store.disk store in
  let read_bytes d =
    d.Simdisk.Disk.seq_read_bytes + d.Simdisk.Disk.random_read_bytes
  in
  let cold f =
    Pagestore.Store.crash store;
    let before = Simdisk.Disk.snapshot disk in
    f ();
    read_bytes (Simdisk.Disk.diff before (Simdisk.Disk.snapshot disk))
  in
  let drain it =
    let n = ref 0 in
    let rec go () =
      match Sstable.Reader.iter_next it with
      | None -> ()
      | Some _ ->
          incr n;
          go ()
    in
    go ();
    !n
  in
  let full_scan_bytes =
    cold (fun () ->
        if drain (Sstable.Reader.iterator sst) <> readpath_records then
          failwith "perf: full scan lost records")
  in
  let tail_from = Printf.sprintf "key%08dx" (readpath_records - 1001) in
  let tail_scan_bytes =
    cold (fun () ->
        if drain (Sstable.Reader.iterator ~from:tail_from sst) <> 1000 then
          failwith "perf: tail scan lost records")
  in
  let zone_miss_bytes =
    cold (fun () ->
        List.iter
          (fun p ->
            match Sstable.Reader.get sst p with
            | None -> ()
            | Some _ -> failwith "perf: gap probe found a record")
          zone_probes)
  in
  {
    rp_data_pages = footer.Sstable.Sst_format.data_pages;
    rp_full_scan_bytes = full_scan_bytes;
    rp_tail_scan_bytes = tail_scan_bytes;
    rp_zone_miss_bytes = zone_miss_bytes;
  }

(* V1 vs V2 on identical records. The miss-probe set is the gaps the V2
   fence's zone maps reject (key sorts after its floor page's last key):
   free under V2, one page read each under V1. Both versions measure the
   exact same keys. *)
let readpath_section () =
  let ((_, _, v2_sst) as v2) = build_readpath_sst Sstable.Sst_format.V2 in
  let zone_probes =
    List.filter
      (fun p -> Sstable.Reader.locate v2_sst p = None)
      (List.init readpath_records (fun i -> Printf.sprintf "key%08d!" i))
  in
  if List.length zone_probes < 10 then failwith "perf: no zone-rejected gaps";
  let v2_io = readpath_measure v2 ~zone_probes in
  let v1_io = readpath_measure (build_readpath_sst Sstable.Sst_format.V1) ~zone_probes in
  (v1_io, v2_io, List.length zone_probes)

let skiplist_kernel ~repeats ~iters =
  let sl = Memtable.Skiplist.create () in
  for i = 0 to 9_999 do
    Memtable.Skiplist.set sl (Printf.sprintf "key%06d" i) i
  done;
  let i = ref 0 in
  time_best ~repeats ~iters (fun () ->
      incr i;
      let k = Printf.sprintf "key%06d" (!i * 7919 mod 10_000) in
      Memtable.Skiplist.set sl k !i;
      ignore (Memtable.Skiplist.find sl k))

(* ------------------------------------------------------------------ *)
(* JSON *)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf " "
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json ~path ~kernels ~io_ok ~trace_noop_ok ~crc_kernel =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 2,\n";
  out "  \"harness\": \"bench perf\",\n";
  out "  \"units\": \"ns_per_op\",\n";
  out "  \"io_invariance_ok\": %b,\n" io_ok;
  out "  \"trace_noop_ok\": %b,\n" trace_noop_ok;
  out "  \"crc32c_kernel\": \"%s\",\n" crc_kernel;
  out "  \"kernels\": [\n";
  let n = List.length kernels in
  List.iteri
    (fun idx k ->
      out "    {\"name\": \"%s\", \"group\": \"%s\", \"ns_per_op\": %.1f, \"ops_per_sec\": %.0f"
        (json_escape k.k_name) k.k_group k.k_ns
        (if k.k_ns > 0.0 then 1e9 /. k.k_ns else 0.0);
      (match k.k_baseline with
      | Some b ->
          out ", \"baseline_ns_per_op\": %.1f, \"speedup_vs_baseline\": %.2f" b
            (b /. k.k_ns)
      | None -> ());
      out "}%s\n" (if idx = n - 1 then "" else ","))
    kernels;
  out "  ]\n";
  out "}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* PR-7 regression gates (checked on every `bench perf` run; the
   @perf-smoke alias fails when one trips). The wall-clock gate's
   recorded baseline carries deliberate headroom — best-of-N on a shared
   container still jitters — so it only trips on gross regressions; the
   byte-count gates are simulated-I/O counters, deterministic and exact,
   and get the tight 10% bound. Recorded 2026-08-07 on the PR-7 read
   path (quick mode, best of 3). *)
let gate_lookup_warm_v2_ns = 2200.0 (* measured ~1.2us; ~1.8x headroom *)
let gate_tail_scan_v2_bytes = 114_688 (* exact: 28 pages x 4 KiB *)

(* CRC32C of a 4 KiB page on the SSE4.2 kernel: measured 730-780 ns
   with one serial chain and 220-260 ns with three interleaved chains
   (quick mode, 2-vCPU x86-64 host), against ~4,300 ns for the former
   OCaml slice-by-16 table loop on the same host. Applied only when that
   kernel is the one selected, so a silent fallback to tables on an
   SSE4.2 host trips it while hosts without the instruction are not held
   to it. *)
let gate_crc32c_4k_sse42_ns = 1500.0

type gate = { g_name : string; g_value : float; g_limit : float; g_ok : bool }

let gate name value limit =
  { g_name = name; g_value = value; g_limit = limit; g_ok = value <= limit }

let write_pr7_json ~path ~seed ~kernels ~alloc ~fp_std ~fp_blk ~v1_io ~v2_io
    ~zone_probes ~gates =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 7,\n";
  out "  \"harness\": \"bench perf\",\n";
  out "  \"units\": \"ns_per_op\",\n";
  out "  \"seed\": %d,\n" seed;
  out
    "  \"config\": {\"page_size\": 4096, \"bloom_bits_per_key\": 10, \
     \"restart_interval\": %d, \"bloom_block_bits\": %d, \"records\": %d},\n"
    Sstable.Sst_format.restart_interval Bloom.block_bits readpath_records;
  out "  \"kernels\": [\n";
  let n = List.length kernels in
  List.iteri
    (fun idx (name, ns, base_name, base_ns) ->
      out
        "    {\"name\": \"%s\", \"ns_per_op\": %.1f, \"baseline\": \"%s\", \
         \"baseline_ns_per_op\": %.1f, \"speedup\": %.2f}%s\n"
        (json_escape name) ns (json_escape base_name) base_ns (base_ns /. ns)
        (if idx = n - 1 then "" else ","))
    kernels;
  out "  ],\n";
  out "  \"alloc\": [\n";
  let na = List.length alloc in
  List.iteri
    (fun idx (name, (ns, words)) ->
      out "    {\"name\": \"%s\", \"ns_per_op\": %.1f, \"minor_words_per_op\": %.2f}%s\n"
        (json_escape name) ns words
        (if idx = na - 1 then "" else ","))
    alloc;
  out "  ],\n";
  out
    "  \"bloom_fp\": {\"probes\": %d, \"standard\": %d, \"blocked\": %d, \
     \"blocked_over_standard\": %.2f},\n"
    bloom_fp_probes fp_std fp_blk
    (float_of_int fp_blk /. float_of_int (max 1 fp_std));
  let io_obj tag io =
    out
      "    \"%s\": {\"data_pages\": %d, \"full_scan_bytes\": %d, \
       \"tail_scan_bytes\": %d, \"zone_gap_miss_bytes\": %d}"
      tag io.rp_data_pages io.rp_full_scan_bytes io.rp_tail_scan_bytes
      io.rp_zone_miss_bytes
  in
  out "  \"cold_io\": {\n";
  io_obj "v1" v1_io;
  out ",\n";
  io_obj "v2" v2_io;
  out ",\n";
  out "    \"zone_gap_probes\": %d,\n" zone_probes;
  out "    \"tail_scan_bytes_saved\": %d,\n"
    (v1_io.rp_tail_scan_bytes - v2_io.rp_tail_scan_bytes);
  out "    \"full_scan_bytes_saved\": %d\n"
    (v1_io.rp_full_scan_bytes - v2_io.rp_full_scan_bytes);
  out "  },\n";
  out "  \"gates\": [\n";
  let ng = List.length gates in
  List.iteri
    (fun idx g ->
      out "    {\"name\": \"%s\", \"value\": %.1f, \"limit\": %.1f, \"ok\": %b}%s\n"
        (json_escape g.g_name) g.g_value g.g_limit g.g_ok
        (if idx = ng - 1 then "" else ","))
    gates;
  out "  ]\n";
  out "}\n";
  close_out oc

let run ?(out = "BENCH_PR2.json") (s : Scale.t) =
  Scale.section "Perf regression harness (writes BENCH_PR2.json + BENCH_PR7.json)";
  let quick = s.Scale.ops < 8_000 in
  let repeats = if quick then 3 else 5 in
  let iters = if quick then 4_000 else 20_000 in
  let macro name ns =
    { k_name = name; k_ns = ns; k_baseline = baseline_ns name; k_group = "macro" }
  in
  let ((crc, _) as crc_cost) = crc_kernel ~repeats ~iters in
  let lookup_ns, io = lookup_kernel ~repeats ~iters () in
  let insert, trace_noop_ok = insert_kernel ~repeats ~iters:(iters * 2) in
  let skiplist = skiplist_kernel ~repeats ~iters:(iters * 2) in
  let io_ok =
    io.Simdisk.Disk.seeks = 0
    && io.Simdisk.Disk.seq_read_bytes = 0
    && io.Simdisk.Disk.random_read_bytes = 0
  in
  let kernels =
    [
      macro "crc32c.4KiB" crc;
      macro "sstable.point_lookup.warm" lookup_ns;
      macro "tree.insert.c0" insert;
      macro "skiplist.set_find.prebuilt" skiplist;
    ]
    @ (if quick then []
       else
         List.map
           (fun (name, ns) ->
             { k_name = name; k_ns = ns; k_baseline = None; k_group = "bechamel" })
           (Micro.collect ()))
  in
  List.iter
    (fun k ->
      let base =
        match k.k_baseline with
        | Some b -> Printf.sprintf "  (baseline %10.1f, x%.2f)" b (b /. k.k_ns)
        | None -> ""
      in
      Printf.printf "%-44s %12.1f ns/op%s\n" k.k_name k.k_ns base)
    kernels;
  if not io_ok then
    Printf.printf
      "WARNING: warmed lookups charged simulated I/O (seeks=%d seq=%dB rand=%dB)\n"
      io.Simdisk.Disk.seeks io.Simdisk.Disk.seq_read_bytes
      io.Simdisk.Disk.random_read_bytes;
  if not trace_noop_ok then
    Printf.printf
      "WARNING: disabled tracer emitted events during the insert kernel\n";
  let crc_kernel = Repro_util.Crc32c.kernel () in
  Printf.printf "crc32c kernel: %s\n" crc_kernel;
  write_json ~path:out ~kernels ~io_ok ~trace_noop_ok ~crc_kernel;
  Printf.printf "wrote %s\n" out;
  (* ---- PR-7 read-path sections ---- *)
  Scale.section "Read-path kernels (fence / Bloom layouts / scan+miss I/O)";
  let lookup_v2_ns, io_v2 = lookup_kernel ~format:Sstable.Sst_format.V2 ~repeats ~iters () in
  let fence_ey, fence_bin = fence_kernel ~repeats ~iters:(iters * 4) in
  let ((bloom_std, bloom_std_words) as bloom_std_cost),
      ((bloom_blk, bloom_blk_words) as bloom_blk_cost), fp_std, fp_blk =
    bloom_kernels ~repeats ~iters:(iters * 4)
  in
  let v1_io, v2_io, zone_probes = readpath_section () in
  let io_v2_ok =
    io_v2.Simdisk.Disk.seeks = 0
    && io_v2.Simdisk.Disk.seq_read_bytes = 0
    && io_v2.Simdisk.Disk.random_read_bytes = 0
  in
  if not io_v2_ok then
    Printf.printf "WARNING: warmed V2 lookups charged simulated I/O\n";
  let pr7_kernels =
    [
      ("fence.locate.eytzinger", fence_ey, "sorted-array binary search", fence_bin);
      ("sstable.point_lookup.warm.v2", lookup_v2_ns, "v1 same process", lookup_ns);
      ("bloom.mem.blocked", bloom_blk, "bloom.mem.standard", bloom_std);
    ]
  in
  List.iter
    (fun (name, ns, bname, bns) ->
      Printf.printf "%-44s %12.1f ns/op  (%s %10.1f, x%.2f)\n" name ns bname
        bns (bns /. ns))
    pr7_kernels;
  let alloc =
    [
      ("bloom.mem.standard", bloom_std_cost);
      ("bloom.mem.blocked", bloom_blk_cost);
      ("crc32c.4KiB", crc_cost);
    ]
  in
  List.iter
    (fun (name, (ns, words)) ->
      Printf.printf "%-44s %12.1f ns/op  %6.2f minor words/op\n" name ns words)
    alloc;
  Printf.printf "bloom fp @ %d absent probes: standard %d, blocked %d (x%.2f)\n"
    bloom_fp_probes fp_std fp_blk
    (float_of_int fp_blk /. float_of_int (max 1 fp_std));
  Printf.printf
    "cold io: v1 pages=%d full=%dB tail=%dB gap-miss=%dB | v2 pages=%d full=%dB \
     tail=%dB gap-miss=%dB (%d gap probes)\n"
    v1_io.rp_data_pages v1_io.rp_full_scan_bytes v1_io.rp_tail_scan_bytes
    v1_io.rp_zone_miss_bytes v2_io.rp_data_pages v2_io.rp_full_scan_bytes
    v2_io.rp_tail_scan_bytes v2_io.rp_zone_miss_bytes zone_probes;
  let gates =
    [
      gate "sstable.point_lookup.warm.v2.ns" lookup_v2_ns
        (gate_lookup_warm_v2_ns *. 1.1);
      gate "scan.v2.cold_tail.bytes"
        (float_of_int v2_io.rp_tail_scan_bytes)
        (float_of_int gate_tail_scan_v2_bytes *. 1.1);
      gate "miss.v2.zone.bytes" (float_of_int v2_io.rp_zone_miss_bytes) 0.0;
      gate "bloom.blocked.fp_vs_standard"
        (float_of_int fp_blk)
        (2.0 *. float_of_int fp_std);
      gate "bloom.mem.standard.words" bloom_std_words 0.0;
      gate "bloom.mem.blocked.words" bloom_blk_words 0.0;
      gate "scan.v2_vs_v1.tail_bytes"
        (float_of_int v2_io.rp_tail_scan_bytes)
        (float_of_int v1_io.rp_tail_scan_bytes);
    ]
    @
    if String.equal crc_kernel "sse4.2" then
      [ gate "crc32c.4KiB" crc gate_crc32c_4k_sse42_ns ]
    else []
  in
  write_pr7_json ~path:"BENCH_PR7.json" ~seed:s.Scale.seed ~kernels:pr7_kernels ~alloc
    ~fp_std ~fp_blk ~v1_io ~v2_io ~zone_probes ~gates;
  Printf.printf "wrote BENCH_PR7.json\n";
  let failed = List.filter (fun g -> not g.g_ok) gates in
  List.iter
    (fun g ->
      Printf.printf "GATE FAILED: %s = %.1f > limit %.1f\n" g.g_name g.g_value
        g.g_limit)
    failed;
  if failed <> [] then exit 1
