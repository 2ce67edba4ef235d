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
   counts are exact, unlike wall time, so they are gated exactly. The
   mean is not rounded down (as [Alloc.per_op]'s is), so one allocation
   in [iters] calls still fails a gate of 0. *)
let words_per_call ~iters f =
  f ();
  float_of_int
    (Alloc.minor (fun () ->
         for _ = 1 to iters do
           f ()
         done))
  /. float_of_int iters

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

let build_lookup_sst () =
  let store = mk_store ~buffer_pages:1024 () in
  let b = Sstable.Builder.create ~extent_pages:256 store in
  for i = 0 to lookup_records - 1 do
    Sstable.Builder.add b
      (Printf.sprintf "key%08d" i)
      (Kv.Entry.Base (String.make 100 'v'))
  done;
  let footer = Sstable.Builder.finish b ~timestamp:1 in
  ( store,
    Sstable.Reader.open_in_ram store footer
      ~index:(Sstable.Builder.index_blob b) )

let lookup_kernel ~repeats ~iters =
  let store, sst = build_lookup_sst () in
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

(* Major-heap words a [Tree.put] of a 1 KB value allocates directly, on a
   logged tree at rest (overwrites of a few YCSB-sized keys, so no merge
   runs). The put encodes its batch straight into the WAL frame, a
   minor-heap block, so the count is exact: 0. Promotions of the frames
   the log keeps are not direct allocations and do not count. *)
let put_major_words ~iters =
  let store =
    Pagestore.Store.create
      ~config:
        {
          Pagestore.Store.cfg_page_size = 4096;
          cfg_buffer_pages = 64;
          cfg_durability = Pagestore.Wal.Full;
        }
      Simdisk.Profile.ssd_raid0
  in
  let tree = Blsm.Tree.create ~config:Blsm.Config.default store in
  let keys = Array.init 8 Repro_util.Keygen.key_of_id in
  let value = String.make 1000 'v' in
  Array.iter (fun k -> Blsm.Tree.put tree k value) keys;
  float_of_int
    (Alloc.major_direct (fun () ->
         for i = 1 to iters do
           Blsm.Tree.put tree keys.(i land 7) value
         done))
  /. float_of_int iters

(* ------------------------------------------------------------------ *)
(* PR-7 read-path kernels: fence search, Bloom probe *)

(* Eytzinger fence descent vs the pre-PR-7 shape (binary search over the
   sorted first-key array), same keys, same probe stream. *)
let fence_kernel ~repeats ~iters =
  (* 32k fenced pages ~ a 128 MiB C2 at 4 KiB pages: the fence array no
     longer fits L2, which is where the BFS layout's locality pays. *)
  let n = 32_768 in
  let keys = Array.init n (Printf.sprintf "key%08d") in
  let pos = Array.init n (fun i -> i) in
  let fence = Sstable.Sst_format.Fence.of_sorted ~keys ~pos in
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
   mix (95% present / 5% absent), plus the exact false-positive count at
   10 bits/key (hashing is deterministic). *)
let bloom_fp_probes = 200_000

let bloom_kernel ~repeats ~iters =
  let n = 100_000 in
  let b = Bloom.create ~expected_items:n () in
  for i = 0 to n - 1 do
    Bloom.add b (Printf.sprintf "user%010d" i)
  done;
  let nprobes = 8192 in
  let probes =
    Array.init nprobes (fun i ->
        if i mod 20 = 0 then Printf.sprintf "miss%010d" i
        else Printf.sprintf "user%010d" (i * 7919 mod n))
  in
  let i = ref 0 in
  let f () =
    incr i;
    ignore (Bloom.mem b probes.(!i land (nprobes - 1)))
  in
  let fp = ref 0 in
  for i = 0 to bloom_fp_probes - 1 do
    if Bloom.mem b (Printf.sprintf "absent%010d" i) then incr fp
  done;
  ((time_best ~repeats ~iters f, words_per_call ~iters f), !fp)

(* C0's order index in the snowshovel steady state: one fresh-key insert
   and one in-order pop per op, over [n] keys. *)
let insert_pop_kernel ~repeats ~iters n = time_best ~repeats ~iters (Micro.c0_insert_pop n)

(* ------------------------------------------------------------------ *)
(* JSON *)

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
        (Obs.Json.escape k.k_name) k.k_group k.k_ns
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
   @perf-smoke alias fails when one trips). *)

(* CRC32C of a 4 KiB page on a hardware kernel: measured 730-780 ns
   with one serial `crc32` chain and 220-260 ns with three interleaved
   chains (quick mode, 2-vCPU x86-64 host), against ~4,300 ns for the
   former OCaml slice-by-16 table loop on the same host. Applied whenever
   the selected kernel is not the portable table loop, so a silent
   fallback to tables on a host with carry-less multiply trips it while
   hosts without it are not held to it. *)
let gate_crc32c_4k_hw_ns = 1500.0

let write_pr7_json ~path ~seed ~kernels ~alloc ~fp ~gates =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"pr\": 7,\n";
  out "  \"harness\": \"bench perf\",\n";
  out "  \"units\": \"ns_per_op\",\n";
  out "  \"seed\": %d,\n" seed;
  out "  \"config\": {\"bloom_bits_per_key\": 10},\n";
  out "  \"kernels\": [\n";
  let n = List.length kernels in
  List.iteri
    (fun idx (name, ns, base_name, base_ns) ->
      out
        "    {\"name\": \"%s\", \"ns_per_op\": %.1f, \"baseline\": \"%s\", \
         \"baseline_ns_per_op\": %.1f, \"speedup\": %.2f}%s\n"
        (Obs.Json.escape name) ns (Obs.Json.escape base_name) base_ns (base_ns /. ns)
        (if idx = n - 1 then "" else ","))
    kernels;
  out "  ],\n";
  out "  \"alloc\": [\n";
  let na = List.length alloc in
  List.iteri
    (fun idx (name, (ns, words)) ->
      out "    {\"name\": \"%s\", \"ns_per_op\": %.1f, \"minor_words_per_op\": %.2f}%s\n"
        (Obs.Json.escape name) ns words
        (if idx = na - 1 then "" else ","))
    alloc;
  out "  ],\n";
  out "  \"bloom_fp\": {\"probes\": %d, \"false_positives\": %d},\n"
    bloom_fp_probes fp;
  out "  \"gates\": [\n";
  let ng = List.length gates in
  List.iteri
    (fun idx g ->
      out "    %s%s\n" (Gate.to_json ~digits:1 g) (if idx = ng - 1 then "" else ","))
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
  let lookup_ns, io = lookup_kernel ~repeats ~iters in
  let insert, trace_noop_ok = insert_kernel ~repeats ~iters:(iters * 2) in
  let insert_pop_3k3 = insert_pop_kernel ~repeats ~iters:(iters * 2) 3_300 in
  let insert_pop_1m = insert_pop_kernel ~repeats ~iters:(iters * 2) 1_000_000 in
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
      macro "order.insert_pop.3k3" insert_pop_3k3;
      macro "order.insert_pop.1m" insert_pop_1m;
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
  Scale.section "Read-path kernels (fence / Bloom probe)";
  let fence_ey, fence_bin = fence_kernel ~repeats ~iters:(iters * 4) in
  let ((_, bloom_words) as bloom_cost), fp =
    bloom_kernel ~repeats ~iters:(iters * 4)
  in
  let pr7_kernels =
    [ ("fence.locate.eytzinger", fence_ey, "sorted-array binary search", fence_bin) ]
  in
  List.iter
    (fun (name, ns, bname, bns) ->
      Printf.printf "%-44s %12.1f ns/op  (%s %10.1f, x%.2f)\n" name ns bname
        bns (bns /. ns))
    pr7_kernels;
  let alloc = [ ("bloom.mem.standard", bloom_cost); ("crc32c.4KiB", crc_cost) ] in
  List.iter
    (fun (name, (ns, words)) ->
      Printf.printf "%-44s %12.1f ns/op  %6.2f minor words/op\n" name ns words)
    alloc;
  Printf.printf "bloom fp @ %d absent probes: %d\n" bloom_fp_probes fp;
  let put_major = put_major_words ~iters in
  Printf.printf "%-44s %12.2f major words/op\n" "tree.put.major_words" put_major;
  let gates =
    Gate.at_most "bloom.mem.standard.words" bloom_words 0.0
    :: Gate.at_most "tree.put.major_words" put_major 0.0
    ::
    (if not (String.equal crc_kernel "slice8") then
       [ Gate.at_most "crc32c.4KiB" crc gate_crc32c_4k_hw_ns ]
     else [])
  in
  write_pr7_json ~path:"BENCH_PR7.json" ~seed:s.Scale.seed ~kernels:pr7_kernels ~alloc
    ~fp ~gates;
  Printf.printf "wrote BENCH_PR7.json\n";
  Gate.exit_on_failure ~digits:1 gates
