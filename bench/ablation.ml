(** Ablations over the design choices DESIGN.md calls out.

    (a) merge scheduler: naive vs gear vs spring-and-gear — insert-latency
        tails and hard-stall counts under saturated uniform inserts (§4);
    (b) Bloom filters on/off — seeks for present and absent lookups (§3.1);
    (c) spring + snowshovel vs gear + C0/C0′ — effective run length and
        write throughput (§4.2: x4 effective C0 claim);
    (d) early termination on/off — read seeks for frequently-updated keys
        (§3.1.1);
    (e) adversarial workload — reverse-sorted inserts after a forward-
        sorted phase: the §4.2.2 / §5.5 caveat that, without partitioning,
        distribution mismatch stalls even a well-paced tree. *)

let insert_run scale profile ~tweak =
  let tree = Scale.blsm ~config_tweak:tweak scale profile in
  let e = Blsm.Tree.engine tree in
  let ks = Ycsb.Runner.keyspace ~records:0 ~value_bytes:scale.Scale.value_bytes in
  let r = Ycsb.Runner.load e ks ~n:scale.Scale.records ~seed:scale.Scale.seed () in
  (tree, r)

let scheduler_ablation scale profile =
  Scale.section "Ablation (a): merge scheduler vs insert latency";
  Printf.printf "%-10s %10s %10s %12s %12s %12s %12s\n" "scheduler" "ops/s"
    "p50(us)" "p99(us)" "p99.9(us)" "max(ms)" "hard-stalls";
  List.iter
    (fun (name, sched) ->
      let tree, r =
        insert_run scale profile ~tweak:(fun c -> { c with Blsm.Config.scheduler = sched })
      in
      let h = r.Ycsb.Runner.latency in
      Printf.printf "%-10s %10.0f %10d %10d %12d %12.2f %12d\n" name
        r.Ycsb.Runner.ops_per_sec
        (Repro_util.Histogram.percentile h 50.0)
        (Repro_util.Histogram.percentile h 99.0)
        (Repro_util.Histogram.percentile h 99.9)
        (float_of_int (Repro_util.Histogram.max_value h) /. 1000.)
        (Blsm.Tree.stats tree).Blsm.Tree.hard_stalls)
    [ ("naive", Blsm.Config.Naive); ("gear", Blsm.Config.Gear); ("spring", Blsm.Config.Spring) ]

let bloom_ablation scale profile =
  Scale.section "Ablation (b): Bloom filters vs read seeks";
  Printf.printf "%-10s %16s %16s %18s\n" "bloom" "seeks/read(hit)"
    "seeks/read(miss)" "checked-ins seeks";
  List.iter
    (fun (name, bits) ->
      let tree, _ =
        insert_run scale profile ~tweak:(fun c ->
            { c with Blsm.Config.bloom_bits_per_key = bits })
      in
      let e = Blsm.Tree.engine tree in
      e.Kv.Kv_intf.maintenance ();
      let prng = Repro_util.Prng.of_int 3 in
      let probe f n =
        let before = Simdisk.Disk.snapshot (Blsm.Tree.disk tree) in
        for i = 0 to n - 1 do
          f i
        done;
        let d =
          Simdisk.Disk.diff before (Simdisk.Disk.snapshot (Blsm.Tree.disk tree))
        in
        float_of_int d.Simdisk.Disk.seeks /. float_of_int n
      in
      let n = 400 in
      let hit =
        probe
          (fun _ ->
            ignore
              (e.Kv.Kv_intf.get
                 (Repro_util.Keygen.key_of_id
                    (Repro_util.Prng.int prng scale.Scale.records))))
          n
      in
      let checked =
        probe
          (fun i ->
            ignore
              (e.Kv.Kv_intf.insert_if_absent
                 (Repro_util.Keygen.key_of_id (10_000_000 + i))
                 "v"))
          n
      in
      (* Ids past the load: hashed keys inside the loaded key range, so
         each miss reaches the components' Bloom filters. Probed last:
         with filters off these gets read pages, and the pool they leave
         behind would move the checked-insert column. *)
      let miss =
        probe
          (fun i ->
            ignore
              (e.Kv.Kv_intf.get
                 (Repro_util.Keygen.key_of_id (scale.Scale.records + i))))
          n
      in
      Printf.printf "%-10s %16.2f %16.2f %18.2f\n" name hit miss checked)
    [ ("on(10b)", 10); ("off", 0) ]

let snowshovel_ablation scale profile =
  Scale.section "Ablation (c): snowshoveling vs run length and throughput";
  Printf.printf "%-14s %10s %14s %16s\n" "snowshovel" "ops/s" "C0:C1 merges"
    "bytes-moved/merge";
  List.iter
    (fun (name, sched) ->
      let tree, r =
        insert_run scale profile ~tweak:(fun c -> { c with Blsm.Config.scheduler = sched })
      in
      let s = Blsm.Tree.stats tree and ms = Blsm.Tree.merge_stats tree in
      let merges = max 1 ms.Blsm.Tree.merge1_completions in
      Printf.printf "%-14s %10.0f %14d %16d\n" name r.Ycsb.Runner.ops_per_sec
        ms.Blsm.Tree.merge1_completions
        (s.Blsm.Tree.user_bytes_written / merges))
    [ ("on(spring)", Blsm.Config.Spring); ("off(gear)", Blsm.Config.Gear) ]

let early_termination_ablation scale profile =
  Scale.section "Ablation (d): early termination vs seeks for hot keys";
  Printf.printf "%-16s %14s\n" "early-term" "seeks/read(hot)";
  List.iter
    (fun (name, early) ->
      let tree, _ =
        insert_run scale profile ~tweak:(fun c ->
            { c with Blsm.Config.early_termination = early })
      in
      let e = Blsm.Tree.engine tree in
      (* update a hot set repeatedly so versions exist at every level *)
      let hot = 64 in
      for round = 0 to 40 do
        for i = 0 to hot - 1 do
          e.Kv.Kv_intf.put
            (Repro_util.Keygen.key_of_id i)
            (Printf.sprintf "round%d-%s" round (String.make 200 'h'))
        done;
        (* interleave filler so merges spread versions across levels *)
        for i = 0 to 127 do
          e.Kv.Kv_intf.put
            (Repro_util.Keygen.key_of_id (1000 + (round * 128) + i))
            (String.make scale.Scale.value_bytes 'f')
        done
      done;
      let prng = Repro_util.Prng.of_int 9 in
      let n = 400 in
      let before = Simdisk.Disk.snapshot (Blsm.Tree.disk tree) in
      for _ = 1 to n do
        ignore (e.Kv.Kv_intf.get (Repro_util.Keygen.key_of_id (Repro_util.Prng.int prng hot)))
      done;
      let d = Simdisk.Disk.diff before (Simdisk.Disk.snapshot (Blsm.Tree.disk tree)) in
      Printf.printf "%-16s %14.2f\n" name
        (float_of_int d.Simdisk.Disk.seeks /. float_of_int n))
    [ ("on", true); ("off", false) ]

let adversarial_ablation scale profile =
  Scale.section
    "Ablation (e): adversarial distribution shift, fixed by partitioning (§4.2.2)";
  Printf.printf "%-14s %-22s %12s %12s\n" "tree" "phase" "ops/s" "max-lat(ms)";
  let v = String.make scale.Scale.value_bytes 'a' in
  let half = scale.Scale.records / 2 in
  let run_phase ~disk label name f n =
    let lat = Repro_util.Histogram.create () in
    let t0 = Simdisk.Disk.now_us disk in
    for i = 0 to n - 1 do
      let a = Simdisk.Disk.now_us disk in
      f i;
      Repro_util.Histogram.add lat (int_of_float (Simdisk.Disk.now_us disk -. a))
    done;
    let dt = Simdisk.Disk.now_us disk -. t0 in
    Printf.printf "%-14s %-22s %12.0f %12.2f\n" name label
      (float_of_int n /. dt *. 1e6)
      (float_of_int (Repro_util.Histogram.max_value lat) /. 1000.)
  in
  (* monolithic tree: the shifted phase rewrites disjoint cold data *)
  let tree = Scale.blsm scale profile in
  let disk = Blsm.Tree.disk tree in
  run_phase ~disk "ascending inserts" "monolithic"
    (fun i -> Blsm.Tree.put tree (Repro_util.Keygen.ordered_key_of_id i) v)
    half;
  run_phase ~disk "shifted-range inserts" "monolithic"
    (fun i -> Blsm.Tree.put tree (Printf.sprintf "early%012d" (1_000_000_000 - i)) v)
    half;
  (* partitioned tree (the paper's future work, lib/core/partitioned.ml):
     the shifted range lands in its own partition with its own scheduler *)
  let c0 = int_of_float (Scale.blsm_c0_fraction *. float_of_int (Scale.data_bytes scale)) in
  let cache = int_of_float (Scale.blsm_cache_fraction *. float_of_int (Scale.data_bytes scale)) in
  let part =
    Blsm.Partitioned.create
      ~config:{ Blsm.Config.default with Blsm.Config.c0_bytes = c0 }
      ~c0_share:`Shared (* hot ranges get the whole write pool, PE-file style *)
      ~boundaries:[ "f" ]
      (Scale.store ~cache_bytes:cache profile)
  in
  let disk = Blsm.Partitioned.disk part in
  run_phase ~disk "ascending inserts" "partitioned"
    (fun i -> Blsm.Partitioned.put part (Repro_util.Keygen.ordered_key_of_id i) v)
    half;
  run_phase ~disk "shifted-range inserts" "partitioned"
    (fun i ->
      Blsm.Partitioned.put part (Printf.sprintf "early%012d" (1_000_000_000 - i)) v)
    half

let r_sweep_ablation scale profile =
  (* §2.3.1: the size-ratio optimization. For a 3-level tree the write-
     amplification optimum is R1 = R2 = sqrt(|data|/|C0|); fixed Rs on
     either side pay more, and the adaptive policy should track the
     best fixed choice. *)
  Scale.section "Ablation (f): size ratio R vs write amplification (§2.3.1)";
  Printf.printf "%-12s %12s %12s %14s
" "R" "ops/s" "write-amp" "merges(1/2)";
  let user_bytes = scale.Scale.records * scale.Scale.value_bytes in
  List.iter
    (fun (name, ratio) ->
      let tree, r =
        insert_run scale profile ~tweak:(fun c ->
            { c with Blsm.Config.size_ratio = ratio })
      in
      Blsm.Tree.flush tree;
      let d = Simdisk.Disk.snapshot (Blsm.Tree.disk tree) in
      let s = Blsm.Tree.merge_stats tree in
      Printf.printf "%-12s %12.0f %12.2f %9d/%d
" name r.Ycsb.Runner.ops_per_sec
        (float_of_int (d.Simdisk.Disk.seq_write_bytes + d.Simdisk.Disk.random_write_bytes)
        /. float_of_int user_bytes)
        s.Blsm.Tree.merge1_completions s.Blsm.Tree.merge2_completions)
    [
      ("2", Blsm.Config.Fixed 2.0);
      ("3", Blsm.Config.Fixed 3.0);
      ("4", Blsm.Config.Fixed 4.0);
      ("6", Blsm.Config.Fixed 6.0);
      ("10", Blsm.Config.Fixed 10.0);
      ("adaptive", Blsm.Config.Adaptive);
    ]

let skew_ablation scale profile =
  (* §2.3.1-2.3.2: "B-Trees naturally leverage skewed writes" (hot leaves
     absorb updates in the buffer pool) while the base LSM pays full
     merge freight per write; range partitioning lets the LSM leverage
     skew too. Unscrambled Zipfian over ordered keys = a hot key *range*. *)
  Scale.section
    "Ablation (g): write skew and write amplification (§2.3.1-2.3.2)";
  Printf.printf "%-18s %16s %16s
" "engine" "uniform w-amp" "zipfian w-amp";
  let measure (e : Kv.Kv_intf.engine) dist =
    let ks = Ycsb.Runner.keyspace ~records:0 ~value_bytes:scale.Scale.value_bytes in
    ignore
      (Ycsb.Runner.run e ks ~label:"preload"
         ~mix:[ (Ycsb.Runner.Insert, 1.0) ]
         ~ops:scale.Scale.records
         ~dist:(Ycsb.Generator.uniform ~seed:1) ~ordered_keys:true ());
    e.Kv.Kv_intf.maintenance ();
    let before = Simdisk.Disk.snapshot e.Kv.Kv_intf.disk in
    let r =
      Ycsb.Runner.run e ks ~label:"updates"
        ~mix:[ (Ycsb.Runner.Blind_update, 1.0) ]
        ~ops:scale.Scale.ops ~dist ~ordered_keys:true ()
    in
    e.Kv.Kv_intf.maintenance ();
    let d = Simdisk.Disk.diff before (Simdisk.Disk.snapshot e.Kv.Kv_intf.disk) in
    float_of_int (d.Simdisk.Disk.seq_write_bytes + d.Simdisk.Disk.random_write_bytes)
    /. float_of_int (r.Ycsb.Runner.ops * scale.Scale.value_bytes)
  in
  let engines () =
    let c0 = int_of_float (Scale.blsm_c0_fraction *. float_of_int (Scale.data_bytes scale)) in
    let cache = int_of_float (Scale.blsm_cache_fraction *. float_of_int (Scale.data_bytes scale)) in
    [
      ("bLSM (mono)", fun () -> Scale.blsm_engine scale profile);
      ( "bLSM (partitioned)",
        fun () ->
          Blsm.Partitioned.engine
            (Blsm.Partitioned.create
               ~config:{ Blsm.Config.default with Blsm.Config.c0_bytes = c0 }
               (* Static division: uniform load keeps every partition hot,
                  so the write pool must not be overcommitted here *)
               ~c0_share:`Static
               ~boundaries:
                 (List.init 7 (fun i ->
                      Repro_util.Keygen.ordered_key_of_id
                        ((i + 1) * scale.Scale.records / 8)))
               (Scale.store ~cache_bytes:cache profile)) );
      ("B-Tree", fun () -> Scale.btree_engine scale profile);
    ]
  in
  List.iter
    (fun (name, mk) ->
      let uniform = measure (mk ()) (Ycsb.Generator.uniform ~seed:21) in
      let zipf =
        measure (mk ())
          (Ycsb.Generator.zipfian ~scrambled:false ~seed:22 ~n:scale.Scale.records ())
      in
      Printf.printf "%-18s %16.2f %16.2f
" name uniform zipf)
    (engines ())

let run scale profile =
  scheduler_ablation scale profile;
  bloom_ablation scale profile;
  snowshovel_ablation scale profile;
  early_termination_ablation scale profile;
  adversarial_ablation scale profile;
  r_sweep_ablation scale profile;
  skew_ablation scale profile
