(** Figure 7 — random-order insert timeseries: bLSM (left) vs LevelDB
    (right). The paper's claim: both load the same data; bLSM's
    throughput is predictable and it finishes earlier; LevelDB shows
    collapsing throughput and second-scale latency spikes.

    Printed as one row per simulated-time bucket: ops/sec, mean and max
    insert latency. Empty buckets (ops/sec = 0) are full write stalls. *)

let print_timeseries label (r : Ycsb.Runner.result) =
  Printf.printf "\n[%s]  total: %d ops in %.1fs -> %.0f ops/s, max latency %.1fms\n"
    label r.Ycsb.Runner.ops
    (r.Ycsb.Runner.elapsed_us /. 1e6)
    r.Ycsb.Runner.ops_per_sec
    (float_of_int (Repro_util.Histogram.max_value r.Ycsb.Runner.latency) /. 1000.);
  Printf.printf "%8s %12s %12s %12s\n" "t(s)" "ops/sec" "mean-lat(ms)" "max-lat(ms)";
  List.iter
    (fun (row : Repro_util.Timeseries.row) ->
      Printf.printf "%8.1f %12.0f %12.2f %12.2f\n" row.Repro_util.Timeseries.t_sec
        row.Repro_util.Timeseries.ops_per_sec row.Repro_util.Timeseries.mean_latency_ms
        row.Repro_util.Timeseries.max_latency_ms)
    (Repro_util.Timeseries.rows r.Ycsb.Runner.timeseries)

let run scale profile =
  Scale.section
    (Printf.sprintf "Figure 7: random-order insert timeseries (%s)"
       profile.Simdisk.Profile.name);
  let n = scale.Scale.records in
  let bucket_us =
    (* aim for ~20 buckets over the expected bLSM load duration *)
    max 200_000
      (n * scale.Scale.value_bytes / 24 (* rough bytes/us at HDD speed *) / 20)
  in
  let blsm = Scale.blsm_engine scale profile in
  let ks = Ycsb.Runner.keyspace ~records:0 ~value_bytes:scale.Scale.value_bytes in
  let r_blsm =
    Ycsb.Runner.load blsm ks ~n ~timeseries_bucket_us:bucket_us ~seed:scale.Scale.seed ()
  in
  print_timeseries "bLSM (spring-and-gear)" r_blsm;
  let ldb_tree = Scale.leveldb scale profile in
  let ldb = Blsm.Policy_tree.engine ~name:"LevelDB" ldb_tree in
  let ks2 = Ycsb.Runner.keyspace ~records:0 ~value_bytes:scale.Scale.value_bytes in
  let r_ldb =
    Ycsb.Runner.load ldb ks2 ~n ~timeseries_bucket_us:bucket_us ~seed:scale.Scale.seed ()
  in
  print_timeseries "LevelDB (partition scheduler)" r_ldb;
  Printf.printf "LevelDB level-0 pauses: %d stop-stalls, %d slowdown writes\n"
    (Blsm.Policy_tree.stats ldb_tree).Blsm.Lsm_shell.hard_stalls
    (Blsm.Policy_tree.engine_stats ldb_tree).Blsm.Policy_tree.slowdown_writes;
  Printf.printf
    "\nShape check: bLSM max-latency %.1fms vs LevelDB max-latency %.1fms; \
     bLSM finished %.1fx %s\n"
    (float_of_int (Repro_util.Histogram.max_value r_blsm.Ycsb.Runner.latency) /. 1000.)
    (float_of_int (Repro_util.Histogram.max_value r_ldb.Ycsb.Runner.latency) /. 1000.)
    (r_ldb.Ycsb.Runner.elapsed_us /. r_blsm.Ycsb.Runner.elapsed_us)
    (if r_ldb.Ycsb.Runner.elapsed_us > r_blsm.Ycsb.Runner.elapsed_us then "faster"
     else "slower")
