(** Stability observatory (`bench soak`): open-loop multi-epoch soak
    with windowed tail-latency timeseries and stall-episode attribution.

    The paper's headline claim is bounded write latency, but a
    closed-loop driver cannot see it honestly: every stall pauses the
    arrival process, so the tail the claim is about vanishes from the
    report (coordinated omission). This driver measures the same store
    both ways:

    - a *closed-loop* calibration phase (service-time latency, explicit
      "closed-loop" label) that also fixes the open-loop arrival rate as
      a fraction of the measured capacity;
    - four *open-loop* epochs (fill, overwrite, tombstone flood,
      latest-skew — the Luo & Carey stress patterns) where latency is
      measured from intended arrival time, stalls surface as queue
      growth, and per-window p50/p99/p99.9 series come from
      {!Obs.Windows};
    - a stall-episode stream ({!Obs.Episodes}) fed by the tree's
      {!Blsm.Tree.on_stall} observer, whose merge1/merge2/hard sums must
      tile each episode exactly.

    The workload is pinned (record count, value size, C0 size, rates
    derived from calibration) so its gates are exact regression checks,
    not statistics; `--seed` is honored and two same-seed passes must
    produce byte-identical reports. Writes [BENCH_PR8.json] plus
    [soak_windows.csv], [soak_episodes.csv] and [soak_stalls.trace.json]
    (Chrome counter tracks). Exits 1 when a gate trips, so the
    [@soak-smoke] alias is a regression gate in the [@perf-smoke]
    style. *)

module H = Repro_util.Histogram

(* Pinned workload: small enough to run in seconds, large enough that
   the spring scheduler stalls and the open loop queues behind them. *)
let preload_records = 4_000
let value_bytes = 400
let epoch_ops = 1_500
let c0_bytes = 128 * 1024
let queue_bound = 2_000
let episode_gap_us = 100.0

(* Regression limits, recorded 2026-08-07 on the PR-8 seed-42 soak
   (exact simulated-clock quantities; headroom covers seed drift, not
   noise — there is none). *)
let gate_open_p999_us = 2_000.0 (* measured 944 us, overwrite epoch *)
let gate_max_queue = 400.0 (* measured peak depth 251, latest-skew *)
let gate_min_open_over_closed = 1.2 (* measured 5.76x *)

type epoch_result = {
  er_name : string;
  er_open : Ycsb.Open_loop.result;
}

type soak_result = {
  sr_closed : Ycsb.Runner.result;
  sr_rate : float;
  sr_window_us : int;
  sr_epochs : epoch_result list;
  sr_fleet : Obs.Windows.t;
  sr_episodes : Obs.Episodes.episode list;
  sr_fed_total_us : float;
  sr_fed_samples : int;
  sr_metrics_excerpt : string;
  sr_counter_trace : string;
}

let mk_tree ~seed =
  let store =
    Pagestore.Store.create
      ~config:
        {
          Pagestore.Store.cfg_page_size = 4096;
          cfg_buffer_pages = 1024;
          cfg_durability = Pagestore.Wal.Full;
        }
      Simdisk.Profile.ssd_raid0
  in
  let config =
    {
      Blsm.Config.default with
      Blsm.Config.c0_bytes;
      scheduler = Blsm.Config.Spring;
      seed;
    }
  in
  Blsm.Tree.create ~config store

let overwrite_mix =
  [ (Ycsb.Runner.Blind_update, 0.9); (Ycsb.Runner.Read, 0.1) ]

(* One full soak pass. Everything on the simulated clock; same seed,
   same report bytes. *)
let run_once ~seed () =
  let tree = mk_tree ~seed in
  let engine = Blsm.Tree.engine tree in
  let disk = Blsm.Tree.disk tree in
  let episodes = Obs.Episodes.create ~gap_us:episode_gap_us () in
  Blsm.Tree.on_stall tree (fun sb ->
      Obs.Episodes.feed episodes
        ~time_us:(Simdisk.Disk.now_us disk)
        ~merge1_us:sb.Blsm.Tree.sb_merge1_us
        ~merge2_us:sb.Blsm.Tree.sb_merge2_us
        ~hard_us:sb.Blsm.Tree.sb_hard_us);
  let ks = Ycsb.Runner.keyspace ~records:0 ~value_bytes in
  ignore (Ycsb.Runner.load engine ks ~n:preload_records ~seed ());
  (* Closed-loop calibration: service-time latency (the coordinated-
     omission-blind number) and the capacity the open loop is paced
     against. *)
  let closed =
    Ycsb.Runner.run engine ks ~label:"closed-loop overwrite"
      ~mix:overwrite_mix ~ops:epoch_ops
      ~dist:(Ycsb.Generator.zipfian ~seed:(seed + 10) ~n:ks.Ycsb.Runner.records ())
      ~seed:(seed + 20) ()
  in
  let rate = 0.75 *. closed.Ycsb.Runner.ops_per_sec in
  (* Window width: ~12 windows per epoch at the offered rate, floored so
     a window always spans many operations. *)
  let window_us =
    max 1_000
      (int_of_float (float_of_int epoch_ops /. rate *. 1e6 /. 12.0))
  in
  let fixed = Ycsb.Open_loop.Fixed_rate { ops_per_sec = rate } in
  let bursty =
    Ycsb.Open_loop.Bursty
      {
        base_ops_per_sec = 0.5 *. rate;
        burst_ops_per_sec = 2.5 *. rate;
        period_us = 4.0 *. float_of_int window_us;
        burst_fraction = 0.25;
      }
  in
  let epochs =
    [
      ("fill", [ (Ycsb.Runner.Insert, 1.0) ], `Uniform, fixed);
      ("overwrite", overwrite_mix, `Zipf, fixed);
      ( "tombstone-flood",
        [ (Ycsb.Runner.Delete, 0.6); (Ycsb.Runner.Insert, 0.4) ],
        `Uniform, bursty );
      ( "latest-skew",
        [ (Ycsb.Runner.Insert, 0.5); (Ycsb.Runner.Blind_update, 0.3);
          (Ycsb.Runner.Read, 0.2) ],
        `Latest, bursty );
    ]
  in
  let results =
    List.mapi
      (fun i (name, mix, dist_kind, schedule) ->
        let dist =
          match dist_kind with
          | `Uniform -> Ycsb.Generator.uniform ~seed:(seed + 30 + i)
          | `Zipf ->
              Ycsb.Generator.zipfian ~seed:(seed + 30 + i)
                ~n:ks.Ycsb.Runner.records ()
          | `Latest -> Ycsb.Generator.latest ~seed:(seed + 30 + i)
        in
        let r =
          Ycsb.Open_loop.run engine ks ~label:name ~mix ~ops:epoch_ops ~dist
            ~schedule ~queue_bound ~window_us ~jitter:0.1
            ~seed:(seed + 40 + i) ()
        in
        { er_name = name; er_open = r })
      epochs
  in
  (* Fleet rollup: merge every epoch's windows — the cross-shard path. *)
  let fleet = Obs.Windows.create ~width_us:window_us in
  List.iter
    (fun er -> Obs.Windows.merge ~into:fleet er.er_open.Ycsb.Open_loop.ol_windows)
    results;
  (* Register the series in the tree's metrics registry and dump the
     soak.* namespace, proving the observatory shows up in `metrics`. *)
  let reg = Blsm.Tree.metrics tree in
  Obs.Windows.register fleet reg ~name:"soak.lat";
  let metrics_excerpt = Obs.Metrics.dump ~prefix:"soak." reg in
  (* Chrome counter tracks for the stall episodes. *)
  let tr = Obs.Trace.create () in
  let finish = Obs.Trace.enable_buffer tr ~format:Obs.Trace.Chrome in
  Obs.Episodes.emit_counters tr episodes;
  let counter_trace = finish () in
  {
    sr_closed = closed;
    sr_rate = rate;
    sr_window_us = window_us;
    sr_epochs = results;
    sr_fleet = fleet;
    sr_episodes = Obs.Episodes.episodes episodes;
    sr_fed_total_us = Obs.Episodes.fed_total_us episodes;
    sr_fed_samples = Obs.Episodes.fed_samples episodes;
    sr_metrics_excerpt = metrics_excerpt;
    sr_counter_trace = counter_trace;
  }

(* ------------------------------------------------------------------ *)
(* Report *)

let hist_json h =
  Printf.sprintf
    "{\"count\": %d, \"mean_us\": %.1f, \"p50_us\": %d, \"p99_us\": %d, \
     \"p999_us\": %d, \"max_us\": %d}"
    (H.count h) (H.mean h) (H.percentile h 50.0) (H.percentile h 99.0)
    (H.percentile h 99.9) (H.max_value h)

let schedule_name = function
  | Ycsb.Open_loop.Fixed_rate _ -> "fixed"
  | Ycsb.Open_loop.Bursty _ -> "bursty"

let report ~seed (r : soak_result) ~gates =
  let buf = Buffer.create 16_384 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"pr\": 8,\n";
  out "  \"harness\": \"bench soak\",\n";
  out "  \"seed\": %d,\n" seed;
  out
    "  \"config\": {\"records\": %d, \"value_bytes\": %d, \"epoch_ops\": %d, \
     \"c0_bytes\": %d, \"queue_bound\": %d, \"window_us\": %d, \
     \"episode_gap_us\": %.1f, \"open_loop_rate_ops_per_sec\": %.1f},\n"
    preload_records value_bytes epoch_ops c0_bytes queue_bound r.sr_window_us
    episode_gap_us r.sr_rate;
  let c = r.sr_closed in
  out
    "  \"closed_loop\": {\"label\": \"%s\", \"ops\": %d, \"ops_per_sec\": \
     %.1f, \"latency\": %s},\n"
    (Obs.Json.escape c.Ycsb.Runner.label)
    c.Ycsb.Runner.ops c.Ycsb.Runner.ops_per_sec
    (hist_json c.Ycsb.Runner.latency);
  out "  \"epochs\": [\n";
  let n = List.length r.sr_epochs in
  List.iteri
    (fun i er ->
      let o = er.er_open in
      out
        "    {\"name\": \"%s\", \"schedule\": \"%s\", \"offered\": %d, \
         \"completed\": %d, \"shed\": %d, \"ops_per_sec\": %.1f, \
         \"max_queue\": %d,\n"
        er.er_name
        (schedule_name o.Ycsb.Open_loop.ol_schedule)
        o.Ycsb.Open_loop.ol_offered o.Ycsb.Open_loop.ol_completed
        o.Ycsb.Open_loop.ol_shed o.Ycsb.Open_loop.ol_ops_per_sec
        o.Ycsb.Open_loop.ol_max_queue;
      out "     \"arrival_latency\": %s,\n"
        (hist_json o.Ycsb.Open_loop.ol_latency);
      out "     \"service_latency\": %s,\n"
        (hist_json o.Ycsb.Open_loop.ol_service);
      let tv = Obs.Windows.throughput o.Ycsb.Open_loop.ol_windows in
      out
        "     \"throughput\": {\"windows\": %d, \"mean_ops_per_sec\": %.1f, \
         \"stddev_ops_per_sec\": %.1f, \"cv\": %.3f},\n"
        tv.Obs.Windows.tv_windows tv.Obs.Windows.tv_mean_ops_per_sec
        tv.Obs.Windows.tv_stddev_ops_per_sec tv.Obs.Windows.tv_cv;
      out "     \"queue_depth\": [%s],\n"
        (String.concat ", "
           (List.map
              (fun (t_sec, d) -> Printf.sprintf "[%.3f, %d]" t_sec d)
              o.Ycsb.Open_loop.ol_depth_rows));
      out "     \"windows\": %s}%s\n"
        (Obs.Windows.rows_json o.Ycsb.Open_loop.ol_windows)
        (if i = n - 1 then "" else ",");
      ())
    r.sr_epochs;
  out "  ],\n";
  out "  \"fleet_windows\": %s,\n" (Obs.Windows.rows_json r.sr_fleet);
  out "  \"episodes\": %s,\n" (Obs.Episodes.to_json r.sr_episodes);
  let ep_sum =
    List.fold_left
      (fun a e -> a +. e.Obs.Episodes.ep_total_us)
      0.0 r.sr_episodes
  in
  let worst_tile =
    List.fold_left
      (fun a e ->
        Float.max a
          (Float.abs
             (e.Obs.Episodes.ep_merge1_us +. e.Obs.Episodes.ep_merge2_us
              +. e.Obs.Episodes.ep_hard_us -. e.Obs.Episodes.ep_total_us)))
      0.0 r.sr_episodes
  in
  out
    "  \"episode_tiling\": {\"episodes\": %d, \"stalled_writes\": %d, \
     \"episodes_total_us\": %.3f, \"fed_total_us\": %.3f, \
     \"worst_episode_err_us\": %.6f},\n"
    (List.length r.sr_episodes)
    r.sr_fed_samples ep_sum r.sr_fed_total_us worst_tile;
  let closed_p999 = float_of_int (H.percentile c.Ycsb.Runner.latency 99.9) in
  let open_overwrite =
    List.find (fun er -> er.er_name = "overwrite") r.sr_epochs
  in
  let open_p999 =
    float_of_int
      (H.percentile open_overwrite.er_open.Ycsb.Open_loop.ol_latency 99.9)
  in
  out
    "  \"closed_vs_open\": {\"workload\": \"overwrite\", \"closed_p999_us\": \
     %.1f, \"open_p999_us\": %.1f, \"open_over_closed\": %.2f},\n"
    closed_p999 open_p999
    (open_p999 /. Float.max 1.0 closed_p999);
  out "  \"metrics_excerpt\": \"%s\",\n" (Obs.Json.escape r.sr_metrics_excerpt);
  out "  \"gates\": [\n";
  let ng = List.length gates in
  List.iteri
    (fun i g ->
      out "    %s%s\n" (Gate.to_json ~digits:3 g) (if i = ng - 1 then "" else ","))
    gates;
  out "  ]\n";
  out "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

let run ?(out = "BENCH_PR8.json") (s : Scale.t) =
  Scale.section
    "Stability observatory: open-loop soak (writes BENCH_PR8.json)";
  let seed = s.Scale.seed in
  let r = run_once ~seed () in
  (* Gates (computed before the report so the report can include them). *)
  let closed_p999 =
    float_of_int (H.percentile r.sr_closed.Ycsb.Runner.latency 99.9)
  in
  let open_overwrite =
    List.find (fun er -> er.er_name = "overwrite") r.sr_epochs
  in
  let open_p999 =
    float_of_int
      (H.percentile open_overwrite.er_open.Ycsb.Open_loop.ol_latency 99.9)
  in
  let worst_queue =
    List.fold_left
      (fun a er -> max a er.er_open.Ycsb.Open_loop.ol_max_queue)
      0 r.sr_epochs
  in
  let min_epoch_windows =
    List.fold_left
      (fun a er ->
        min a
          (List.length (Obs.Windows.rows er.er_open.Ycsb.Open_loop.ol_windows)))
      max_int r.sr_epochs
  in
  let worst_tile =
    List.fold_left
      (fun a e ->
        Float.max a
          (Float.abs
             (e.Obs.Episodes.ep_merge1_us +. e.Obs.Episodes.ep_merge2_us
              +. e.Obs.Episodes.ep_hard_us -. e.Obs.Episodes.ep_total_us)))
      0.0 r.sr_episodes
  in
  let ep_sum =
    List.fold_left
      (fun a e -> a +. e.Obs.Episodes.ep_total_us)
      0.0 r.sr_episodes
  in
  let gates =
    [
      Gate.at_least "soak.epoch_windows.nonempty" (float_of_int min_epoch_windows)
        3.0;
      Gate.at_least "soak.episodes.count" (float_of_int (List.length r.sr_episodes))
        1.0;
      Gate.at_most "soak.episode.attribution_tiling_err_us" worst_tile 0.5;
      Gate.at_most "soak.episode.sum_vs_fed_err_us"
        (Float.abs (ep_sum -. r.sr_fed_total_us))
        1.0;
      Gate.at_most "soak.open.overwrite.p999_us" open_p999 gate_open_p999_us;
      Gate.at_most "soak.open.max_queue_depth" (float_of_int worst_queue)
        gate_max_queue;
      Gate.at_least "soak.open_over_closed.p999"
        (open_p999 /. Float.max 1.0 closed_p999)
        gate_min_open_over_closed;
    ]
  in
  let doc = report ~seed r ~gates in
  (* Determinism: a second same-seed pass must render the same bytes. *)
  let r2 = run_once ~seed () in
  let doc2 = report ~seed r2 ~gates in
  let identical = String.equal doc doc2 in
  let gates =
    gates
    @ [ Gate.at_least "soak.same_seed_byte_identical"
          (if identical then 1.0 else 0.0)
          1.0 ]
  in
  let doc = report ~seed r ~gates in
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s\n" path
  in
  write out doc;
  write "soak_windows.csv" (Obs.Windows.rows_csv r.sr_fleet);
  write "soak_episodes.csv" (Obs.Episodes.to_csv r.sr_episodes);
  write "soak_stalls.trace.json" r.sr_counter_trace;
  (* Human summary *)
  Printf.printf "\n%s\n" (Fmt.str "%a" Ycsb.Runner.pp_result r.sr_closed);
  List.iter
    (fun er ->
      Printf.printf "%s\n" (Fmt.str "%a" Ycsb.Open_loop.pp_result er.er_open))
    r.sr_epochs;
  Printf.printf
    "episodes: %d (%d stalled writes, %.1f ms attributed; worst tiling err \
     %.6f us)\n"
    (List.length r.sr_episodes)
    r.sr_fed_samples (r.sr_fed_total_us /. 1000.0) worst_tile;
  Printf.printf "closed p99.9 %.0f us vs open p99.9 %.0f us (x%.2f)\n"
    closed_p999 open_p999
    (open_p999 /. Float.max 1.0 closed_p999);
  Gate.exit_on_failure ~digits:3 gates
