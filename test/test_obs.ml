(* Tests for lib/obs (metrics registry, event tracing) and the tree's
   stall attribution: registry dump formats, duplicate rejection, prefix
   filtering; trace sinks, zero-cost-when-disabled, determinism; and the
   ISSUE-3 acceptance property that for a saturated spring-scheduler run
   the attributed stall causes sum to stall_us for every operation. *)

let check = Alcotest.check

(* substring test (no Str dependency) *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* -------------------------------------------------------------------- *)
(* Metrics registry *)

let test_registry_dump_text () =
  let reg = Obs.Metrics.create () in
  let n = ref 0 in
  Obs.Metrics.counter reg "b.count" ~help:"ops" (fun () -> !n);
  Obs.Metrics.gauge reg "a.fill" ~help:"fraction" (fun () -> 0.25);
  n := 41;
  incr n;
  check Alcotest.string "sorted name value lines"
    "a.fill 0.250\nb.count 42\n" (Obs.Metrics.dump reg)

let test_registry_samples_at_dump_time () =
  let reg = Obs.Metrics.create () in
  let n = ref 0 in
  Obs.Metrics.counter reg "x" ~help:"" (fun () -> !n);
  let before = Obs.Metrics.dump reg in
  n := 7;
  let after = Obs.Metrics.dump reg in
  check Alcotest.string "before" "x 0\n" before;
  check Alcotest.string "after" "x 7\n" after

let test_registry_histogram_expansion () =
  let reg = Obs.Metrics.create () in
  let h = Repro_util.Histogram.create () in
  List.iter (fun v -> Repro_util.Histogram.add h v) [ 1; 2; 3; 4; 100 ];
  Obs.Metrics.histogram reg "lat" ~help:"" h;
  let out = Obs.Metrics.dump reg in
  List.iter
    (fun field ->
      if not (contains out field)
      then Alcotest.failf "missing %s in %S" field out)
    [ "lat.count 5"; "lat.mean"; "lat.p50"; "lat.p99"; "lat.p999"; "lat.max" ]

let test_registry_prefix_filter () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.counter reg "tree.puts" ~help:"" (fun () -> 1);
  Obs.Metrics.counter reg "disk.seeks" ~help:"" (fun () -> 2);
  Obs.Metrics.counter reg "tree.gets" ~help:"" (fun () -> 3);
  check Alcotest.string "tree only" "tree.gets 3\ntree.puts 1\n"
    (Obs.Metrics.dump ~prefix:"tree." reg);
  check Alcotest.string "disk only" "disk.seeks 2\n"
    (Obs.Metrics.dump ~prefix:"disk." reg)

let test_registry_duplicate_rejected () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.counter reg "dup" ~help:"" (fun () -> 0);
  match Obs.Metrics.gauge reg "dup" ~help:"" (fun () -> 0.0) with
  | () -> Alcotest.fail "duplicate name accepted"
  | exception Invalid_argument _ -> ()

let test_registry_json_shape () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.counter reg "c" ~help:"" (fun () -> 3);
  Obs.Metrics.gauge reg "g" ~help:"" (fun () -> 1.5);
  let h = Repro_util.Histogram.create () in
  Repro_util.Histogram.add h 10;
  Obs.Metrics.histogram reg "h" ~help:"" h;
  let out = Obs.Metrics.dump_json reg in
  List.iter
    (fun frag ->
      if not (contains out frag) then
        Alcotest.failf "missing %s in %S" frag out)
    [ "\"c\": 3"; "\"g\": 1.500"; "\"h\": {"; "\"count\": 1" ];
  check Alcotest.bool "object delimited" true
    (String.length out > 2 && out.[0] = '{')

(* -------------------------------------------------------------------- *)
(* Trace sinks *)

let test_trace_disabled_is_noop () =
  let tr = Obs.Trace.create () in
  check Alcotest.bool "disabled" false (Obs.Trace.enabled tr);
  Obs.Trace.instant tr ~cat:"t" ~name:"e" ~args:[];
  Obs.Trace.complete tr ~cat:"t" ~name:"s" ~ts_us:0.0 ~dur_us:1.0 ~args:[];
  check Alcotest.int "nothing emitted" 0 (Obs.Trace.events_emitted tr)

let test_trace_chrome_buffer () =
  let clock = ref 100.0 in
  let tr = Obs.Trace.create ~now:(fun () -> !clock) () in
  let finish = Obs.Trace.enable_buffer tr ~format:Obs.Trace.Chrome in
  check Alcotest.bool "enabled" true (Obs.Trace.enabled tr);
  Obs.Trace.instant tr ~cat:"c" ~name:"tick"
    ~args:[ ("n", Obs.Trace.I 1); ("ok", Obs.Trace.B true) ];
  clock := 250.0;
  Obs.Trace.complete tr ~cat:"c" ~name:"span" ~ts_us:100.0 ~dur_us:150.0
    ~args:[ ("f", Obs.Trace.F 1.5); ("s", Obs.Trace.S "x\"y") ];
  let doc = finish () in
  check Alcotest.bool "disabled after finish" false (Obs.Trace.enabled tr);
  check Alcotest.int "two events" 2 (Obs.Trace.events_emitted tr);
  let has frag = contains doc frag in
  List.iter
    (fun frag ->
      if not (has frag) then Alcotest.failf "missing %s in %S" frag doc)
    [
      "{\"traceEvents\":[";
      "\"ph\":\"i\"";
      "\"name\":\"tick\"";
      "\"ts\":100.000";
      "\"ph\":\"X\"";
      "\"dur\":150.000";
      "\"s\":\"x\\\"y\"";
    ]

let test_trace_jsonl_lines () =
  let tr = Obs.Trace.create () in
  let finish = Obs.Trace.enable_buffer tr ~format:Obs.Trace.Jsonl in
  for i = 1 to 3 do
    Obs.Trace.instant tr ~cat:"c" ~name:"e" ~args:[ ("i", Obs.Trace.I i) ]
  done;
  let doc = finish () in
  let lines =
    String.split_on_char '\n' doc |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "one object per line" 3 (List.length lines);
  List.iter
    (fun l ->
      if not (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}')
      then Alcotest.failf "line not an object: %S" l)
    lines

let test_trace_file_sink () =
  let path = Filename.temp_file "obs_test" ".trace.json" in
  let tr = Obs.Trace.create () in
  Obs.Trace.enable_file tr ~format:Obs.Trace.Chrome path;
  Obs.Trace.instant tr ~cat:"c" ~name:"e" ~args:[];
  Obs.Trace.disable tr;
  let doc = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  check Alcotest.bool "has header" true
    (contains doc "{\"traceEvents\":[");
  check Alcotest.bool "has footer" true
    (contains doc "]}")

(* -------------------------------------------------------------------- *)
(* Tree integration: attribution and determinism *)

let mk_store () =
  Pagestore.Store.create
    ~config:
      {
        Pagestore.Store.cfg_page_size = 4096;
        cfg_buffer_pages = 1024;
        cfg_durability = Pagestore.Wal.Full;
      }
    Simdisk.Profile.ssd_raid0

let mk_tree ?(scheduler = Blsm.Config.Spring) ?(c0_kb = 64) () =
  let store = mk_store () in
  Blsm.Tree.create
    ~config:
      {
        Blsm.Config.default with
        Blsm.Config.c0_bytes = c0_kb * 1024;
        scheduler;
      }
    store

let saturated_run ?scheduler ~ops () =
  let tree = mk_tree ?scheduler () in
  let prng = Repro_util.Prng.of_int 11 in
  let worst = ref 0.0 in
  for i = 0 to ops - 1 do
    Blsm.Tree.put tree
      (Repro_util.Keygen.key_of_id i)
      (Repro_util.Keygen.value prng 512);
    let sb = Blsm.Tree.last_stall tree in
    let attributed =
      sb.Blsm.Tree.sb_merge1_us +. sb.Blsm.Tree.sb_merge2_us
      +. sb.Blsm.Tree.sb_hard_us
    in
    worst :=
      Float.max !worst (Float.abs (attributed -. sb.Blsm.Tree.sb_total_us))
  done;
  (tree, !worst)

let test_attribution_sums_spring () =
  let tree, worst = saturated_run ~ops:2_000 () in
  if worst > 0.5 then
    Alcotest.failf "worst attribution error %.6f us over 0.5" worst;
  let s = Blsm.Tree.stats tree in
  check Alcotest.bool "spring run paced merges" true (s.stall_merge1_us > 0.0);
  check Alcotest.bool "wal time attributed" true (s.wal_us > 0.0)

let test_attribution_naive_hard_stalls () =
  let tree, worst =
    saturated_run ~scheduler:Blsm.Config.Naive ~ops:2_000 ()
  in
  if worst > 0.5 then
    Alcotest.failf "worst attribution error %.6f us over 0.5" worst;
  let s = Blsm.Tree.stats tree in
  check Alcotest.bool "naive run hard-stalled" true
    (s.hard_stalls > 0);
  check Alcotest.bool "hard time attributed" true (s.stall_hard_us > 0.0)

(* The shell keeps the one hard-stall counter: [stats.hard_stalls]
   equals the [<prefix>.hard_stalls] metric, on a naive tree and on the
   LevelDB configuration's level-0 stop (no compaction credit, so only
   the stop drains level 0). *)
let test_hard_stalls_counter_parity () =
  let metric reg name =
    match String.split_on_char ' ' (String.trim (Obs.Metrics.dump ~prefix:name reg)) with
    | [ n; v ] when n = name -> int_of_string v
    | _ -> Alcotest.failf "metric %s not registered" name
  in
  let tree, _ = saturated_run ~scheduler:Blsm.Config.Naive ~ops:2_000 () in
  let n = (Blsm.Tree.stats tree).hard_stalls in
  check Alcotest.bool "naive tree hard-stalled" true (n > 0);
  check Alcotest.int "tree.hard_stalls" n (metric (Blsm.Tree.metrics tree) "tree.hard_stalls");
  let module L = Blsm.Policy_tree in
  let pt =
    L.create
      ~config:
        { Blsm.Config.default with Blsm.Config.c0_bytes = 16 * 1024; bloom_bits_per_key = 0;
          extent_pages = 8 }
      ~pconfig:
        { L.leveldb_pconfig with
          L.pt_file_bytes = 16 * 1024; pt_base_bytes = 64 * 1024; pt_fanout = 4.0;
          pt_l0_trigger = 2; pt_l0_stop = 4;
          pt_pacing = L.Credit { credit_per_byte = 0.0; slowdown_at = 4; slowdown_us = 1000.0 } }
      ~policy:Blsm.Compaction_policy.leveldb_seed (mk_store ())
  in
  let prng = Repro_util.Prng.of_int 11 in
  for i = 0 to 3_999 do
    L.put pt (Repro_util.Keygen.key_of_id i) (Repro_util.Keygen.value prng 64)
  done;
  let n = (L.stats pt).hard_stalls in
  check Alcotest.bool "level-0 stop hard-stalled" true (n > 0);
  check Alcotest.int "ptree.hard_stalls" n (metric (L.metrics pt) "ptree.hard_stalls")

(* Both LSM hosts recover through the shell: each charges the replay to
   [recovery_us], exports it as [<prefix>.recovery_us] and emits the
   [recovery] span. *)
let test_recovery_time_attributed () =
  let load put =
    for i = 0 to 200 do put (Repro_util.Keygen.key_of_id i) (String.make 100 'v') done
  in
  let tree_input () =
    let tree = mk_tree () in
    load (Blsm.Tree.put tree);
    ( Blsm.Tree.store tree,
      fun () ->
        let fresh = Blsm.Tree.crash_and_recover tree in
        ((Blsm.Tree.stats fresh).recovery_us, Blsm.Tree.metrics fresh) )
  in
  let policy_input () =
    let store = mk_store () in
    let t = Blsm.Policy_tree.create ~policy:(List.assoc "leveled" Blsm.Compaction_policy.named) store in
    load (Blsm.Policy_tree.put t);
    ( store,
      fun () ->
        let fresh = Blsm.Policy_tree.crash_and_recover t in
        ((Blsm.Policy_tree.stats fresh).recovery_us, Blsm.Policy_tree.metrics fresh) )
  in
  List.iter
    (fun (prefix, input) ->
      let store, recover = input () in
      let finish = Obs.Trace.enable_buffer (Pagestore.Store.trace store) ~format:Obs.Trace.Jsonl in
      let recovery_us, reg = recover () in
      let trace = finish () in
      check Alcotest.bool (prefix ^ ": recovery_us > 0") true (recovery_us > 0.0);
      let line = Printf.sprintf "%s.recovery_us %.3f\n" prefix recovery_us in
      check Alcotest.bool (prefix ^ ": " ^ line) true (contains (Obs.Metrics.dump reg) line);
      check Alcotest.bool (prefix ^ ": recovery span") true
        (contains trace "{\"name\":\"recovery\""))
    [ ("tree", tree_input); ("ptree", policy_input) ]

let traced_run ~seed ~ops =
  let tree = mk_tree () in
  let tr = Pagestore.Store.trace (Blsm.Tree.store tree) in
  let finish = Obs.Trace.enable_buffer tr ~format:Obs.Trace.Chrome in
  let prng = Repro_util.Prng.of_int seed in
  for i = 0 to ops - 1 do
    (* per-op sizes drawn from the seed so distinct seeds give distinct
       timings (value *content* alone never reaches the trace) *)
    Blsm.Tree.put tree
      (Repro_util.Keygen.key_of_id i)
      (Repro_util.Keygen.value prng (64 + Repro_util.Prng.int prng 256))
  done;
  finish ()

let test_trace_deterministic () =
  let a = traced_run ~seed:5 ~ops:800 in
  let b = traced_run ~seed:5 ~ops:800 in
  check Alcotest.bool "byte-identical same-seed traces" true (String.equal a b);
  let c = traced_run ~seed:6 ~ops:800 in
  check Alcotest.bool "different seed differs" false (String.equal a c)

let test_tree_metrics_registry () =
  let tree = mk_tree () in
  for i = 0 to 99 do
    Blsm.Tree.put tree (Repro_util.Keygen.key_of_id i) (String.make 100 'v')
  done;
  ignore (Blsm.Tree.get tree (Repro_util.Keygen.key_of_id 1));
  let reg = Blsm.Tree.metrics tree in
  check Alcotest.bool "cached" true (reg == Blsm.Tree.metrics tree);
  let out = Obs.Metrics.dump reg in
  List.iter
    (fun frag ->
      if not (contains out frag) then
        Alcotest.failf "missing %s in dump" frag)
    [ "tree.puts 100"; "tree.gets 1"; "disk."; "wal."; "buf."; "faults." ]

(* -------------------------------------------------------------------- *)
(* Windowed aggregation (PR 8) *)

let test_windows_rows_and_gaps () =
  let w = Obs.Windows.create ~width_us:1_000_000 in
  Obs.Windows.record w ~time_us:100.0 ~latency_us:10;
  Obs.Windows.record w ~time_us:200.0 ~latency_us:30;
  (* window 1 empty: a full stall must appear as a zero row *)
  Obs.Windows.record w ~time_us:2_500_000.0 ~latency_us:50;
  match Obs.Windows.rows w with
  | [ r0; r1; r2 ] ->
      check Alcotest.int "w0 ops" 2 r0.Obs.Windows.r_ops;
      check (Alcotest.float 0.01) "w0 ops/sec" 2.0 r0.Obs.Windows.r_ops_per_sec;
      check Alcotest.int "w0 max" 30 r0.Obs.Windows.r_max_us;
      check Alcotest.int "stalled window ops" 0 r1.Obs.Windows.r_ops;
      check Alcotest.int "stalled window p999" 0 r1.Obs.Windows.r_p999_us;
      check (Alcotest.float 0.001) "w2 start" 2.0 r2.Obs.Windows.r_t_sec;
      check Alcotest.int "w2 p50" 50 r2.Obs.Windows.r_p50_us
  | rows -> Alcotest.failf "expected 3 rows, got %d" (List.length rows)

let test_windows_empty () =
  let w = Obs.Windows.create ~width_us:1000 in
  check Alcotest.int "no rows" 0 (List.length (Obs.Windows.rows w));
  check Alcotest.int "no ops" 0 (Obs.Windows.total_ops w);
  let tv = Obs.Windows.throughput w in
  check Alcotest.int "no windows" 0 tv.Obs.Windows.tv_windows;
  check (Alcotest.float 0.0) "cv" 0.0 tv.Obs.Windows.tv_cv

let test_windows_single_sample () =
  let w = Obs.Windows.create ~width_us:500_000 in
  Obs.Windows.record w ~time_us:750_000.0 ~latency_us:123;
  match Obs.Windows.rows w with
  | [ r ] ->
      check (Alcotest.float 0.001) "start" 0.5 r.Obs.Windows.r_t_sec;
      check Alcotest.int "ops" 1 r.Obs.Windows.r_ops;
      List.iter
        (fun v -> check Alcotest.int "all quantiles = the sample" 123 v)
        [ r.Obs.Windows.r_p50_us; r.Obs.Windows.r_p99_us;
          r.Obs.Windows.r_p999_us; r.Obs.Windows.r_max_us ]
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_windows_boundary_op () =
  (* a completion stamped exactly on a window edge opens the next
     window — mirrors the Timeseries convention *)
  let w = Obs.Windows.create ~width_us:1_000 in
  Obs.Windows.record w ~time_us:999.0 ~latency_us:1;
  Obs.Windows.record w ~time_us:1_000.0 ~latency_us:9;
  match Obs.Windows.rows w with
  | [ r0; r1 ] ->
      check Alcotest.int "edge op not in window 0" 1 r0.Obs.Windows.r_ops;
      check Alcotest.int "edge op in window 1" 1 r1.Obs.Windows.r_ops;
      check Alcotest.int "its latency too" 9 r1.Obs.Windows.r_max_us
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let test_windows_merge_rollup () =
  let a = Obs.Windows.create ~width_us:1_000 in
  let b = Obs.Windows.create ~width_us:1_000 in
  Obs.Windows.record a ~time_us:500.0 ~latency_us:10;
  Obs.Windows.record b ~time_us:600.0 ~latency_us:30;
  Obs.Windows.record b ~time_us:2_500.0 ~latency_us:7;
  Obs.Windows.merge ~into:a b;
  check Alcotest.int "total ops" 3 (Obs.Windows.total_ops a);
  (match Obs.Windows.rows a with
  | [ r0; r1; r2 ] ->
      check Alcotest.int "window 0 merged" 2 r0.Obs.Windows.r_ops;
      check Alcotest.int "window 0 max" 30 r0.Obs.Windows.r_max_us;
      check Alcotest.int "gap window" 0 r1.Obs.Windows.r_ops;
      check Alcotest.int "window 2 from src only" 1 r2.Obs.Windows.r_ops
  | rows -> Alcotest.failf "expected 3 rows, got %d" (List.length rows));
  (* src untouched *)
  check Alcotest.int "src ops" 2 (Obs.Windows.total_ops b)

let test_windows_merge_width_mismatch () =
  let a = Obs.Windows.create ~width_us:1_000 in
  let b = Obs.Windows.create ~width_us:2_000 in
  match Obs.Windows.merge ~into:a b with
  | () -> Alcotest.fail "width mismatch accepted"
  | exception Invalid_argument _ -> ()

let test_windows_throughput_cv () =
  let w = Obs.Windows.create ~width_us:1_000_000 in
  (* two windows: 4 ops then 2 ops -> mean 3, stddev 1, cv 1/3 *)
  for i = 1 to 4 do
    Obs.Windows.record w ~time_us:(float_of_int (i * 1000)) ~latency_us:1
  done;
  for i = 1 to 2 do
    Obs.Windows.record w
      ~time_us:(1_000_000.0 +. float_of_int (i * 1000))
      ~latency_us:1
  done;
  let tv = Obs.Windows.throughput w in
  check Alcotest.int "windows" 2 tv.Obs.Windows.tv_windows;
  check (Alcotest.float 0.01) "mean" 3.0 tv.Obs.Windows.tv_mean_ops_per_sec;
  check (Alcotest.float 0.01) "stddev" 1.0 tv.Obs.Windows.tv_stddev_ops_per_sec;
  check (Alcotest.float 0.001) "cv" (1.0 /. 3.0) tv.Obs.Windows.tv_cv;
  check (Alcotest.float 0.01) "min" 2.0 tv.Obs.Windows.tv_min_ops_per_sec;
  check (Alcotest.float 0.01) "max" 4.0 tv.Obs.Windows.tv_max_ops_per_sec

let test_windows_renderers_and_registry () =
  let w = Obs.Windows.create ~width_us:1_000_000 in
  Obs.Windows.record w ~time_us:10.0 ~latency_us:100;
  Obs.Windows.record w ~time_us:20.0 ~latency_us:300;
  let csv = Obs.Windows.rows_csv w in
  check Alcotest.bool "csv header" true
    (contains csv "t_sec,ops,ops_per_sec,mean_us,p50_us,p99_us,p999_us,max_us");
  check Alcotest.bool "csv row" true (contains csv "0.000,2,");
  let json = Obs.Windows.rows_json w in
  List.iter
    (fun frag ->
      if not (contains json frag) then
        Alcotest.failf "missing %s in %S" frag json)
    [ "\"t_sec\": 0.000"; "\"ops\": 2"; "\"p999_us\": 300" ];
  let reg = Obs.Metrics.create () in
  Obs.Windows.register w reg ~name:"lat";
  let out = Obs.Metrics.dump reg in
  List.iter
    (fun frag ->
      if not (contains out frag) then
        Alcotest.failf "missing %s in %S" frag out)
    [ "lat.windows 1"; "lat.ops 2"; "lat.p999_us.worst 300" ]

(* -------------------------------------------------------------------- *)
(* Stall-episode detection (PR 8) *)

let feed_ep e ~t ~m1 ~m2 ~h =
  Obs.Episodes.feed e ~time_us:t ~merge1_us:m1 ~merge2_us:m2 ~hard_us:h

let test_episodes_known_boundaries () =
  let e = Obs.Episodes.create ~gap_us:100.0 () in
  (* episode 1: two contiguous merge1-dominated stalls *)
  feed_ep e ~t:1_000.0 ~m1:400.0 ~m2:0.0 ~h:0.0;
  feed_ep e ~t:1_050.0 ~m1:30.0 ~m2:10.0 ~h:0.0;
  (* 500 us of quiet > gap: episode 2, hard-dominated *)
  feed_ep e ~t:1_600.0 ~m1:0.0 ~m2:10.0 ~h:40.0;
  match Obs.Episodes.episodes e with
  | [ a; b ] ->
      check (Alcotest.float 0.001) "ep1 start" 600.0 a.Obs.Episodes.ep_start_us;
      check (Alcotest.float 0.001) "ep1 end" 1_050.0 a.Obs.Episodes.ep_end_us;
      check Alcotest.int "ep1 ops" 2 a.Obs.Episodes.ep_ops;
      check (Alcotest.float 0.001) "ep1 total" 440.0 a.Obs.Episodes.ep_total_us;
      check Alcotest.string "ep1 label" "merge1" a.Obs.Episodes.ep_label;
      check (Alcotest.float 0.001) "ep2 start" 1_550.0 b.Obs.Episodes.ep_start_us;
      check Alcotest.string "ep2 label" "hard" b.Obs.Episodes.ep_label
  | eps -> Alcotest.failf "expected 2 episodes, got %d" (List.length eps)

let test_episodes_zero_samples_ignored () =
  let e = Obs.Episodes.create () in
  feed_ep e ~t:100.0 ~m1:0.0 ~m2:0.0 ~h:0.0;
  check Alcotest.int "nothing fed" 0 (Obs.Episodes.fed_samples e);
  check Alcotest.int "no episodes" 0 (List.length (Obs.Episodes.episodes e))

let test_episodes_tiling_invariant () =
  (* attribution quanta must tile each episode exactly, and episode
     totals must tile everything fed *)
  let e = Obs.Episodes.create ~gap_us:50.0 () in
  let prng = Repro_util.Prng.of_int 21 in
  let t = ref 0.0 in
  for _ = 1 to 500 do
    (* occasional long quiet gaps split episodes *)
    let quiet =
      if Repro_util.Prng.int prng 10 = 0 then 500.0
      else float_of_int (Repro_util.Prng.int prng 40)
    in
    let m1 = float_of_int (Repro_util.Prng.int prng 30) in
    let m2 = float_of_int (Repro_util.Prng.int prng 20) in
    let h = if Repro_util.Prng.int prng 5 = 0 then 25.0 else 0.0 in
    t := !t +. quiet +. m1 +. m2 +. h;
    feed_ep e ~t:!t ~m1 ~m2 ~h
  done;
  let eps = Obs.Episodes.episodes e in
  check Alcotest.bool "several episodes" true (List.length eps > 3);
  let sum = ref 0.0 in
  List.iter
    (fun ep ->
      let err =
        Float.abs
          (ep.Obs.Episodes.ep_merge1_us +. ep.Obs.Episodes.ep_merge2_us
           +. ep.Obs.Episodes.ep_hard_us -. ep.Obs.Episodes.ep_total_us)
      in
      if err > 1e-6 then Alcotest.failf "episode tiling err %.9f" err;
      sum := !sum +. ep.Obs.Episodes.ep_total_us)
    eps;
  check (Alcotest.float 1e-6) "episodes tile everything fed"
    (Obs.Episodes.fed_total_us e) !sum

let test_episodes_label_tiebreak () =
  (* exactly half hard, half merge2: severity order labels it hard *)
  let e = Obs.Episodes.create () in
  feed_ep e ~t:100.0 ~m1:0.0 ~m2:25.0 ~h:25.0;
  (match Obs.Episodes.episodes e with
  | [ ep ] -> check Alcotest.string "tie -> hard" "hard" ep.Obs.Episodes.ep_label
  | _ -> Alcotest.fail "expected 1 episode");
  (* no cause reaching half: mixed *)
  let e2 = Obs.Episodes.create () in
  feed_ep e2 ~t:100.0 ~m1:20.0 ~m2:15.0 ~h:15.0;
  match Obs.Episodes.episodes e2 with
  | [ ep ] -> check Alcotest.string "mixed" "mixed" ep.Obs.Episodes.ep_label
  | _ -> Alcotest.fail "expected 1 episode"

let episodes_run seed =
  (* a seeded synthetic stall sequence rendered every way we emit it *)
  let e = Obs.Episodes.create ~gap_us:80.0 () in
  let prng = Repro_util.Prng.of_int seed in
  let t = ref 0.0 in
  for _ = 1 to 200 do
    let quiet = float_of_int (Repro_util.Prng.int prng 200) in
    let m1 = float_of_int (Repro_util.Prng.int prng 50) in
    let m2 = float_of_int (Repro_util.Prng.int prng 30) in
    t := !t +. quiet +. m1 +. m2;
    feed_ep e ~t:!t ~m1 ~m2 ~h:0.0
  done;
  let eps = Obs.Episodes.episodes e in
  let tr = Obs.Trace.create () in
  let finish = Obs.Trace.enable_buffer tr ~format:Obs.Trace.Chrome in
  Obs.Episodes.emit_counters tr e;
  Obs.Episodes.to_json eps ^ "\n" ^ Obs.Episodes.to_csv eps ^ "\n" ^ finish ()

let test_episodes_deterministic () =
  let a = episodes_run 13 and b = episodes_run 13 in
  check Alcotest.bool "same-seed byte-identical" true (String.equal a b);
  let c = episodes_run 14 in
  check Alcotest.bool "different seed differs" false (String.equal a c)

let test_episodes_counter_trace () =
  let e = Obs.Episodes.create () in
  feed_ep e ~t:1_000.0 ~m1:100.0 ~m2:0.0 ~h:0.0;
  let tr = Obs.Trace.create () in
  let finish = Obs.Trace.enable_buffer tr ~format:Obs.Trace.Chrome in
  Obs.Episodes.emit_counters tr e;
  let doc = finish () in
  List.iter
    (fun frag ->
      if not (contains doc frag) then
        Alcotest.failf "missing %s in %S" frag doc)
    [
      "\"ph\":\"C\"";
      "\"name\":\"stall\"";
      "\"ts\":900.000";
      "\"merge1_us\":100.000";
      (* the zero sample closing the episode's track *)
      "\"ts\":1000.000";
      "\"merge1_us\":0.000";
    ]

(* The end-to-end hookup: a saturated tree feeds the detector through
   Tree.on_stall, and what arrives tiles what the tree charged. *)
let test_episodes_from_tree_observer () =
  let tree = mk_tree () in
  let disk = Blsm.Tree.disk tree in
  let e = Obs.Episodes.create ~gap_us:100.0 () in
  Blsm.Tree.on_stall tree (fun sb ->
      Obs.Episodes.feed e
        ~time_us:(Simdisk.Disk.now_us disk)
        ~merge1_us:sb.Blsm.Tree.sb_merge1_us
        ~merge2_us:sb.Blsm.Tree.sb_merge2_us
        ~hard_us:sb.Blsm.Tree.sb_hard_us);
  let prng = Repro_util.Prng.of_int 31 in
  for i = 0 to 1_999 do
    Blsm.Tree.put tree
      (Repro_util.Keygen.key_of_id i)
      (Repro_util.Keygen.value prng 512)
  done;
  check Alcotest.bool "observer fired" true (Obs.Episodes.fed_samples e > 0);
  let eps = Obs.Episodes.episodes e in
  check Alcotest.bool "episodes found" true (eps <> []);
  List.iter
    (fun ep ->
      let err =
        Float.abs
          (ep.Obs.Episodes.ep_merge1_us +. ep.Obs.Episodes.ep_merge2_us
           +. ep.Obs.Episodes.ep_hard_us -. ep.Obs.Episodes.ep_total_us)
      in
      if err > 0.5 then Alcotest.failf "tree episode tiling err %.6f" err)
    eps

(* -------------------------------------------------------------------- *)

(* --- the shared JSON string escaper, over every byte value --------- *)

let test_json_escape_all_bytes () =
  let expect c =
    match c with
    | '"' -> "\\\""
    | '\\' -> "\\\\"
    | '\n' -> "\\n"
    | '\r' -> "\\r"
    | '\t' -> "\\t"
    | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
        Printf.sprintf "\\u%04x" (Char.code c)
    | c -> String.make 1 c
  in
  let all = String.init 256 Char.chr in
  String.iter
    (fun c ->
      Alcotest.(check string)
        (Printf.sprintf "byte 0x%02x" (Char.code c))
        (expect c)
        (Obs.Json.escape (String.make 1 c)))
    all;
  let out = Obs.Json.escape all in
  Alcotest.(check string) "bytes escape independently"
    (String.concat "" (List.init 256 (fun i -> expect (Char.chr i))))
    out;
  Alcotest.(check bool) "output is printable ASCII (valid UTF-8)" true
    (String.for_all (fun c -> c >= ' ' && c <= '~') out);
  Alcotest.(check string) "spot checks"
    "\\u0000\\u001f \\u007f\\u0080\\u00ff"
    (Obs.Json.escape "\000\031 \127\128\255");
  let b = Buffer.create 8 in
  Buffer.add_char b '[';
  Obs.Json.add_escaped b "a\"b";
  Alcotest.(check string) "add_escaped appends" "[a\\\"b" (Buffer.contents b)

(* The reader inverts the escaper byte for byte, keeps number literals
   exact, and rejects what the writers never produce. *)
let test_json_parse () =
  let all = String.init 256 Char.chr in
  let doc =
    Printf.sprintf "{\"s\": \"%s\", \"n\": [4611686018427387903, -2, 1.5e3], \"b\": [true, false, null], \"e\": {}}"
      (Obs.Json.escape all)
  in
  (match Obs.Json.parse doc with
  | Obs.Json.Obj
      [ ("s", Obs.Json.Str s);
        ("n", Obs.Json.Arr [ Obs.Json.Num big; Obs.Json.Num neg; Obs.Json.Num f ]);
        ("b", Obs.Json.Arr [ Obs.Json.Bool true; Obs.Json.Bool false; Obs.Json.Null ]);
        ("e", Obs.Json.Obj []) ] ->
      Alcotest.(check string) "256 bytes round-trip" all s;
      Alcotest.(check int) "max_int exact" max_int (int_of_string big);
      Alcotest.(check int) "negative" (-2) (int_of_string neg);
      Alcotest.(check (float 0.0)) "float" 1500.0 (float_of_string f)
  | _ -> Alcotest.fail "wrong shape");
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Obs.Json.Parse_error _ -> ())
    [ "{} x"; "[1,]"; "\"\\q\""; "tru"; "{\"a\" 1}"; "\"open"; "-" ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "dump text" `Quick test_registry_dump_text;
          Alcotest.test_case "samples at dump time" `Quick
            test_registry_samples_at_dump_time;
          Alcotest.test_case "histogram expansion" `Quick
            test_registry_histogram_expansion;
          Alcotest.test_case "prefix filter" `Quick test_registry_prefix_filter;
          Alcotest.test_case "duplicate rejected" `Quick
            test_registry_duplicate_rejected;
          Alcotest.test_case "json shape" `Quick test_registry_json_shape;
        ] );
      ( "json",
        [
          Alcotest.test_case "escape all 256 bytes" `Quick test_json_escape_all_bytes;
          Alcotest.test_case "parse inverts escape" `Quick test_json_parse;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is no-op" `Quick
            test_trace_disabled_is_noop;
          Alcotest.test_case "chrome buffer" `Quick test_trace_chrome_buffer;
          Alcotest.test_case "jsonl lines" `Quick test_trace_jsonl_lines;
          Alcotest.test_case "file sink" `Quick test_trace_file_sink;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "spring sums tile stall_us" `Quick
            test_attribution_sums_spring;
          Alcotest.test_case "naive charges hard stalls" `Quick
            test_attribution_naive_hard_stalls;
          Alcotest.test_case "hard_stalls counter = metric" `Quick
            test_hard_stalls_counter_parity;
          Alcotest.test_case "recovery time attributed" `Quick
            test_recovery_time_attributed;
          Alcotest.test_case "deterministic traces" `Quick
            test_trace_deterministic;
          Alcotest.test_case "tree metrics registry" `Quick
            test_tree_metrics_registry;
        ] );
      ( "windows",
        [
          Alcotest.test_case "rows and gaps" `Quick test_windows_rows_and_gaps;
          Alcotest.test_case "empty" `Quick test_windows_empty;
          Alcotest.test_case "single sample" `Quick test_windows_single_sample;
          Alcotest.test_case "boundary op" `Quick test_windows_boundary_op;
          Alcotest.test_case "merge rollup" `Quick test_windows_merge_rollup;
          Alcotest.test_case "merge width mismatch" `Quick
            test_windows_merge_width_mismatch;
          Alcotest.test_case "throughput cv" `Quick test_windows_throughput_cv;
          Alcotest.test_case "renderers and registry" `Quick
            test_windows_renderers_and_registry;
        ] );
      ( "episodes",
        [
          Alcotest.test_case "known boundaries" `Quick
            test_episodes_known_boundaries;
          Alcotest.test_case "zero samples ignored" `Quick
            test_episodes_zero_samples_ignored;
          Alcotest.test_case "tiling invariant" `Quick
            test_episodes_tiling_invariant;
          Alcotest.test_case "label tiebreak" `Quick test_episodes_label_tiebreak;
          Alcotest.test_case "deterministic" `Quick test_episodes_deterministic;
          Alcotest.test_case "counter trace" `Quick test_episodes_counter_trace;
          Alcotest.test_case "from tree observer" `Quick
            test_episodes_from_tree_observer;
        ] );
    ]
