(* Single-client YCSB benchmark for the bLSM tree.

   One process, one client, one tree built with the paper's defaults
   (spring-and-gear pacing, snowshovel, Bloom filters). A repetition sets
   up a fresh tree and runs one measured phase; a run repeats them,
   cycling through [cycle] seeds derived from --seed, in whole cycles
   until --seconds have passed. Wall-clock figures are scaled to
   reference machine speed by probes run between engine calls ([Speed],
   [Timed]); rates and set-up times are medians over repetitions, wall
   percentiles pool every repetition's calls. Simulated-clock and count
   figures pool one cycle, and a repetition of a seed must reproduce them
   exactly.

   The measured phase is open-loop on the simulated clock at the
   workload's fixed offered rate ([Ycsb.Open_loop]). Only the engine's
   own get/put/scan calls are timed ([Timed]); each answer is checked
   against a shadow model ([Oracle]).

   --trace 0 prints the end-to-end metrics. --trace 1 runs an untraced
   cycle, then a traced one, replays the last traced phase through each
   layer ([Replay]), prints the per-layer metrics and writes the spans to
   .perfbench/<workload>.spans.jsonl. *)

type spec = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  records : int;
  value_bytes : int;
  ops : int;
  rate : float;  (* offered ops per simulated second *)
  mix : Ycsb.Runner.mix;
  dist : string;
}

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

let op_of_name name =
  match name with
  | "read" -> Ycsb.Runner.Read
  | "update" -> Ycsb.Runner.Blind_update
  | "insert" -> Ycsb.Runner.Insert
  | _ when String.length name > 4 && String.equal (String.sub name 0 4) "scan" ->
      Ycsb.Runner.Scan (int_of_string (String.sub name 4 (String.length name - 4)))
  | _ -> fail "unknown op %S in --mix" name

(* "read=0.5,update=0.5" *)
let parse_mix s =
  String.split_on_char ',' s
  |> List.map (fun item ->
         match String.split_on_char '=' item with
         | [ name; w ] -> (op_of_name name, float_of_string w)
         | _ -> fail "bad --mix item %S" item)

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let records = ref 0 and value_bytes = ref 1000 and ops = ref 0 and rate = ref 0.0 in
  let mix = ref "" and dist = ref "zipfian" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "name (a label)");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measuring time");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--records", Arg.Set_int records, "records loaded during set-up");
      ("--value-bytes", Arg.Set_int value_bytes, "value size");
      ("--ops", Arg.Set_int ops, "operations offered per measured phase");
      ("--rate", Arg.Set_float rate, "offered ops per simulated second");
      ("--mix", Arg.Set_string mix, "op mix, e.g. read=0.5,update=0.5");
      ("--dist", Arg.Set_string dist, "zipfian | uniform");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --records N --ops N --rate R --mix MIX";
  if !records <= 0 || !ops <= 0 || !rate <= 0.0 || String.equal !mix "" then
    fail "--records, --ops, --rate and --mix are required";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    records = !records;
    value_bytes = !value_bytes;
    ops = !ops;
    rate = !rate;
    mix = parse_mix !mix;
    dist = !dist;
  }

(* Paper ratios (bench/scale.ml): data : C0 = 6.25 : 1, buffer pool = 4 %
   of the data, 4 KiB pages, SSD RAID-0 profile. *)
let make_tree spec ~seed =
  let data = float_of_int (spec.records * (spec.value_bytes + 24)) in
  let store =
    Pagestore.Store.create
      ~config:
        {
          Pagestore.Store.cfg_page_size = 4096;
          cfg_buffer_pages = max 64 (int_of_float (0.04 *. data) / 4096);
          cfg_durability = Pagestore.Wal.Full;
        }
      Simdisk.Profile.ssd_raid0
  in
  let config =
    {
      Blsm.Config.default with
      Blsm.Config.c0_bytes = int_of_float (0.16 *. data);
      seed;
      extent_pages = 1024;
    }
  in
  Blsm.Tree.create ~config store

(* The tree's metrics registry, sampled into a table. *)
let sample tree =
  let tbl = Hashtbl.create 64 in
  String.split_on_char '\n' (Obs.Metrics.dump (Blsm.Tree.metrics tree))
  |> List.iter (fun line ->
         match String.index_opt line ' ' with
         | Some i ->
             Hashtbl.replace tbl (String.sub line 0 i)
               (float_of_string (String.sub line (i + 1) (String.length line - i - 1)))
         | None -> ());
  tbl

let delta before after name =
  match (Hashtbl.find_opt before name, Hashtbl.find_opt after name) with
  | Some a, Some b -> b -. a
  | _ -> fail "metric %s missing from the tree's registry" name

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* (name, unit, value) *)
type metric = string * string * float

(* Wall-clock figures are scaled to reference machine speed ([Speed]),
   except [raw_ops_per_s]. *)
type rep = {
  seed : int;
  slowdown : float;  (* of the measured phase *)
  on_cpu : float;  (* share of the phase's engine time the host let the process run *)
  setup_s : float;
  cpu_ops_per_s : float;
  raw_ops_per_s : float;  (* as [cpu_ops_per_s], unscaled *)
  wall_p50_us : float;  (* this repetition's; the run reports pooled ones *)
  wall_p99_us : float;
  attempted : int;
  failed : int;
  wrong : int;
  latency : float array option;
      (* exact open-loop latency of each op; [None] when arrivals were shed *)
  latency_hist : Repro_util.Histogram.t;  (* [Ycsb.Open_loop]'s, whole µs *)
  counts : metric list;
      (* simulated-clock and count metrics: identical in every repetition
         of one seed *)
  kv : metric list;  (* traced repetitions: wall-clock engine-call metrics *)
}

let required what = function
  | Some v -> v
  | None -> fail "%s: fewer than %d samples beyond it" what Measure.min_beyond

(* Open-loop latency of each op from its intended arrival, exact on the
   simulated clock ([Ycsb.Open_loop]'s histogram keeps whole-µs buckets
   up to 3 % wide). With nothing shed, the i-th engine call serves the
   i-th arrival of the schedule the run drew from [arrival_seed]; the
   largest latency must then agree with the run's own. *)
let exact_latencies ~t_start ~arrival_seed (timer : Timed.t) (r : Ycsb.Open_loop.result) =
  if r.ol_shed > 0 || timer.calls <> r.ol_completed then None
  else begin
    let arrivals =
      Ycsb.Open_loop.arrivals r.ol_schedule ~seed:arrival_seed ~jitter:0.0 ~n:r.ol_offered
    in
    let lat = Array.init timer.calls (fun i -> timer.sim_end.(i) -. (t_start +. arrivals.(i))) in
    if int_of_float (Array.fold_left Float.max 0.0 lat)
       <> Repro_util.Histogram.max_value r.ol_latency
    then fail "exact open-loop latencies disagree with Ycsb.Open_loop's";
    Some lat
  end

(* One repetition: set up a fresh tree, then run the measured phase. Its
   scaled per-call wall latencies are added to [wall]. [after_phase] is
   handed the timer and the tree of a traced one. *)
let run_rep spec ~seed ~tracing ~after_phase ~wall:pooled_wall =
  let oracle = Oracle.create () in
  let c0 = Sys.time () in
  let tree = make_tree spec ~seed in
  let create_cpu_s = Sys.time () -. c0 in
  let timer = Timed.create oracle (Blsm.Tree.disk tree) in
  let engine = Timed.wrap timer (Blsm.Tree.engine tree) in
  let ks = Ycsb.Runner.keyspace ~records:0 ~value_bytes:spec.value_bytes in
  ignore (Ycsb.Runner.load engine ks ~n:spec.records ~seed ());
  let m0 = Sys.time () in
  engine.maintenance ();
  (* CPU seconds at reference speed: engine calls less stolen time
     ([Timed]), tree creation and maintenance on the process CPU clock *)
  let setup_s =
    (Timed.scaled_cpu_ns timer /. 1e9)
    +. ((create_cpu_s +. (Sys.time () -. m0)) /. Timed.slowdown timer)
  in
  if timer.exceptions > 0 then
    fail "set-up raised: %s" (Option.value timer.first_exn ~default:"?");
  Gc.compact ();
  let store = Blsm.Tree.store tree in
  let disk = Blsm.Tree.disk tree in
  let before = sample tree and io0 = Simdisk.Disk.snapshot disk in
  let gc0 = (Gc.quick_stat ()).major_collections in
  let dist =
    match spec.dist with
    | "zipfian" -> Ycsb.Generator.zipfian ~seed:(seed + 1) ~n:spec.records ()
    | "uniform" -> Ycsb.Generator.uniform ~seed:(seed + 1)
    | d -> fail "unknown --dist %S" d
  in
  Timed.start_phase timer ~capacity:spec.ops ~tracing;
  let t_start = Simdisk.Disk.now_us disk in
  let r =
    Ycsb.Open_loop.run engine ks ~label:spec.workload ~mix:spec.mix ~ops:spec.ops ~dist
      ~schedule:(Ycsb.Open_loop.Fixed_rate { ops_per_sec = spec.rate })
      ~seed:(seed + 2) ()
  in
  let latency = exact_latencies ~t_start ~arrival_seed:(seed + 3) timer r in
  let major_gcs = (Gc.quick_stat ()).major_collections - gc0 in
  timer.tracing <- false;
  let after = sample tree and io = Simdisk.Disk.diff io0 (Simdisk.Disk.snapshot disk) in
  let d = delta before after in
  let lat = Timed.phase_latencies timer in
  let slowdown = Timed.slowdown timer in
  Array.iter (Measure.Loghist.add pooled_wall) lat;
  let wall what p = required what (Measure.percentile lat p) /. 1000.0 in
  let service_us = ref 0.0 in
  for i = 0 to timer.calls - 1 do
    service_us := !service_us +. (timer.sim_end.(i) -. timer.sim_start.(i))
  done;
  let failed = r.ol_shed + timer.exceptions + oracle.wrong in
  let completed = float_of_int r.ol_completed in
  let writes = d "tree.puts" and gets = d "tree.gets" in
  let counts =
    [
      ("sim_service_mean_us", "us", !service_us /. float_of_int timer.calls);
      ( "write_amp", "ratio",
        Measure.write_amp io ~user_bytes:(int_of_float (d "tree.user_bytes_written")) );
      ( "space_amp", "ratio",
        Measure.space_amp ~stored_bytes:(Pagestore.Store.stored_bytes store)
          ~live_bytes:oracle.live_bytes );
      ("failed_frac", "ratio", float_of_int failed /. float_of_int r.ol_offered);
      ("ycsb.max_queue", "count", float_of_int r.ol_max_queue);
      ("ycsb.shed", "count", float_of_int r.ol_shed);
      ("tree.stall.merge1_us_per_write", "us", ratio (d "tree.stall.merge1_us") writes);
      ("tree.stall.merge2_us_per_write", "us", ratio (d "tree.stall.merge2_us") writes);
      ("tree.stall.hard_us_per_write", "us", ratio (d "tree.stall.hard_us") writes);
      ("tree.hard_stalls", "count", d "tree.hard_stalls");
      ("tree.merge1_completions", "count", d "tree.merge1_completions");
      ("tree.merge2_completions", "count", d "tree.merge2_completions");
      ("tree.wal_us_per_write", "us", ratio (d "tree.wal_us") writes);
      ("bloom.negative_per_get", "ratio", ratio (d "bloom.negative") gets);
      ("bloom.fp_per_get", "ratio", ratio (d "bloom.false_positive") gets);
      ("buf.hit_rate", "ratio", ratio (d "buf.hits") (d "buf.hits" +. d "buf.misses"));
      ("buf.misses_per_op", "count", d "buf.misses" /. completed);
      ("buf.evictions_per_op", "count", d "buf.evictions" /. completed);
      ("wal.bytes_per_write", "bytes", ratio (d "wal.appended_bytes") writes);
      ("disk.seeks_per_op", "count", float_of_int io.seeks /. completed);
      ( "disk.read_bytes_per_op", "bytes",
        float_of_int (io.seq_read_bytes + io.random_read_bytes) /. completed );
      ( "disk.write_bytes_per_op", "bytes",
        float_of_int (io.seq_write_bytes + io.random_write_bytes) /. completed );
    ]
  in
  let kv =
    if not tracing then []
    else
      let spans = timer.spans in
      let mean name = Replay.mean_ns spans ~layer:"kv" ~name in
      let words = List.fold_left (fun a (s : Timed.span) -> a +. s.words) 0.0 spans in
      [
        ("kv.get.wall_ns", "ns", mean "get");
        ("kv.put.wall_ns", "ns", mean "put");
        ("kv.scan.wall_ns", "ns", mean "scan");
        ( "kv.alloc_bytes_per_op", "bytes",
          words *. float_of_int (Sys.word_size / 8) /. float_of_int timer.calls );
        ("gc.major_collections", "count", float_of_int major_gcs);
      ]
  in
  if tracing then after_phase timer tree;
  {
    seed;
    slowdown;
    on_cpu = Timed.on_cpu timer;
    setup_s;
    cpu_ops_per_s = float_of_int timer.calls /. (Timed.scaled_cpu_ns timer /. 1e9);
    raw_ops_per_s = float_of_int timer.calls /. (float_of_int timer.busy_ns /. 1e9);
    wall_p50_us = wall "wall_p50_us" 50.0;
    wall_p99_us = wall "wall_p99_us" 99.0;
    attempted = r.ol_offered;
    failed;
    wrong = oracle.wrong;
    latency;
    latency_hist = r.ol_latency;
    counts;
    kv;
  }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else fail "non-finite metric value"

(* Spans are kept in memory during the run and written here, at exit. *)
let write_spans spec spans =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (spec.workload ^ ".spans.jsonl") in
  let oc = open_out path in
  List.iter
    (fun (s : Timed.span) ->
      Printf.fprintf oc
        "{\"id\":%d,\"layer\":%S,\"name\":%S,\"wall_start_ns\":%d,\"wall_end_ns\":%d,\"sim_start_us\":%s,\"sim_end_us\":%s,\"words\":%s}\n"
        s.id s.layer s.name s.wall_start s.wall_end (json_number s.sim_start)
        (json_number s.sim_end) (json_number s.words))
    (List.rev spans);
  close_out oc;
  Printf.printf "spans: %s (%d)\n" path (List.length spans)

let print_result ~correct ~attempted ~failed (metrics : metric list) =
  let body =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

let value name (metrics : metric list) =
  let _, _, v = List.find (fun (n, _, _) -> String.equal n name) metrics in
  v

(* A run cycles through [cycle] seeds derived from --seed, so that its
   simulated-clock figures pool that many independent request streams;
   a repetition of a seed already run must reproduce its counts
   exactly. *)
let cycle = 8

let rep_seed (spec : spec) i = (spec.seed * 1000) + (10 * (i mod cycle))

(* The first [cycle] repetitions pooled: open-loop percentiles over all
   their samples (from the generator's histogram if any arrival was
   shed), the other counts averaged. *)
let pooled reps =
  let reps = List.filteri (fun i _ -> i < cycle) reps in
  let sim =
    match List.map (fun r -> r.latency) reps with
    | exact when List.for_all Option.is_some exact ->
        let all = Array.concat (List.map Option.get exact) in
        Array.sort Float.compare all;
        fun name p -> required name (Measure.percentile all p)
    | _ ->
        let h = Repro_util.Histogram.create () in
        List.iter (fun r -> Repro_util.Histogram.merge ~into:h r.latency_hist) reps;
        fun name p -> float_of_int (required name (Measure.hist_percentile h p))
  in
  let mean name =
    List.fold_left (fun a r -> a +. value name r.counts) 0.0 reps /. float_of_int cycle
  in
  [
    ("sim_p50_us", "us", sim "sim_p50_us" 50.0);
    ("sim_p99_us", "us", sim "sim_p99_us" 99.0);
    ("sim_p999_us", "us", sim "sim_p999_us" 99.9);
  ]
  @ List.map (fun (name, unit_, _) -> (name, unit_, mean name)) (List.hd reps).counts

(* End-to-end metrics that come from the count list; the rest of that
   list is reported per layer. *)
let end_to_end_counts =
  [ "sim_p99_us"; "sim_p999_us"; "sim_service_mean_us"; "write_amp"; "space_amp" ]

(* The process's top major heap, the largest over repetitions: a
   repetition's tree with its simulated disk, and the oracle, a copy of
   every live value (about 20 MB at 20k x 1000 B), plus what the run keeps
   for its figures: the first cycle's exact latencies. *)
let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let main () =
  let spec = parse_args () in
  let start = Timed.now_ns () in
  let elapsed () = float_of_int (Timed.now_ns () - start) /. 1e9 in
  (* the latest traced repetition, replayed once every phase has run *)
  let last_traced = ref None in
  let after_phase timer tree = last_traced := Some (timer, tree) in
  (* Whole blocks of repetitions only, so every seed of the cycle counts
     equally; --trace 1 runs an untraced cycle, then a traced one. *)
  let block = if spec.trace then 2 * cycle else cycle in
  let seen = Hashtbl.create cycle in
  let reps = ref [] and count = ref 0 in
  (* every repetition's calls: steadier percentiles than a median of
     per-repetition ones *)
  let wall = Measure.Loghist.create () in
  while !count = 0 || !count mod block <> 0 || elapsed () < spec.seconds do
    let i = !count in
    let tracing = spec.trace && i / cycle mod 2 = 1 in
    let rep = run_rep spec ~seed:(rep_seed spec i) ~tracing ~after_phase ~wall in
    (match Hashtbl.find_opt seen rep.seed with
    | Some (counts, latency) when counts <> rep.counts || latency <> rep.latency ->
        fail "seed %d: repetition %d disagrees with an earlier one on simulated-clock or count metrics"
          rep.seed i
    | Some _ -> ()
    | None -> Hashtbl.add seen rep.seed (rep.counts, rep.latency));
    Printf.printf
      "rep %d seed %d%s: slowdown %.3f, raw %.0f ops/s; scaled: setup %.3fs, %.0f ops/s, wall p50 %.2fus p99 %.2fus; top heap %.1f MB\n%!"
      i rep.seed
      (if tracing then " (traced)" else "")
      rep.slowdown rep.raw_ops_per_s rep.setup_s rep.cpu_ops_per_s rep.wall_p50_us
      rep.wall_p99_us (top_heap_mb ());
    (* Only the first cycle's exact latencies are read ([pooled]); later
       repetitions drop theirs, so what the run keeps, and with it the top
       heap, does not grow with the number of repetitions. *)
    reps := (if i < cycle then rep else { rep with latency = None }) :: !reps;
    incr count
  done;
  let reps = List.rev !reps in
  let counts = pooled reps in
  let med f l = Measure.median (Array.of_list (List.map f l)) in
  let metrics =
    if not spec.trace then
      [
        ("setup_s", "s", med (fun r -> r.setup_s) reps);
        ("cpu_ops_per_s", "ops/s", med (fun r -> r.cpu_ops_per_s) reps);
        ("wall_p50_us", "us", required "wall_p50_us" (Measure.Loghist.percentile wall 50.0) /. 1000.0);
        ("wall_p99_us", "us", required "wall_p99_us" (Measure.Loghist.percentile wall 99.0) /. 1000.0);
      ]
      @ List.filter (fun (n, _, _) -> List.mem n end_to_end_counts) counts
      @ [ ("heap_peak_mb", "MB", top_heap_mb ()) ]
    else begin
      let untraced, traced = List.partition (fun r -> r.kv = []) reps in
      let timer, tree = Option.get !last_traced in
      let replay_metrics =
        Replay.run timer tree ~puts:(List.rev timer.put_log) ~gets:(List.rev timer.get_log)
          ~scans:(List.rev timer.scan_log)
      in
      write_spans spec timer.spans;
      List.filter (fun (n, _, _) -> not (List.mem n end_to_end_counts)) counts
      @ List.map (fun (n, u, _) -> (n, u, med (fun r -> value n r.kv) traced)) (List.hd traced).kv
      @ replay_metrics
      @ [
          ("speed.slowdown", "ratio", med (fun r -> r.slowdown) reps);
          ("speed.raw_cpu_ops_per_s", "ops/s", med (fun r -> r.raw_ops_per_s) untraced);
          ("speed.on_cpu_frac", "ratio", med (fun r -> r.on_cpu) reps);
          ( "trace.overhead_frac", "ratio",
            med (fun r -> r.cpu_ops_per_s) untraced /. med (fun r -> r.cpu_ops_per_s) traced
            -. 1.0 );
        ]
    end
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 reps in
  let correct = sum (fun r -> r.wrong) = 0 in
  print_result ~correct ~attempted:(sum (fun r -> r.attempted)) ~failed:(sum (fun r -> r.failed))
    metrics;
  if not correct then exit 1

let () =
  try main () with Bench_error msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
