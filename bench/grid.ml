(** Compaction design-space grid (`bench grid`): policy x workload mix
    x size ratio, charting where bLSM's two-level snowshovel wins and
    loses against the four {!Blsm.Compaction_policy} disciplines.

    Methodology (DESIGN.md §14): every cell preloads the same pinned
    store the stability soak uses (4 000 records x 400 B values, 128 KiB
    C0, SSD profile) and then drives one closed-loop workload mix on the
    simulated clock, recording per-window latency histograms with
    {!Obs.Windows} — the cell reports both the whole-cell p99.9 and the
    worst single-window p99.9, so a policy that is fast on average but
    stalls in bursts cannot hide. Write amplification is physical bytes
    written (disk counter deltas) over logical bytes accepted;
    space amplification is resident run bytes over live logical bytes.
    Every cell's final contents are checked against an in-memory mirror
    (oracle equality), so a policy that loses or resurrects data fails
    the bench rather than winning it.

    The snowshovel row is the seed engine on exactly the soak's tree
    configuration (spring scheduler, snowshovel merges), so its numbers
    are directly comparable with BENCH_PR8.json; its topology is fixed
    (two on-disk levels), so it spans the size-ratio axis as one
    "fixed" column.

    Writes [BENCH_PR9.json]. Exits 1 when a gate trips: an oracle
    mismatch in any cell, a per-policy overwrite p99.9 past its recorded
    ceiling, or two same-seed passes that are not byte-identical — the
    [@grid-smoke] alias runs the 2x2 `--quick` grid under `runtest`. *)

module H = Repro_util.Histogram

(* Pinned workload, shared with `bench soak` (see soak.ml). *)
let preload_records = 4_000
let value_bytes = 400
let c0_bytes = 128 * 1024
let cell_ops = 1_500

(* Narrow enough that a quick cell still spans 10+ windows of simulated
   time — the worst-window column must be able to see a single burst. *)
let window_us = 500

(* Quick (2x2) grid for the @grid-smoke gate. *)
let quick_records = 1_000
let quick_ops = 500

(* Per-policy whole-cell p99.9 ceilings on the overwrite mix, recorded
   2026-08-07 at seed 42 on the pinned quick grid (simulated clock —
   exact, headroom covers seed drift only). They gate the `--quick`
   grid, whose shape is pinned; a full run's scale is caller-chosen, so
   its absolute latencies are reported but not gated. *)
let p999_ceiling_us = function
  | "snowshovel" -> 3_000.0
  | "tiered" -> 3_000.0
  | "leveled" -> 6_000.0
  | "lazy-leveled" -> 4_000.0
  | "partial" -> 6_000.0
  | _ -> 10_000.0

let policies = List.map fst Blsm.Compaction_policy.named
let workloads = [ "fill"; "overwrite"; "mixed" ]

module M = Map.Make (String)

let mk_store () =
  Pagestore.Store.create
    ~config:
      {
        Pagestore.Store.cfg_page_size = 4096;
        cfg_buffer_pages = 1024;
        cfg_durability = Pagestore.Wal.Full;
      }
    Simdisk.Profile.ssd_raid0

let mk_snowshovel ~seed =
  let config =
    {
      Blsm.Config.default with
      Blsm.Config.c0_bytes;
      scheduler = Blsm.Config.Spring;
      seed;
    }
  in
  let t = Blsm.Tree.create ~config (mk_store ()) in
  (Blsm.Tree.engine t, fun () -> Blsm.Tree.disk_data_bytes t)

let mk_policy ~policy_name ~ratio ~seed =
  let policy = List.assoc policy_name Blsm.Compaction_policy.named in
  let config =
    { Blsm.Config.default with Blsm.Config.c0_bytes; seed }
  in
  let pconfig =
    { Blsm.Policy_tree.default_pconfig with Blsm.Policy_tree.pt_fanout = ratio }
  in
  let t =
    Blsm.Policy_tree.create ~config ~pconfig ~policy (mk_store ())
  in
  ( Blsm.Policy_tree.engine ~name:("policy-" ^ policy_name) t,
    fun () -> Blsm.Policy_tree.total_run_bytes t )

(* ------------------------------------------------------------------ *)
(* One cell *)

type cell = {
  c_engine : string;  (** "snowshovel" or a policy name *)
  c_workload : string;
  c_ratio : string;  (** "r<fanout>" or "fixed" (snowshovel topology) *)
  c_ops : int;
  c_lat : H.t;
  c_worst_window_p999 : int;
  c_windows : int;
  c_write_amp : float;
  c_space_amp : float;
  c_oracle_ok : bool;
}

let key i = Printf.sprintf "key%05d" i

let value i =
  let tag = Printf.sprintf "g%d." i in
  tag ^ String.make (max 0 (value_bytes - String.length tag)) 'x'

let run_cell ~seed ~engine_label ~ratio_label ~wname ~records ~ops
    (eng : Kv.Kv_intf.engine) resident_bytes =
  let disk = eng.Kv.Kv_intf.disk in
  let oracle : string M.t ref = ref M.empty in
  let prng =
    let mix =
      String.fold_left
        (fun h c -> (h * 31) + Char.code c)
        seed
        (engine_label ^ "/" ^ wname ^ "/" ^ ratio_label)
    in
    Repro_util.Prng.of_int mix
  in
  let user = ref 0 in
  let opaque_put k v =
    eng.Kv.Kv_intf.put k v;
    oracle := M.add k v !oracle;
    user := !user + String.length k + String.length v
  in
  let opaque_del k =
    eng.Kv.Kv_intf.delete k;
    oracle := M.remove k !oracle;
    user := !user + String.length k
  in
  let before = Simdisk.Disk.snapshot disk in
  for i = 0 to records - 1 do
    opaque_put (key i) (value i)
  done;
  let fresh = ref records in
  let windows = Obs.Windows.create ~width_us:window_us in
  let lat = H.create () in
  for i = 1 to ops do
    let t0 = Simdisk.Disk.now_us disk in
    (match wname with
    | "fill" ->
        opaque_put (key !fresh) (value i);
        incr fresh
    | "overwrite" ->
        if Repro_util.Prng.int prng 10 = 0 then
          ignore (eng.Kv.Kv_intf.get (key (Repro_util.Prng.int prng records)))
        else opaque_put (key (Repro_util.Prng.int prng records)) (value i)
    | "mixed" -> (
        match Repro_util.Prng.int prng 20 with
        | 0 | 1 | 2 ->
            opaque_del (key (Repro_util.Prng.int prng records))
        | 3 | 4 | 5 ->
            opaque_put (key !fresh) (value i);
            incr fresh
        | 6 | 7 ->
            ignore
              (eng.Kv.Kv_intf.scan
                 (key (Repro_util.Prng.int prng records))
                 10)
        | 8 | 9 | 10 | 11 ->
            ignore (eng.Kv.Kv_intf.get (key (Repro_util.Prng.int prng records)))
        | _ -> opaque_put (key (Repro_util.Prng.int prng records)) (value i))
    | w -> invalid_arg ("unknown workload " ^ w));
    let now = Simdisk.Disk.now_us disk in
    let l = int_of_float (now -. t0) in
    H.add lat l;
    Obs.Windows.record windows ~time_us:now ~latency_us:l
  done;
  eng.Kv.Kv_intf.maintenance ();
  let after = Simdisk.Disk.snapshot disk in
  let d = Simdisk.Disk.diff before after in
  let live_bytes =
    M.fold (fun k v a -> a + String.length k + String.length v) !oracle 0
  in
  let got = eng.Kv.Kv_intf.scan "" max_int in
  let oracle_ok = got = M.bindings !oracle in
  let rows = Obs.Windows.rows windows in
  let worst =
    List.fold_left (fun a r -> max a r.Obs.Windows.r_p999_us) 0 rows
  in
  {
    c_engine = engine_label;
    c_workload = wname;
    c_ratio = ratio_label;
    c_ops = ops;
    c_lat = lat;
    c_worst_window_p999 = worst;
    c_windows = List.length rows;
    c_write_amp =
      float_of_int
        (d.Simdisk.Disk.seq_write_bytes + d.Simdisk.Disk.random_write_bytes)
      /. float_of_int (max 1 !user);
    c_space_amp = float_of_int (resident_bytes ()) /. float_of_int (max 1 live_bytes);
    c_oracle_ok = oracle_ok;
  }

(* ------------------------------------------------------------------ *)
(* Grid + report *)

let run_grid ~quick ~seed =
  let records = if quick then quick_records else preload_records in
  let ops = if quick then quick_ops else cell_ops in
  let mixes = if quick then [ "fill"; "overwrite" ] else workloads in
  let pols = if quick then [ "tiered"; "leveled" ] else policies in
  let ratios = if quick then [ 4.0 ] else [ 2.0; 4.0 ] in
  let cells = ref [] in
  List.iter
    (fun wname ->
      let eng, resident = mk_snowshovel ~seed in
      cells :=
        run_cell ~seed ~engine_label:"snowshovel" ~ratio_label:"fixed"
          ~wname ~records ~ops eng resident
        :: !cells)
    mixes;
  List.iter
    (fun p ->
      List.iter
        (fun ratio ->
          List.iter
            (fun wname ->
              let eng, resident = mk_policy ~policy_name:p ~ratio ~seed in
              cells :=
                run_cell ~seed ~engine_label:p
                  ~ratio_label:(Printf.sprintf "r%g" ratio)
                  ~wname ~records ~ops eng resident
                :: !cells)
            mixes)
        ratios)
    pols;
  List.rev !cells

let report ~seed ~quick cells ~gates =
  let buf = Buffer.create 8_192 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "{\n";
  out "  \"pr\": 9,\n";
  out "  \"harness\": \"bench grid\",\n";
  out "  \"seed\": %d,\n" seed;
  out "  \"quick\": %b,\n" quick;
  out
    "  \"config\": {\"records\": %d, \"value_bytes\": %d, \"c0_bytes\": %d, \
     \"cell_ops\": %d, \"window_us\": %d, \"snowshovel_row\": \"bench soak \
     tree config (spring + snowshovel, ssd_raid0)\"},\n"
    (if quick then quick_records else preload_records)
    value_bytes c0_bytes
    (if quick then quick_ops else cell_ops)
    window_us;
  out "  \"cells\": [\n";
  let n = List.length cells in
  List.iteri
    (fun i c ->
      out
        "    {\"engine\": \"%s\", \"workload\": \"%s\", \"size_ratio\": \
         \"%s\", \"ops\": %d, \"p50_us\": %d, \"p99_us\": %d, \"p999_us\": \
         %d, \"worst_window_p999_us\": %d, \"windows\": %d, \"write_amp\": \
         %.3f, \"space_amp\": %.3f, \"oracle_ok\": %b}%s\n"
        c.c_engine c.c_workload c.c_ratio c.c_ops
        (H.percentile c.c_lat 50.0)
        (H.percentile c.c_lat 99.0)
        (H.percentile c.c_lat 99.9)
        c.c_worst_window_p999 c.c_windows c.c_write_amp c.c_space_amp
        c.c_oracle_ok
        (if i = n - 1 then "" else ","))
    cells;
  out "  ],\n";
  out "  \"gates\": [\n";
  let ng = List.length gates in
  List.iteri
    (fun i g ->
      out "    %s%s\n" (Gate.to_json ~digits:3 g) (if i = ng - 1 then "" else ","))
    gates;
  out "  ]\n";
  out "}\n";
  Buffer.contents buf

let run ?(out = "BENCH_PR9.json") (s : Scale.t) =
  Scale.section
    "Compaction design-space grid: policy x workload x size ratio (writes \
     BENCH_PR9.json)";
  let seed = s.Scale.seed in
  (* `--quick` quarters Scale.records; treat that as the mini-grid ask. *)
  let quick = s.Scale.records < 40_000 / 2 in
  let cells = run_grid ~quick ~seed in
  let mismatches =
    List.length (List.filter (fun c -> not c.c_oracle_ok) cells)
  in
  let gates =
    Gate.at_most "grid.oracle_mismatched_cells" (float_of_int mismatches) 0.0
    ::
    (if not quick then []
     else
       List.filter_map
         (fun c ->
           if c.c_workload = "overwrite" then
             Some
               (Gate.at_most
                  (Printf.sprintf "grid.%s.%s.overwrite.p999_us" c.c_engine
                     c.c_ratio)
                  (float_of_int (H.percentile c.c_lat 99.9))
                  (p999_ceiling_us c.c_engine))
           else None)
         cells)
  in
  let doc = report ~seed ~quick cells ~gates in
  (* Determinism: a second same-seed pass must render the same bytes. *)
  let doc2 = report ~seed ~quick (run_grid ~quick ~seed) ~gates in
  let identical = String.equal doc doc2 in
  let gates =
    gates
    @ [
        Gate.at_least "grid.same_seed_byte_identical"
          (if identical then 1.0 else 0.0)
          1.0;
      ]
  in
  let doc = report ~seed ~quick cells ~gates in
  let oc = open_out out in
  output_string oc doc;
  close_out oc;
  Printf.printf "wrote %s\n\n" out;
  Printf.printf "%-14s %-10s %-6s %9s %9s %9s %7s %7s\n" "engine" "workload"
    "ratio" "p99_us" "p999_us" "wrst_win" "w-amp" "s-amp";
  List.iter
    (fun c ->
      Printf.printf "%-14s %-10s %-6s %9d %9d %9d %7.2f %7.2f%s\n" c.c_engine
        c.c_workload c.c_ratio
        (H.percentile c.c_lat 99.0)
        (H.percentile c.c_lat 99.9)
        c.c_worst_window_p999 c.c_write_amp c.c_space_amp
        (if c.c_oracle_ok then "" else "  ORACLE MISMATCH"))
    cells;
  Gate.exit_on_failure ~digits:3 gates
