(* blsm_cli: interactive shell over a bLSM tree.

   A REPL for poking at the data structure: writes, reads, scans, deltas,
   crash/recovery, merge forcing, and live introspection of levels, I/O
   counters and scheduler state. The store is an in-memory simulation, so
   a session is ephemeral by design — `crash` + implicit recovery shows
   exactly what would survive on a real device.

   Run with:  dune exec bin/blsm_cli.exe -- [--disk hdd|ssd] [--c0-kb N]
              [--scheduler naive|gear|spring] *)

let usage = {|commands:
  put <key> <value>        blind write (insert or overwrite)
  get <key>                point lookup
  del <key>                delete (tombstone write)
  delta <key> <patch>      zero-seek delta write (append semantics)
  ifabsent <key> <value>   insert if not exists
  rmw <key> <suffix>       read-modify-write: append <suffix>
  scan <key> <n>           up to n records with key >= <key>
  fill <n> [<bytes>]       bulk-insert n synthetic records
  flush                    drain C0 and all merges to disk
  crash                    power-fail and recover (WAL replay)
  levels                   component sizes and timestamps
  stats [json]             tree metrics (registry dump, tree.*)
  io [json]                disk metrics (registry dump, disk.*)
  metrics [json]           full metrics registry (tree + store stack)
  trace on <file> [jsonl]  start tracing to <file> (Chrome JSON default)
  trace off                stop tracing and finalise the file
  help                     this text
  quit                     exit|}

(* ------------------------------------------------------------------ *)
(* `blsm_cli dst ...`: the deterministic-simulation harness face.
   Dispatched before the REPL; exit 0 = invariants held, 1 = failure. *)

let dst_usage =
  {|usage:
  blsm_cli dst replay <file.json>         replay a saved repro trace
  blsm_cli dst run <driver> <seed> [steps]
      generate + run one seeded plan; on failure, shrink and write
      dst/repro_<driver>_seed<seed>.json
  drivers: |}
  ^ String.concat ", " Dst.Driver.all_names

let dst_report (outcome : Dst.Interp.outcome) =
  print_string outcome.Dst.Interp.report;
  if outcome.Dst.Interp.ok then begin
    print_endline "DST_OK";
    0
  end
  else begin
    List.iter (Printf.printf "VIOLATION %s\n") outcome.Dst.Interp.violations;
    print_endline "DST_FAIL";
    1
  end

let dst_main = function
  | [ "replay"; file ] ->
      let plan = Dst.Repro.load file in
      Printf.printf "replaying %s: driver=%s seed=%d steps=%d note=%S\n" file
        plan.Dst.Plan.driver plan.Dst.Plan.seed
        (List.length plan.Dst.Plan.steps)
        plan.Dst.Plan.note;
      dst_report (Dst.replay plan)
  | "run" :: driver :: seed :: rest ->
      let seed = int_of_string seed in
      let params =
        match rest with
        | steps :: _ ->
            Some
              {
                Dst.Plan.default_params with
                Dst.Plan.n_steps = int_of_string steps;
              }
        | [] -> None
      in
      let plan, outcome = Dst.run_seed ?params ~driver_name:driver ~seed () in
      let code = dst_report outcome in
      if code <> 0 then begin
        let small, st = Dst.shrink_failing plan in
        (try Unix.mkdir "dst" 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let path = Printf.sprintf "dst/repro_%s_seed%d.json" driver seed in
        Dst.Repro.save path
          {
            small with
            Dst.Plan.note = Printf.sprintf "cli run driver=%s seed=%d" driver seed;
          };
        Printf.printf "shrunk %d -> %d steps (%d candidates); repro: %s\n"
          (List.length plan.Dst.Plan.steps)
          (List.length small.Dst.Plan.steps)
          st.Dst.Shrink.candidates path
      end;
      code
  | _ ->
      print_endline dst_usage;
      2

let parse_args () =
  let disk = ref Simdisk.Profile.ssd_raid0 in
  let c0_kb = ref 1024 in
  let scheduler = ref Blsm.Config.Spring in
  let rec go = function
    | [] -> ()
    | "--disk" :: "hdd" :: rest ->
        disk := Simdisk.Profile.hdd_raid0;
        go rest
    | "--disk" :: "ssd" :: rest ->
        disk := Simdisk.Profile.ssd_raid0;
        go rest
    | "--c0-kb" :: v :: rest ->
        c0_kb := int_of_string v;
        go rest
    | "--scheduler" :: s :: rest ->
        (scheduler :=
           match s with
           | "naive" -> Blsm.Config.Naive
           | "gear" -> Blsm.Config.Gear
           | "spring" -> Blsm.Config.Spring
           | _ -> failwith ("unknown scheduler " ^ s));
        go rest
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go (List.tl (Array.to_list Sys.argv));
  (!disk, !c0_kb * 1024, !scheduler)

let repl () =
  let profile, c0_bytes, scheduler = parse_args () in
  let store =
    Pagestore.Store.create
      ~config:
        {
          Pagestore.Store.cfg_page_size = 4096;
          cfg_buffer_pages = 2048;
          cfg_durability = Pagestore.Wal.Full;
        }
      profile
  in
  let config =
    {
      Blsm.Config.default with
      Blsm.Config.c0_bytes;
      scheduler;
      snowshovel = scheduler <> Blsm.Config.Gear;
    }
  in
  let tree = ref (Blsm.Tree.create ~config store) in
  let prng = Repro_util.Prng.of_int 99 in
  Printf.printf "bLSM shell — %s, C0 = %d KiB, %s scheduler. Type `help`.\n"
    profile.Simdisk.Profile.name (c0_bytes / 1024)
    (Blsm.Config.scheduler_name scheduler);
  let running = ref true in
  while !running do
    print_string "blsm> ";
    match In_channel.input_line In_channel.stdin with
    | None -> running := false
    | Some line -> (
        let words =
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> s <> "")
        in
        try
          match words with
          | [] -> ()
          | [ "quit" ] | [ "exit" ] -> running := false
          | [ "help" ] -> print_endline usage
          | [ "put"; k; v ] -> Blsm.Tree.put !tree k v
          | [ "get"; k ] ->
              print_endline
                (match Blsm.Tree.get !tree k with
                | Some v -> v
                | None -> "(not found)")
          | [ "del"; k ] -> Blsm.Tree.delete !tree k
          | [ "delta"; k; d ] -> Blsm.Tree.apply_delta !tree k d
          | [ "ifabsent"; k; v ] ->
              Printf.printf "%s\n"
                (if Blsm.Tree.insert_if_absent !tree k v then "inserted"
                 else "exists, kept")
          | [ "rmw"; k; suffix ] ->
              Blsm.Tree.read_modify_write !tree k (fun v ->
                  Option.value v ~default:"" ^ suffix)
          | [ "scan"; k; n ] ->
              List.iter
                (fun (key, v) -> Printf.printf "  %-24s %s\n" key v)
                (Blsm.Tree.scan !tree k (int_of_string n))
          | [ "fill"; n ] | [ "fill"; n; _ ] ->
              let bytes =
                match words with [ _; _; b ] -> int_of_string b | _ -> 100
              in
              let n = int_of_string n in
              for _ = 1 to n do
                Blsm.Tree.put !tree
                  (Repro_util.Keygen.key_of_id (Repro_util.Prng.int prng 1_000_000))
                  (Repro_util.Keygen.value prng bytes)
              done;
              Printf.printf "inserted %d records\n" n
          | [ "flush" ] ->
              Blsm.Tree.flush !tree;
              print_endline "flushed"
          | [ "crash" ] ->
              tree := Blsm.Tree.crash_and_recover !tree;
              print_endline "crashed and recovered (C0 rebuilt from WAL)"
          | [ "levels" ] ->
              List.iter
                (fun l ->
                  Printf.printf "  %-4s %10d records %12d bytes  ts=%d\n"
                    l.Blsm.Tree.level l.Blsm.Tree.records l.Blsm.Tree.bytes
                    l.Blsm.Tree.level_timestamp)
                (Blsm.Tree.levels !tree)
          (* one code path for human and JSON output: the registry dump *)
          | [ "stats" ] ->
              print_string (Obs.Metrics.dump ~prefix:"tree." (Blsm.Tree.metrics !tree))
          | [ "stats"; "json" ] ->
              print_string
                (Obs.Metrics.dump_json ~prefix:"tree." (Blsm.Tree.metrics !tree))
          | [ "io" ] ->
              print_string (Obs.Metrics.dump ~prefix:"disk." (Blsm.Tree.metrics !tree))
          | [ "io"; "json" ] ->
              print_string
                (Obs.Metrics.dump_json ~prefix:"disk." (Blsm.Tree.metrics !tree))
          | [ "metrics" ] -> print_string (Obs.Metrics.dump (Blsm.Tree.metrics !tree))
          | [ "metrics"; "json" ] ->
              print_string (Obs.Metrics.dump_json (Blsm.Tree.metrics !tree))
          | [ "trace"; "on"; file ] | [ "trace"; "on"; file; "chrome" ] ->
              Obs.Trace.enable_file (Pagestore.Store.trace store)
                ~format:Obs.Trace.Chrome file;
              Printf.printf "tracing to %s (Chrome trace_event JSON)\n" file
          | [ "trace"; "on"; file; "jsonl" ] ->
              Obs.Trace.enable_file (Pagestore.Store.trace store)
                ~format:Obs.Trace.Jsonl file;
              Printf.printf "tracing to %s (JSONL)\n" file
          | [ "trace"; "off" ] ->
              let tr = Pagestore.Store.trace store in
              let n = Obs.Trace.events_emitted tr in
              Obs.Trace.disable tr;
              Printf.printf "tracing stopped (%d events emitted)\n" n
          | cmd :: _ -> Printf.printf "unknown command %S (try `help`)\n" cmd
        with
        | Failure m -> Printf.printf "error: %s\n" m
        | Invalid_argument m -> Printf.printf "error: %s\n" m)
  done

(* ------------------------------------------------------------------ *)
(* `blsm_cli lint [--effects] [--root DIR]`: the project static
   analyzer.  --effects dumps the interprocedural call graph and
   inferred effect signatures as byte-stable JSON (same bytes on every
   run over the same tree). *)

let lint_main rest =
  let config = Lint.Config.default in
  let root = ref "." in
  let effects = ref false in
  let rec parse = function
    | [] -> ()
    | "--effects" :: r ->
        effects := true;
        parse r
    | "--root" :: d :: r ->
        root := d;
        parse r
    | _ ->
        prerr_endline "usage: blsm_cli lint [--effects] [--root DIR]";
        exit 2
  in
  parse rest;
  let dirs = config.Lint.Config.scan_dirs in
  if !effects then begin
    print_string (Lint.Runner.effects_json ~config ~root:!root dirs);
    0
  end
  else begin
    let findings = Lint.Runner.run ~config ~root:!root dirs in
    let baseline =
      let p = Filename.concat !root "lint.baseline" in
      if Sys.file_exists p then Lint.Baseline.load p else []
    in
    let live = Lint.Baseline.filter ~baseline findings in
    List.iter (fun f -> print_endline (Lint.Finding.to_string f)) live;
    if live = [] then begin
      Printf.printf "lint: clean (%d baselined)\n"
        (List.length findings - List.length live);
      0
    end
    else 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "dst" :: rest -> exit (dst_main rest)
  | "lint" :: rest -> exit (lint_main rest)
  | _ -> repl ()
