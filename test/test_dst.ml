(* DST harness tests:
   - every committed repro under repros/ replays clean (each one is a
     minimized trace that exposed a real bug before its fix);
   - the shrinker demonstrably minimizes: a deliberately-broken driver
     stub reduces from a 160-step plan to a handful of ops;
   - pinned-seed crash-point plans for the partitioned tree pass the
     full invariant battery;
   - repro files round-trip through JSON;
   - same-seed runs are byte-identical (the determinism contract), and
     seeds 1-20 of every driver match a digest table pinned in this file,
     so a change that moves DST output from one commit to the next
     fails here. *)

(* Under `dune runtest` the cwd is the test dir (deps are staged next to
   the binary); allow running from the workspace root too. *)
let repros_dir =
  if Sys.file_exists "repros" then "repros" else Filename.concat "test" "repros"

(* --- committed repros replay clean ------------------------------- *)

let test_repros () =
  let files =
    Sys.readdir repros_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
  in
  Alcotest.(check bool) "at least one committed repro" true (files <> []);
  List.iter
    (fun f ->
      let plan = Dst.Repro.load (Filename.concat repros_dir f) in
      let outcome = Dst.replay plan in
      if not outcome.Dst.Interp.ok then
        Alcotest.failf "repro %s regressed:\n  %s" f
          (String.concat "\n  " outcome.Dst.Interp.violations))
    files

(* --- the shrinker proves itself on a known-bad driver ------------- *)

(* The stub bug: deletes are silently dropped. Any plan that deletes a
   live key and then observes it fails; the minimal repro is a put, the
   delete, and one observation. *)
let broken_driver ~seed () =
  let d = Dst.Driver.make_exn "blsm" ~seed () in
  { d with Dst.Driver.delete = (fun _ -> ()) }

let test_shrinker () =
  let caps = Option.get (Dst.Driver.caps_of_name "blsm") in
  let seed = 20 in
  let plan = Dst.Plan.generate ~caps ~driver:"blsm" ~seed () in
  let mk = broken_driver ~seed in
  Alcotest.(check bool)
    "full plan fails against the broken driver" true
    (Dst.Shrink.fails mk plan);
  let small, stats = Dst.Shrink.minimize ~mk plan in
  Alcotest.(check bool)
    "shrunk plan still fails" true
    (Dst.Shrink.fails mk small);
  let n = List.length small.Dst.Plan.steps in
  if n > 10 then
    Alcotest.failf "shrinker left %d steps (> 10) after %d candidates" n
      stats.Dst.Shrink.candidates;
  (* and the minimized trace must NOT fail on the healthy engine: the
     bug is in the stub, not the tree *)
  let healthy = Dst.Driver.make_exn "blsm" ~seed in
  Alcotest.(check bool)
    "minimized trace passes on the healthy engine" false
    (Dst.Shrink.fails healthy small)

(* --- pinned crash-point plans ------------------------------------ *)

(* Partitioned: cross-partition batches and boundary keys with WAL/page
   crash faults and explicit recoveries. The invariant battery (state
   equivalence after recovery, counters, scrub) runs at checkpoints. *)
let partitioned_crash_plan =
  let p x = Dst.Plan.B_put (x, "v-" ^ x) in
  {
    Dst.Plan.driver = "partitioned";
    seed = 4242;
    note = "pinned: cross-partition batch vs crash points";
    steps =
      [
        { Dst.Plan.faults = []; op = Dst.Plan.Put ("key099", "a") };
        { Dst.Plan.faults = []; op = Dst.Plan.Put ("key100", "b") };
        {
          Dst.Plan.faults =
            [ Dst.Plan.F_crash_wal { after = 1; torn = false } ];
          op = Dst.Plan.Write_batch [ p "key101"; p "key199"; p "key201" ];
        };
        { Dst.Plan.faults = []; op = Dst.Plan.Checkpoint };
        {
          Dst.Plan.faults = [];
          op = Dst.Plan.Write_batch [ p "key050"; p "key150"; p "key250" ];
        };
        {
          Dst.Plan.faults =
            [ Dst.Plan.F_crash_page { after = 2; torn = true } ];
          op = Dst.Plan.Flush;
        };
        { Dst.Plan.faults = []; op = Dst.Plan.Crash_recover };
        { Dst.Plan.faults = []; op = Dst.Plan.Scan ("key0", 20) };
        { Dst.Plan.faults = []; op = Dst.Plan.Checkpoint };
      ];
  }

let test_pinned plan () =
  let outcome = Dst.replay plan in
  if not outcome.Dst.Interp.ok then
    Alcotest.failf "pinned plan %S failed:\n  %s" plan.Dst.Plan.note
      (String.concat "\n  " outcome.Dst.Interp.violations)

(* --- generated pinned seeds with elevated fault rates ------------- *)

let test_generated_seed ~driver ~seed () =
  let params =
    {
      Dst.Plan.default_params with
      Dst.Plan.n_steps = 80;
      fault_rate = 0.15;
      checkpoint_every = 20;
    }
  in
  let _, outcome = Dst.run_seed ~params ~driver_name:driver ~seed () in
  if not outcome.Dst.Interp.ok then
    Alcotest.failf "driver=%s seed=%d failed:\n  %s" driver seed
      (String.concat "\n  " outcome.Dst.Interp.violations)

(* --- JSON round-trip --------------------------------------------- *)

let test_roundtrip () =
  let caps = Option.get (Dst.Driver.caps_of_name "blsm") in
  let plan = Dst.Plan.generate ~caps ~driver:"blsm" ~seed:5 () in
  let back = Dst.Repro.of_json (Dst.Repro.to_json plan) in
  Alcotest.(check bool) "JSON round-trip preserves the plan" true (plan = back);
  (* binary-ish content survives the \u escaping *)
  let odd =
    {
      plan with
      Dst.Plan.note = "bytes: \000\001\xff\"quote\"\n";
      steps =
        [ { Dst.Plan.faults = []; op = Dst.Plan.Put ("k\000\xfe", "v\x7f\n") } ];
    }
  in
  let back = Dst.Repro.of_json (Dst.Repro.to_json odd) in
  Alcotest.(check bool) "escaped bytes round-trip" true (odd = back);
  let every_byte = { plan with Dst.Plan.note = String.init 256 Char.chr } in
  Alcotest.(check bool) "all 256 byte values round-trip" true
    (every_byte = Dst.Repro.of_json (Dst.Repro.to_json every_byte))

(* --- determinism: same seed, same bytes --------------------------- *)

let test_determinism ~driver ~seed () =
  let params =
    { Dst.Plan.default_params with Dst.Plan.n_steps = 60 }
  in
  let _, a = Dst.run_seed ~params ~driver_name:driver ~seed () in
  let _, b = Dst.run_seed ~params ~driver_name:driver ~seed () in
  Alcotest.(check string)
    (Printf.sprintf "same-seed reports identical (%s)" driver)
    a.Dst.Interp.report b.Dst.Interp.report

(* --- pinned digests: same seed, same bytes across commits ---------- *)

(* {!Dst.digest} of each driver over seeds 1-20: per seed, the MD5 of
   the plan's repro JSON followed by its run report (which ends with the
   engine's metrics dump). The table pins generation, execution and
   every reported counter; `blsm_cli dst digest` prints the same lines.
   A change that moves DST output on purpose updates this table and
   lists the drivers whose lines moved, and why, in CHANGES.md. *)
let pinned_seeds = List.init 20 succ

let pinned_digests =
  [
    ("blsm", "0b456d338cae3155d78ef0023f6906b3");
    ("blsm-gear", "15ad2f59764d9e914ae81e79875731f3");
    ("blsm-naive", "93118fa68e50001405db3352645e0fa4");
    ("partitioned", "3e6e9b93c0a86769e6804e699166c232");
    ("btree", "036ecba44d20bea3c93aafa69d943feb");
    ("leveldb", "b22a752417fe570c64811b3e57b3a8eb");
    ("policy-tiered", "445881ded6aa3e71003ea705011f5b70");
    ("policy-leveled", "9d34897ee5af32a9abfbcbffb5dd3a2d");
    ("policy-lazy-leveled", "7778cf4cb468de430068533f74d2a9bd");
    ("policy-partial", "eece386169e8c5cc26dbed1b62ffd793");
  ]

let test_pinned_digests () =
  Alcotest.(check (list string))
    "every driver has a pinned digest" Dst.Driver.all_names
    (List.map fst pinned_digests);
  List.iter
    (fun (driver_name, expect) ->
      Alcotest.(check string)
        (driver_name ^ " seeds 1-20 digest")
        expect
        (Dst.digest ~driver_name ~seeds:pinned_seeds))
    pinned_digests

let () =
  Alcotest.run "dst"
    [
      ( "repros",
        [ Alcotest.test_case "committed repros replay clean" `Quick test_repros ] );
      ( "shrinker",
        [
          Alcotest.test_case "broken driver reduces to <= 10 ops" `Quick
            test_shrinker;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "partitioned crash points" `Quick
            (test_pinned partitioned_crash_plan);
          Alcotest.test_case "partitioned seed 91" `Quick
            (test_generated_seed ~driver:"partitioned" ~seed:91);
        ] );
      ( "format",
        [ Alcotest.test_case "JSON round-trip" `Quick test_roundtrip ] );
      ( "determinism",
        [
          Alcotest.test_case "blsm" `Quick
            (test_determinism ~driver:"blsm" ~seed:11);
        ] );
      ( "pinned digests",
        [ Alcotest.test_case "seeds 1-20, every driver" `Quick test_pinned_digests ] );
    ]
