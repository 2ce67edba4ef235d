(* DST harness tests:
   - every committed repro under repros/ replays clean (each one is a
     minimized trace that exposed a real bug before its fix);
   - the shrinker demonstrably minimizes: a deliberately-broken driver
     stub reduces from a 160-step plan to a handful of ops;
   - pinned-seed crash-point plans for the partitioned tree pass the
     full invariant battery;
   - repro files round-trip through JSON;
   - same-seed runs are byte-identical (the determinism contract), and
     seed 1 of every driver matches a digest table pinned in this file,
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

(* MD5 of the repro JSON of each driver's seed-1 plan followed by its
   run report (the report ends with the engine's metrics dump). The
   table pins generation, execution and every reported counter. A change
   that moves DST output on purpose updates this table and lists the
   drivers whose lines moved, and why, in CHANGES.md. *)
let pinned_digests =
  [
    ("blsm", "350a415c5354a311811aea4d17afc4fb");
    ("blsm-gear", "1e90530642da7416cb2fe79c02055516");
    ("blsm-naive", "874167cc9a290a7df2d51941a86d5a60");
    ("partitioned", "615309316e2bc9393b9489e6d3a43fc1");
    ("btree", "b412ad88e568f4463586c8b10ce82d7f");
    ("leveldb", "5ac50822501cbceca543b6cd44d38aa1");
    ("policy-tiered", "b996c4ac524995d375482a3eca8431ae");
    ("policy-leveled", "edc9252806305e59c255020622defe0a");
    ("policy-lazy-leveled", "ef92ba25f32280297ba51b75be9dfd9f");
    ("policy-partial", "81e06ac5e02e9e411180a9a57e7407f1");
  ]

let test_pinned_digests () =
  Alcotest.(check (list string))
    "every driver has a pinned digest" Dst.Driver.all_names
    (List.map fst pinned_digests);
  List.iter
    (fun (driver, expect) ->
      let plan, outcome = Dst.run_seed ~driver_name:driver ~seed:1 () in
      let got =
        Digest.to_hex
          (Digest.string (Dst.Repro.to_json plan ^ outcome.Dst.Interp.report))
      in
      Alcotest.(check string) (driver ^ " seed 1 digest") expect got)
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
        [ Alcotest.test_case "seed 1, every driver" `Quick test_pinned_digests ] );
    ]
