(** Figures 5 & 6 — the gear and spring-and-gear mechanics, as a timeline.

    The paper's Figures 5 and 6 are diagrams of the clock analogy: gears
    keep each merge's progress hand aligned with the upstream component's
    fill, and the spring decouples the application from merge timing with
    a watermark band on C0. This experiment makes the mechanism visible as
    data: a saturated insert load sampled every few hundred operations,
    printing C0 fill, merge1 inprogress, outprogress1 and merge2
    inprogress side by side.

    Expected shapes:
    - gear: merge1's inprogress tracks C0's fill almost 1:1 (the meshed
      gears), resetting together at each hand-off;
    - spring: C0 fill oscillates inside the [low, high] band while the
      merge hands sweep smoothly — the spring absorbing the coupling;
    - naive: C0 fill saws from 0 to 1 with a full-drain stall at each
      peak. *)

let run_one scale profile ~scheduler ~label ~trace_file =
  Printf.printf "\n[%s]\n" label;
  Printf.printf "%8s %8s %10s %12s %10s %10s\n" "ops" "C0-fill" "m1-inprog"
    "outprogress1" "m2-inprog" "stall(ms)";
  let tree =
    Scale.blsm
      ~config_tweak:(fun c ->
        { c with Blsm.Config.scheduler })
      scale profile
  in
  (* Every pacing decision, merge quantum, and per-op span goes to the
     trace file, so the figure can be regenerated from the file alone
     (see DESIGN.md "Observability") instead of the inline samples. *)
  Obs.Trace.enable_file
    (Pagestore.Store.trace (Blsm.Tree.store tree))
    ~format:Obs.Trace.Chrome trace_file;
  let disk = Blsm.Tree.disk tree in
  let prng = Repro_util.Prng.of_int scale.Scale.seed in
  let n = scale.Scale.records in
  let sample_every = max 1 (n / 28) in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let t0 = Simdisk.Disk.now_us disk in
    Blsm.Tree.put tree
      (Repro_util.Keygen.key_of_id i)
      (Repro_util.Keygen.value prng scale.Scale.value_bytes);
    worst := Float.max !worst (Simdisk.Disk.now_us disk -. t0);
    if i mod sample_every = 0 then begin
      Printf.printf "%8d %8.2f %10.2f %12.2f %10.2f %10.2f\n" i
        (Blsm.Tree.c0_fill tree)
        (Blsm.Tree.merge1_inprogress tree)
        (Blsm.Tree.outprogress1 tree)
        (Blsm.Tree.merge2_inprogress tree)
        (!worst /. 1000.);
      worst := 0.0
    end
  done;
  let tr = Pagestore.Store.trace (Blsm.Tree.store tree) in
  let events = Obs.Trace.events_emitted tr in
  Obs.Trace.disable tr;
  Printf.printf "  trace: %d events -> %s\n" events trace_file

let run scale profile =
  Scale.section
    (Printf.sprintf
       "Figures 5-6: scheduler mechanics timeline (%s, saturated inserts)"
       profile.Simdisk.Profile.name);
  run_one scale profile ~scheduler:Blsm.Config.Gear
    ~label:"gear scheduler (Figure 5): merge hands mesh with C0 fill"
    ~trace_file:"fig56_gear.trace.json";
  run_one scale profile ~scheduler:Blsm.Config.Spring
    ~label:"spring-and-gear (Figure 6): C0 rides the watermark band"
    ~trace_file:"fig56_spring.trace.json";
  run_one scale profile ~scheduler:Blsm.Config.Naive
    ~label:"naive (no pacing): sawtooth fill, full-drain stalls"
    ~trace_file:"fig56_naive.trace.json"
