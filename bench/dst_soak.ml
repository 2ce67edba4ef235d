(* DST soak as a bench experiment: longer plans and more seeds than the
   @dst-smoke gate, with per-driver timing so harness throughput (plans
   per second) is visible alongside the correctness sweep. Scale knobs
   map naturally: --ops sets steps per plan, --seed offsets the seed
   block, --quick quarters everything like any other experiment. *)

let run (scale : Scale.t) =
  let steps = max 50 (min 600 (scale.Scale.ops / 16)) in
  let seeds = max 3 (min 40 (scale.Scale.records / 8000)) in
  let params =
    { Dst.Plan.default_params with Dst.Plan.n_steps = steps }
  in
  Printf.printf
    "\n== DST soak: %d drivers x %d seeds, %d steps per plan ==\n%!"
    (List.length Dst.Driver.all_names) seeds steps;
  let total_violations = ref 0 in
  List.iter
    (fun driver ->
      (* wall-clock throughput report only; plans/results are seeded *)
      let t0 = (Unix.gettimeofday [@lint.allow "D001"]) () in
      let crashes = ref 0 and rot = ref 0 and bad = ref 0 in
      for s = 1 to seeds do
        let seed = scale.Scale.seed + (s * 101) in
        let plan, outcome =
          Dst.run_seed ~params ~driver_name:driver ~seed ()
        in
        crashes := !crashes + outcome.Dst.Interp.crashes;
        if outcome.Dst.Interp.rot then incr rot;
        if not outcome.Dst.Interp.ok then begin
          incr bad;
          total_violations :=
            !total_violations + List.length outcome.Dst.Interp.violations;
          Printf.printf "  FAIL %s seed=%d (%d steps):\n" driver seed
            (List.length plan.Dst.Plan.steps);
          List.iter
            (Printf.printf "    %s\n")
            outcome.Dst.Interp.violations
        end
      done;
      let dt = (Unix.gettimeofday [@lint.allow "D001"]) () -. t0 in
      Printf.printf
        "  %-19s %3d plans  %5d crashes recovered  %2d rot runs  %s  %6.2fs (%.1f plans/s)\n%!"
        driver seeds !crashes !rot
        (if !bad = 0 then "ok  " else Printf.sprintf "%dBAD" !bad)
        dt
        (float_of_int seeds /. dt))
    Dst.Driver.all_names;
  if !total_violations > 0 then
    Printf.printf "DST soak: %d violations — see above\n" !total_violations
  else Printf.printf "DST soak: all invariants held\n"
