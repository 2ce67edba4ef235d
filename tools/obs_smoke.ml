(* obs-smoke: end-to-end check of the observability layer.

   Runs a saturated spring-scheduler insert workload with tracing on and
   verifies the three contracts the tracing layer makes:

   1. attribution: for every write, the stall causes last_stall reports
      (merge1 + merge2 + hard) sum to the sampled stall_us within float
      rounding — the simulated clock only advances inside disk
      operations, so the quanta must tile the pacing window exactly;
   2. well-formedness: the Chrome trace_event document parses as JSON,
      has a traceEvents array of objects, and every event carries the
      mandatory ph/ts/pid/tid fields;
   3. determinism: two runs with the same seed produce byte-identical
      trace output (all timestamps come from the simulated clock).

   Exits nonzero with a message on the first violated contract, so
   `dune build @obs-smoke` doubles as a regression gate. *)

let failures = ref 0

let check name ok detail =
  if ok then Printf.printf "  ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "  FAIL %s: %s\n" name detail
  end

(* ------------------------------------------------------------------ *)
(* Traced workload: saturated spring inserts into a tiny C0. *)

let ops = 2_500
let value_bytes = 512

type run_result = {
  trace : string;
  events : int;
  worst_err_us : float; (* max |merge1+merge2+hard - total| over all ops *)
  stalled_ops : int; (* ops with a nonzero pacing window *)
  hard_us : float;
}

let run_traced ~seed () =
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
      Blsm.Config.c0_bytes = 64 * 1024;
      scheduler = Blsm.Config.Spring;
    }
  in
  let tree = Blsm.Tree.create ~config store in
  let tr = Pagestore.Store.trace store in
  let finish = Obs.Trace.enable_buffer tr ~format:Obs.Trace.Chrome in
  let prng = Repro_util.Prng.of_int seed in
  let worst = ref 0.0 in
  let stalled = ref 0 in
  let hard = ref 0.0 in
  for i = 0 to ops - 1 do
    Blsm.Tree.put tree
      (Repro_util.Keygen.key_of_id i)
      (Repro_util.Keygen.value prng value_bytes);
    let sb = Blsm.Tree.last_stall tree in
    let attributed =
      sb.Blsm.Tree.sb_merge1_us +. sb.Blsm.Tree.sb_merge2_us
      +. sb.Blsm.Tree.sb_hard_us
    in
    let err = Float.abs (attributed -. sb.Blsm.Tree.sb_total_us) in
    if err > !worst then worst := err;
    if sb.Blsm.Tree.sb_total_us > 0.0 then incr stalled;
    hard := !hard +. sb.Blsm.Tree.sb_hard_us;
    ignore i
  done;
  let events = Obs.Trace.events_emitted tr in
  let trace = finish () in
  {
    trace;
    events;
    worst_err_us = !worst;
    stalled_ops = !stalled;
    hard_us = !hard;
  }

(* ------------------------------------------------------------------ *)

let () =
  Printf.printf "obs-smoke: traced saturated spring inserts (%d ops)\n" ops;
  let r1 = run_traced ~seed:7 () in
  let r2 = run_traced ~seed:7 () in

  (* 1. stall attribution tiles the pacing window for every op *)
  check "attribution sums equal stall_us"
    (r1.worst_err_us <= 0.5)
    (Printf.sprintf "worst |attributed - total| = %.6f us" r1.worst_err_us);
  check "workload actually saturates the scheduler"
    (r1.stalled_ops > ops / 10)
    (Printf.sprintf "only %d/%d ops saw a pacing window" r1.stalled_ops ops);

  (* 2. the Chrome document is valid JSON with the expected shape *)
  let open Obs.Json in
  (match parse r1.trace with
  | exception Parse_error m -> check "chrome trace parses as JSON" false m
  | Obj fields -> (
      check "chrome trace parses as JSON" true "";
      match List.assoc_opt "traceEvents" fields with
      | Some (Arr events) ->
          check "traceEvents length matches events_emitted"
            (List.length events = r1.events)
            (Printf.sprintf "%d events in JSON, %d emitted"
               (List.length events) r1.events);
          let well_formed =
            List.for_all
              (function
                | Obj e ->
                    List.mem_assoc "ph" e && List.mem_assoc "ts" e
                    && List.mem_assoc "pid" e && List.mem_assoc "tid" e
                    && List.mem_assoc "name" e
                | _ -> false)
              events
          in
          check "every event has ph/ts/pid/tid/name" well_formed
            "an event is missing a mandatory field";
          let has_cat c =
            List.exists
              (function
                | Obj e -> List.assoc_opt "cat" e = Some (Str c)
                | _ -> false)
              events
          in
          check "trace covers tree, scheduler and merge categories"
            (has_cat "tree" && has_cat "sched" && has_cat "merge")
            "missing a category"
      | _ -> check "traceEvents is an array" false "field missing or not array")
  | _ -> check "chrome trace parses as JSON" false "top level is not an object");

  (* 3. same seed => byte-identical trace *)
  check "same-seed runs are byte-identical"
    (String.equal r1.trace r2.trace)
    (Printf.sprintf "lengths %d vs %d" (String.length r1.trace)
       (String.length r2.trace));
  check "trace is non-trivial"
    (r1.events > ops)
    (Printf.sprintf "only %d events for %d ops" r1.events ops);

  Printf.printf
    "obs-smoke: %d events, %d/%d stalled ops, worst attribution error %.6f us, hard %.1f us\n"
    r1.events r1.stalled_ops ops r1.worst_err_us r1.hard_us;
  if !failures > 0 then begin
    Printf.printf "obs-smoke: %d FAILURES\n" !failures;
    exit 1
  end
  else print_endline "OBS_SMOKE_OK"
