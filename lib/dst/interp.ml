(** The DST interpreter: executes a plan against a driver in lock-step
    with the {!Oracle}, checking invariants as it goes.

    Per-op invariants: every read (get / scan / insert-if-absent
    decision) must agree with the oracle, and every paced write's stall
    attribution must tile the pacing window (merge1 + merge2 + hard =
    total, the obs contract). At [Checkpoint] steps and at plan end, the
    full battery runs: whole-state scan equivalence, sampled point
    reads, op-counter agreement between the engine's metrics and the
    interpreter's own mirror.

    Crash discipline: a {!Simdisk.Faults.Crash_point} escaping an
    operation means the machine died {e before the op was acked} (the
    WAL append is the last disk touch before the memtable write), so
    the oracle applies an op's effects only after it returns normally.
    The interpreter then recovers the store and resets its counter
    mirror (a recovered tree starts with fresh stats).

    Rot discipline: once a lost-write or bit-flip fault has fired, the
    run enters {e rot mode}: typed corruption raises
    ({!Blsm.Tree.Corruption}, WAL [Corrupt]) become legitimate
    outcomes (counted, never ignored silently) and counter checks are
    masked — but value comparisons still hold, because detected
    corruption must surface as an exception, never as a wrong answer.
    Outside rot mode any corruption raise is a violation. *)

exception Stop_run of string

type outcome = {
  ok : bool;
  violations : string list;
  report : string;
      (** full deterministic run report: same plan, same bytes *)
  steps_run : int;
  crashes : int;
  rot : bool;
}

type st = {
  d : Driver.t;
  plan : Plan.t;
  oracle : Oracle.t;
  mutable exp : Blsm.Lsm_shell.stats;
      (* the interpreter's own mirror of the engine's op counters *)
  buf : Buffer.t;
  mutable violations : string list;  (* reversed *)
  mutable rot : bool;
  mutable crashes : int;
  mutable steps_run : int;
}

let line st fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string st.buf s;
      Buffer.add_char st.buf '\n')
    fmt

let violation st step fmt =
  Printf.ksprintf
    (fun s ->
      let msg =
        if step < 0 then s else Printf.sprintf "step %d: %s" step s
      in
      st.violations <- msg :: st.violations;
      line st "VIOLATION %s" msg)
    fmt

let trunc s = if String.length s > 40 then String.sub s 0 40 ^ ".." else s

let show = function
  | None -> "None"
  | Some s -> Printf.sprintf "%S" (trunc s)

(* Typed corruption only: an engine that lets a raw SSTable decoder
   [Corrupt] escape breaks the "never untyped" contract, and that is a
   violation even in rot mode. *)
let is_corruption = function
  | Blsm.Tree.Corruption _ | Pagestore.Wal.Corrupt _ -> true
  | _ -> false

let injected_rot f =
  let c = Simdisk.Faults.counters f in
  c.Simdisk.Faults.injected_lost_writes + c.Simdisk.Faults.injected_bit_flips
  > 0

let update_rot st =
  if (not st.rot) && injected_rot st.d.Driver.faults then begin
    st.rot <- true;
    line st "rot: silent-corruption fault fired; counter checks masked"
  end

let reset_exp st = st.exp <- Blsm.Lsm_shell.fresh_stats ()

(* ------------------------------------------------------------------ *)
(* Crash recovery *)

let rec recover_store st step attempt =
  match st.d.Driver.crash_recover with
  | None ->
      violation st step "crash fired but driver has no recovery";
      raise (Stop_run "crash without recovery support")
  | Some recover -> (
      match recover () with
      | () -> reset_exp st
      | exception Simdisk.Faults.Crash_point site ->
          st.crashes <- st.crashes + 1;
          line st "step %d: crash at %s during recovery (attempt %d)" step
            site attempt;
          if attempt >= 8 then begin
            violation st step "recovery did not converge after 8 crashes";
            raise (Stop_run "recovery did not converge")
          end
          else recover_store st step (attempt + 1)
      | exception e when is_corruption e ->
          update_rot st;
          if st.rot then begin
            line st "step %d: unrecoverable detected corruption (rot): %s"
              step (Printexc.to_string e);
            raise (Stop_run "rot made recovery impossible")
          end
          else begin
            violation st step "corruption during recovery without rot: %s"
              (Printexc.to_string e);
            raise (Stop_run "corrupt recovery")
          end)

(** Run [f]; on a crash point, recover the store and report [`Crashed];
    on a typed corruption raise, report [`Corrupt] (tolerated only in
    rot mode). *)
let guarded st step ~what f =
  try `Ok (f ()) with
  | Simdisk.Faults.Crash_point site ->
      st.crashes <- st.crashes + 1;
      line st "step %d: crash at %s during %s" step site what;
      recover_store st step 1;
      `Crashed
  | e when is_corruption e ->
      update_rot st;
      if st.rot then
        line st "step %d: detected corruption during %s: %s" step what
          (Printexc.to_string e)
      else
        violation st step "corruption during %s without injected rot: %s"
          what (Printexc.to_string e);
      `Corrupt

(* ------------------------------------------------------------------ *)
(* Per-op checks *)

let check_stall st step =
  match st.d.Driver.last_stall with
  | None -> ()
  | Some ls ->
      let sb = ls () in
      let attributed =
        sb.Blsm.Tree.sb_merge1_us +. sb.Blsm.Tree.sb_merge2_us
        +. sb.Blsm.Tree.sb_hard_us
      in
      let err = Float.abs (attributed -. sb.Blsm.Tree.sb_total_us) in
      if err > 0.5 then
        violation st step
          "stall attribution does not tile pacing window: off by %.3f us"
          err

let digest rows =
  let b = Buffer.create 256 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v;
      Buffer.add_char b ';')
    rows;
  Repro_util.Crc32c.string (Buffer.contents b) land 0xFFFFFFFF

let rec first_diff engine oracle =
  match (engine, oracle) with
  | [], [] -> ""
  | (k, v) :: _, [] -> Printf.sprintf "; engine has extra %s=%S" k (trunc v)
  | [], (k, v) :: _ -> Printf.sprintf "; engine missing %s=%S" k (trunc v)
  | (ka, va) :: ra, (kb, vb) :: rb ->
      if ka = kb && va = vb then first_diff ra rb
      else
        Printf.sprintf "; first diff: engine %s=%S vs oracle %s=%S" ka
          (trunc va) kb (trunc vb)

let arm st faults =
  List.iter
    (fun f ->
      match f with
      | Plan.F_lost_page after ->
          Simdisk.Faults.schedule_lost_page_write st.d.Driver.faults ~after
      | Plan.F_flip_page after ->
          Simdisk.Faults.schedule_page_bit_flip st.d.Driver.faults ~after
      | Plan.F_crash_page { after; torn } ->
          Simdisk.Faults.schedule_crash_at_page_write ~torn
            st.d.Driver.faults ~after
      | Plan.F_crash_wal { after; torn } ->
          Simdisk.Faults.schedule_crash_at_wal_append ~torn
            st.d.Driver.faults ~after)
    faults

let entry_of_item = function
  | Plan.B_put (k, v) -> (k, Kv.Entry.Base v)
  | Plan.B_del k -> (k, Kv.Entry.Tombstone)

(* ------------------------------------------------------------------ *)
(* Checkpoint battery *)

let checkpoint st i ~label =
  let d = st.d in
  (* 1. whole-state equivalence via a full scan *)
  (match
     guarded st i ~what:"checkpoint scan" (fun () ->
         d.Driver.scan "" 1_000_000)
   with
  | `Ok rows ->
      st.exp.scans <- st.exp.scans + 1;
      let expect = Oracle.bindings st.oracle in
      if rows <> expect then
        violation st i
          "checkpoint state divergence (engine %d keys, oracle %d)%s"
          (List.length rows) (List.length expect) (first_diff rows expect);
      line st "checkpoint %s step=%d keys=%d digest=%08x" label i
        (List.length expect) (digest rows)
  | `Crashed | `Corrupt -> line st "checkpoint %s step=%d interrupted" label i);
  (* 2. sampled point reads: 8 present keys, 2 absent *)
  let prng = Repro_util.Prng.of_int ((st.plan.Plan.seed lxor (i * 7919)) + 5) in
  let bind = Array.of_list (Oracle.bindings st.oracle) in
  for _ = 1 to 8 do
    if Array.length bind > 0 then begin
      let k, v = bind.(Repro_util.Prng.int prng (Array.length bind)) in
      match guarded st i ~what:"checkpoint get" (fun () -> d.Driver.get k) with
      | `Ok got ->
          st.exp.gets <- st.exp.gets + 1;
          (* the sampled binding may predate an interrupted checkpoint's
             recovery only if the write was unacked — impossible here:
             the oracle holds acked writes only *)
          if got <> Some v then
            violation st i "checkpoint get %s: engine=%s oracle=%S" k
              (show got) (trunc v)
      | `Crashed | `Corrupt -> ()
    end
  done;
  for _ = 1 to 2 do
    let k = Printf.sprintf "nokey%03d" (Repro_util.Prng.int prng 1000) in
    match guarded st i ~what:"checkpoint get" (fun () -> d.Driver.get k) with
    | `Ok got ->
        st.exp.gets <- st.exp.gets + 1;
        let expect = Oracle.get st.oracle k in
        if got <> expect then
          violation st i "checkpoint absent-get %s: engine=%s oracle=%s" k
            (show got) (show expect)
    | `Crashed | `Corrupt -> ()
  done;
  (* 3. engine op counters vs the interpreter's mirror *)
  match d.Driver.counts with
  | Some counts when not st.rot ->
      let shells = counts () in
      let chk name (field : Blsm.Lsm_shell.stats -> int) =
        let got = List.fold_left (fun a s -> a + field s) 0 shells in
        if got <> field st.exp then
          violation st i "counter %s: engine=%d interpreter=%d" name got
            (field st.exp)
      in
      chk "puts" (fun s -> s.puts);
      chk "gets" (fun s -> s.gets);
      chk "deletes" (fun s -> s.deletes);
      chk "deltas" (fun s -> s.deltas);
      if not d.Driver.mask_scans then chk "scans" (fun s -> s.scans);
      chk "rmws" (fun s -> s.rmws);
      chk "checked_inserts" (fun s -> s.checked_inserts)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Step execution *)

let exec_step st i (step : Plan.step) =
  arm st step.Plan.faults;
  let d = st.d in
  match step.Plan.op with
  | Plan.Put (k, v) -> (
      match guarded st i ~what:"put" (fun () -> d.Driver.put k v) with
      | `Ok () ->
          Oracle.put st.oracle k v;
          st.exp.puts <- st.exp.puts + 1;
          check_stall st i
      | `Crashed | `Corrupt -> ())
  | Plan.Get k -> (
      match guarded st i ~what:"get" (fun () -> d.Driver.get k) with
      | `Ok got ->
          st.exp.gets <- st.exp.gets + 1;
          let expect = Oracle.get st.oracle k in
          if got <> expect then
            violation st i "get %s: engine=%s oracle=%s" k (show got)
              (show expect)
      | `Crashed | `Corrupt -> ())
  | Plan.Delete k -> (
      match guarded st i ~what:"delete" (fun () -> d.Driver.delete k) with
      | `Ok () ->
          Oracle.delete st.oracle k;
          st.exp.deletes <- st.exp.deletes + 1;
          check_stall st i
      | `Crashed | `Corrupt -> ())
  | Plan.Delta (k, dl) -> (
      match guarded st i ~what:"delta" (fun () -> d.Driver.apply_delta k dl) with
      | `Ok () ->
          Oracle.delta st.oracle k dl;
          st.exp.deltas <- st.exp.deltas + 1;
          check_stall st i
      | `Crashed | `Corrupt -> ())
  | Plan.Rmw (k, s) -> (
      match guarded st i ~what:"rmw" (fun () -> d.Driver.rmw k s) with
      | `Ok () ->
          Oracle.read_modify_write st.oracle k (fun v ->
              Option.value v ~default:"" ^ s);
          st.exp.rmws <- st.exp.rmws + 1;
          check_stall st i
      | `Crashed | `Corrupt -> ())
  | Plan.Insert_if_absent (k, v) -> (
      match
        guarded st i ~what:"ifabsent" (fun () -> d.Driver.insert_if_absent k v)
      with
      | `Ok inserted ->
          let expect = Oracle.insert_if_absent st.oracle k v in
          st.exp.checked_inserts <- st.exp.checked_inserts + 1;
          if inserted <> expect then
            violation st i "ifabsent %s: engine=%b oracle=%b" k inserted
              expect;
          if inserted then check_stall st i
      | `Crashed | `Corrupt -> ())
  | Plan.Scan (k, n) -> (
      match guarded st i ~what:"scan" (fun () -> d.Driver.scan k n) with
      | `Ok rows ->
          st.exp.scans <- st.exp.scans + 1;
          let expect = Oracle.scan st.oracle k n in
          if rows <> expect then
            violation st i "scan %s %d: engine %d rows, oracle %d%s" k n
              (List.length rows) (List.length expect)
              (first_diff rows expect)
      | `Crashed | `Corrupt -> ())
  | Plan.Write_batch items ->
      let entries = List.map entry_of_item items in
      if d.Driver.caps.Plan.c_lsm then (
        match
          guarded st i ~what:"write_batch" (fun () -> d.Driver.write_batch entries)
        with
        | `Ok () ->
            List.iter (fun (k, e) -> Oracle.apply_entry st.oracle k e) entries;
            st.exp.puts <- st.exp.puts + List.length entries;
            check_stall st i
        | `Crashed | `Corrupt -> ())
      else
        (* engines without an atomic batch primitive run items as
           individual writes (and the oracle advances per item) *)
        List.iter
          (fun (k, e) ->
            match
              guarded st i ~what:"batch item" (fun () ->
                  match e with
                  | Kv.Entry.Base v -> d.Driver.put k v
                  | Kv.Entry.Tombstone -> d.Driver.delete k
                  | Kv.Entry.Delta ds -> List.iter (d.Driver.apply_delta k) ds)
            with
            | `Ok () -> Oracle.apply_entry st.oracle k e
            | `Crashed | `Corrupt -> ())
          entries
  | Plan.Crash_recover -> (
      match d.Driver.crash_recover with
      | None -> ()
      | Some _ ->
          line st "step %d: planned crash_recover" i;
          st.crashes <- st.crashes + 1;
          recover_store st i 1)
  | Plan.Scrub -> (
      match d.Driver.scrub with
      | None -> ()
      | Some sc -> (
          match guarded st i ~what:"scrub" (fun () -> sc ()) with
          | `Ok reports ->
              let errors =
                List.fold_left
                  (fun a (r : Blsm.Lsm_shell.scrub_report) ->
                    a + List.length r.scrub_errors)
                  0 reports
              in
              if (not st.rot) && errors > 0 then
                violation st i "scrub found %d errors without injected rot"
                  errors
              else if errors > 0 then
                line st "step %d: scrub errors=%d (rot)" i errors
          | `Crashed | `Corrupt -> ()))
  | Plan.Maintenance ->
      ignore (guarded st i ~what:"maintenance" (fun () -> d.Driver.maintenance ()))
  | Plan.Flush -> (
      match d.Driver.flush with
      | None ->
          ignore
            (guarded st i ~what:"maintenance" (fun () -> d.Driver.maintenance ()))
      | Some fl -> ignore (guarded st i ~what:"flush" (fun () -> fl ())))
  | Plan.Checkpoint -> checkpoint st i ~label:"mid"

(* ------------------------------------------------------------------ *)

(** [run d plan] executes the plan to completion (or to a fatal rot
    stop), then runs a final checkpoint and renders the report. Two runs
    of the same plan against fresh drivers produce byte-identical
    reports. *)
let run (d : Driver.t) (plan : Plan.t) : outcome =
  let st =
    {
      d;
      plan;
      oracle = Oracle.create ();
      exp = Blsm.Lsm_shell.fresh_stats ();
      buf = Buffer.create 4096;
      violations = [];
      rot = false;
      crashes = 0;
      steps_run = 0;
    }
  in
  line st "dst: driver=%s seed=%d steps=%d" plan.Plan.driver plan.Plan.seed
    (List.length plan.Plan.steps);
  (try
     List.iteri
       (fun i step ->
         exec_step st i step;
         update_rot st;
         st.steps_run <- st.steps_run + 1)
       plan.Plan.steps;
     checkpoint st (List.length plan.Plan.steps) ~label:"final"
   with
  | Stop_run why -> line st "run truncated: %s" why
  | Stack_overflow -> violation st (-1) "stack overflow"
  | e -> violation st (-1) "unhandled exception: %s" (Printexc.to_string e));
  let pp, pw = Simdisk.Faults.pending d.Driver.faults in
  line st "final: steps=%d crashes=%d rot=%b pending_faults=%d violations=%d"
    st.steps_run st.crashes st.rot (pp + pw)
    (List.length st.violations);
  Buffer.add_string st.buf
    (* Expected dump failures only: a crashed engine's registry closures
       may hit freed state.  Assert_failure / Out_of_memory / injected
       corruption must escape to the harness, not read as "no metrics". *)
    (try d.Driver.metrics_dump ()
     with Not_found | Invalid_argument _ | Failure _ ->
       "<metrics unavailable>\n");
  {
    ok = st.violations = [];
    violations = List.rev st.violations;
    report = Buffer.contents st.buf;
    steps_run = st.steps_run;
    crashes = st.crashes;
    rot = st.rot;
  }
