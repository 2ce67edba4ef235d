(** DST plans: seeded workload traces with interleaved fault schedules.

    A plan is the deterministic unit of the simulation harness: one seed
    expands to one trace of operations (the full engine surface — point
    ops, deltas, RMW, scans, atomic batches, crash/recover, scrub) with
    faults from the {!Simdisk.Faults} taxonomy (torn/lost/bit-flip/
    crash-point) armed between steps. The interpreter ({!Interp})
    executes a plan against any driver in lock-step with an in-memory
    oracle; the shrinker ({!Shrink}) minimizes failing plans; {!Repro}
    round-trips them through JSON seed files.

    The grammar is deliberately first-order data (no closures) so plans
    can be serialized, diffed, and shrunk structurally. *)

type batch_item = B_put of string * string | B_del of string

type op =
  | Put of string * string
  | Get of string
  | Delete of string
  | Delta of string * string
  | Rmw of string * string  (** read-modify-write: append suffix *)
  | Insert_if_absent of string * string
  | Scan of string * int
  | Write_batch of batch_item list
  | Crash_recover
  | Scrub
  | Maintenance
  | Flush
  | Checkpoint  (** run the full invariant battery here *)

(** Faults armed before a step executes. [after] is the write-site
    ordinal counted from the arming point ([after = 1] fires on the very
    next hook call), mirroring {!Simdisk.Faults}. *)
type fault =
  | F_lost_page of int
  | F_flip_page of int
  | F_crash_page of { after : int; torn : bool }
  | F_crash_wal of { after : int; torn : bool }

type step = { faults : fault list; op : op }

type t = {
  driver : string;
  seed : int;
  note : string;  (** free-form provenance, carried into repro files *)
  steps : step list;
}

(** What a driver can do; gates both generation and interpretation. *)
type caps = {
  c_crash : bool;  (** supports crash_and_recover (and thus fault plans) *)
  c_scrub : bool;
  c_batch_atomic : bool;
      (** write_batch is one log record; otherwise emulated per-item *)
}

type params = {
  n_steps : int;
  key_space : int;  (** keys are ["key%03d"] below this bound *)
  value_bytes : int;  (** value size jitter above a small floor *)
  checkpoint_every : int;
  fault_rate : float;  (** crash-point faults per step *)
  rot_rate : float;  (** lost-write / bit-flip faults per step *)
}

let default_params =
  {
    n_steps = 160;
    key_space = 300;
    value_bytes = 40;
    checkpoint_every = 40;
    fault_rate = 0.05;
    rot_rate = 0.008;
  }

(* ------------------------------------------------------------------ *)
(* Generation *)

(* Keys adjacent to the canonical partition boundaries ("key100",
   "key200"): ~10% of traffic lands here so partition-split routing and
   cross-partition batches are exercised on every seed. *)
let boundary_keys =
  [| "key099"; "key100"; "key101"; "key199"; "key200"; "key201" |]

let gen_key prng p =
  if p.key_space >= 210 && Repro_util.Prng.int prng 10 = 0 then
    boundary_keys.(Repro_util.Prng.int prng (Array.length boundary_keys))
  else Printf.sprintf "key%03d" (Repro_util.Prng.int prng p.key_space)

(* Values carry the step index (uniqueness across overwrites) plus a
   printable filler, so repro files stay human-readable. *)
let gen_value prng p i =
  Printf.sprintf "v%d.%s" i
    (String.make (4 + Repro_util.Prng.int prng (max 1 p.value_bytes)) 'x')

let gen_faults prng (caps : caps) p =
  if not caps.c_crash then []
  else begin
    let fs = ref [] in
    if Repro_util.Prng.float prng < p.fault_rate then begin
      let torn = Repro_util.Prng.bool prng in
      let after = 1 + Repro_util.Prng.int prng 6 in
      let f =
        match Repro_util.Prng.int prng 4 with
        | 2 -> F_crash_page { after; torn }
        | _ -> F_crash_wal { after; torn }
      in
      fs := f :: !fs
    end;
    if Repro_util.Prng.float prng < p.rot_rate then begin
      let after = 1 + Repro_util.Prng.int prng 8 in
      fs :=
        (if Repro_util.Prng.bool prng then F_lost_page after
         else F_flip_page after)
        :: !fs
    end;
    !fs
  end

let gen_batch prng (p : params) i =
  let len = 1 + Repro_util.Prng.int prng 5 in
  Write_batch
    (List.init len (fun j ->
         if Repro_util.Prng.int prng 5 = 0 then B_del (gen_key prng p)
         else B_put (gen_key prng p, gen_value prng p ((i * 100) + j))))

let gen_op prng (caps : caps) p i =
  let key () = gen_key prng p in
  let value () = gen_value prng p i in
  let r = Repro_util.Prng.int prng 100 in
  if r < 24 then Put (key (), value ())
  else if r < 42 then Get (key ())
  else if r < 50 then Delete (key ())
  else if r < 58 then Delta (key (), Printf.sprintf "+d%d" i)
  else if r < 64 then Rmw (key (), Printf.sprintf "+r%d" i)
  else if r < 69 then Insert_if_absent (key (), value ())
  else if r < 75 then Scan (key (), 1 + Repro_util.Prng.int prng 12)
  else if r < 77 then
    (* long_scan: spans many pages, so page-crossing records and
       multi-page merge iteration run under the oracle *)
    Scan (key (), 40 + Repro_util.Prng.int prng 160)
  else if r < 84 then gen_batch prng p i
  else if r < 89 then Rmw (key (), Printf.sprintf "+r%d" i)
  else if r < 91 then (if caps.c_crash then Crash_recover else Maintenance)
  else if r < 94 then Get (key ())
  else if r < 95 then Scan (key (), 3)
  else if r < 96 then (if caps.c_scrub then Scrub else Scan (key (), 3))
  else if r < 98 then Maintenance
  else Flush

(** [generate ~caps ~params ~driver ~seed] expands one seed into a full
    plan, deterministically: same arguments, same plan, always. *)
let generate ?(params = default_params) ~caps ~driver ~seed () =
  let prng = Repro_util.Prng.of_int ((seed * 1_000_003) lxor 0x5b5b) in
  let steps =
    List.init params.n_steps (fun i ->
        let faults = gen_faults prng caps params in
        let op =
          if i > 0 && i mod params.checkpoint_every = 0 then Checkpoint
          else gen_op prng caps params i
        in
        { faults; op })
  in
  { driver; seed; note = ""; steps }

(* ------------------------------------------------------------------ *)
(* Labels (report lines, shrinker progress) *)

let op_label = function
  | Put (k, _) -> "put " ^ k
  | Get k -> "get " ^ k
  | Delete k -> "delete " ^ k
  | Delta (k, _) -> "delta " ^ k
  | Rmw (k, _) -> "rmw " ^ k
  | Insert_if_absent (k, _) -> "ifabsent " ^ k
  | Scan (k, n) -> Printf.sprintf "scan %s %d" k n
  | Write_batch items -> Printf.sprintf "batch[%d]" (List.length items)
  | Crash_recover -> "crash_recover"
  | Scrub -> "scrub"
  | Maintenance -> "maintenance"
  | Flush -> "flush"
  | Checkpoint -> "checkpoint"

let fault_label = function
  | F_lost_page a -> Printf.sprintf "lost_page@%d" a
  | F_flip_page a -> Printf.sprintf "flip_page@%d" a
  | F_crash_page { after; torn } ->
      Printf.sprintf "crash_page@%d%s" after (if torn then "(torn)" else "")
  | F_crash_wal { after; torn } ->
      Printf.sprintf "crash_wal@%d%s" after (if torn then "(torn)" else "")

let step_label s =
  match s.faults with
  | [] -> op_label s.op
  | fs ->
      Printf.sprintf "%s [%s]" (op_label s.op)
        (String.concat "," (List.map fault_label fs))
