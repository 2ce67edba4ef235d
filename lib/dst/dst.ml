(** Deterministic simulation testing (DST) for the bLSM stack.

    One seed expands to one plan — a workload trace with interleaved
    faults — which the interpreter executes against any engine driver in
    lock-step with an in-memory oracle, checking equivalence,
    durability, OCC serializability and observability consistency at
    checkpoints. Failures shrink to minimized traces saved as JSON repro
    files.

    See DESIGN.md §9 for the plan grammar, the invariants, the
    shrinking algorithm and replay instructions. *)

module Plan = Plan
module Oracle = Oracle
module Driver = Driver
module Interp = Interp
module Shrink = Shrink
module Repro = Repro

(** [run_seed ~driver_name ~seed ()] generates the plan for
    [(driver_name, seed)] and runs it against a fresh engine.
    @raise Invalid_argument on an unknown driver name. *)
let run_seed ?params ~driver_name ~seed () =
  let caps =
    match Driver.caps_of_name driver_name with
    | Some c -> c
    | None ->
        invalid_arg
          (Printf.sprintf "Dst.run_seed: unknown driver %S" driver_name)
  in
  let plan = Plan.generate ?params ~caps ~driver:driver_name ~seed () in
  let mk = Driver.make_exn driver_name ~seed in
  (plan, Interp.run (mk ()) plan)

(** [replay plan] runs a (typically loaded-from-repro) plan against a
    fresh engine of its recorded driver. *)
let replay (plan : Plan.t) =
  let mk = Driver.make_exn plan.Plan.driver ~seed:plan.Plan.seed in
  Interp.run (mk ()) plan

(** [shrink_failing plan] minimizes a failing plan against fresh engines
    of its recorded driver; returns the (possibly unchanged) plan and
    shrink statistics. *)
let shrink_failing ?budget (plan : Plan.t) =
  let mk = Driver.make_exn plan.Plan.driver ~seed:plan.Plan.seed in
  Shrink.minimize ?budget ~mk plan
