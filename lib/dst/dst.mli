(** Deterministic simulation testing (DST) for the bLSM stack.

    One seed expands to one plan — a workload trace with interleaved
    faults — which the interpreter executes against any engine driver in
    lock-step with an in-memory oracle, checking equivalence,
    durability and observability consistency at checkpoints.  Failures
    shrink to minimized traces saved as JSON repro files.

    The harness-wide invariant, asserted by [@dst-smoke] on every
    [dune runtest]: everything is a function of the seed — two calls of
    {!run_seed} with the same arguments produce byte-identical
    {!Interp.outcome.report}s.

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
val run_seed :
  ?params:Plan.params ->
  driver_name:string ->
  seed:int ->
  unit ->
  Plan.t * Interp.outcome

(** [replay plan] runs a (typically loaded-from-repro) plan against a
    fresh engine of its recorded driver. *)
val replay : Plan.t -> Interp.outcome

(** [shrink_failing plan] minimizes a failing plan against fresh engines
    of its recorded driver; returns the (possibly unchanged) plan and
    shrink statistics. *)
val shrink_failing : ?budget:int -> Plan.t -> Plan.t * Shrink.stats

(** [digest ~driver_name ~seeds] is the hex MD5 of the concatenated
    per-seed MD5s of each seed's repro JSON followed by its run report,
    in [seeds] order: equal digests mean byte-identical runs. *)
val digest : driver_name:string -> seeds:int list -> string
