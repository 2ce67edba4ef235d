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

    Rot discipline: once a lost-write or bit-flip fault has fired, the
    run enters {e rot mode}: typed corruption raises become legitimate
    outcomes (counted, never ignored silently) and counter checks are
    masked — but value comparisons still hold, because detected
    corruption must surface as an exception, never as a wrong answer.
    Outside rot mode any corruption raise is a violation.

    Determinism contract: [run] is a pure function of
    [(driver factory state, plan)] — the {!outcome.report} of two runs
    of the same plan against same-seed drivers must be byte-identical.
    The smoke suite asserts exactly that. *)

exception Stop_run of string
(** Raised internally to truncate a run (e.g. unrecoverable store); the
    truncation is recorded in the report, never silently dropped. *)

type outcome = {
  ok : bool;  (** no invariant violations *)
  violations : string list;  (** in discovery order *)
  report : string;
      (** full deterministic run report: same plan, same bytes *)
  steps_run : int;
  crashes : int;  (** crash faults that fired and were recovered *)
  rot : bool;  (** run entered rot mode *)
}

(** [run driver plan] executes every step and returns the verdict.
    Never raises for engine misbehaviour — unhandled engine exceptions
    become violations; only harness bugs escape. *)
val run : Driver.t -> Plan.t -> outcome
