(** DST plans: seeded workload traces with interleaved fault schedules.

    A plan is the deterministic unit of the simulation harness: one seed
    expands to one trace of operations (the full engine surface — point
    ops, deltas, RMW, scans, atomic batches, crash/recover, scrub) with
    faults from the {!Simdisk.Faults} taxonomy (torn/lost/bit-flip/
    crash-point) armed between steps.

    Invariants: the grammar is first-order data (no closures) so plans
    can be serialized ({!Repro}), diffed, and shrunk structurally
    ({!Shrink}); and generation is a pure function of [(seed, caps,
    params)] — same inputs, byte-identical plan. *)

type batch_item = B_put of string * string | B_del of string

type op =
  | Put of string * string
  | Get of string
  | Delete of string
  | Delta of string * string
  | Rmw of string * string
  | Insert_if_absent of string * string
  | Scan of string * int
  | Write_batch of batch_item list
  | Crash_recover
  | Scrub
  | Maintenance
  | Flush
  | Checkpoint  (** run the full invariant battery here *)

(** Faults armed before a step executes; page/WAL indices count from the
    moment of arming. *)
type fault =
  | F_lost_page of int
  | F_flip_page of int
  | F_crash_page of { after : int; torn : bool }
  | F_crash_wal of { after : int; torn : bool }

type step = { faults : fault list; op : op }

type t = { driver : string; seed : int; note : string; steps : step list }

(** Capability: which ops the generator may emit for a driver. [c_lsm]:
    an LSM host, which crash-recovers (so fault plans apply), scrubs and
    applies a batch as one log record; the baseline does none of these. *)
type caps = { c_lsm : bool }

type params = {
  n_steps : int;
  key_space : int;
  value_bytes : int;
  checkpoint_every : int;
  fault_rate : float;
  rot_rate : float;  (** share of faults that are lost/flip (rot) *)
}

val default_params : params

(** [generate ?params ~caps ~driver ~seed ()] expands one seed into one
    plan, deterministically.  The per-kind generators ([gen_op] and
    friends) are implementation details and no longer exported. *)
val generate :
  ?params:params -> caps:caps -> driver:string -> seed:int -> unit -> t

(** Stable labels for reports and shrink logs — debugging surface, kept
    exported for ad-hoc plan inspection from a REPL or a future
    pretty-printer. *)

[@@@lint.allow "U001"]

val op_label : op -> string
val fault_label : fault -> string
val step_label : step -> string
