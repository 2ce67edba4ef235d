(** Engine drivers: the uniform record the DST interpreter executes
    plans against.

    A driver wraps one engine instance — bLSM {!Blsm.Tree} under any
    scheduler, {!Blsm.Partitioned}, the compaction-policy trees and the
    B-Tree and LevelDB baselines — behind first-class fields for the
    whole exercised surface, with optional hooks ([option] fields)
    for capabilities that vary by engine.

    Invariant: constructors are [unit -> t] factories, and {e all}
    nondeterminism is derived from the plan seed (store contents, tree
    config, fault PRNG).  The shrinker relies on this to rebuild a
    fresh, byte-identical engine for every candidate plan. *)

type t = {
  name : string;
  caps : Plan.caps;  (** which plan ops the generator may emit *)
  get : string -> string option;
  put : string -> string -> unit;
  delete : string -> unit;
  apply_delta : string -> string -> unit;
  rmw : string -> string -> unit;
  insert_if_absent : string -> string -> bool;
  scan : string -> int -> (string * string) list;
  write_batch : (string * Kv.Entry.t) list -> unit;
  maintenance : unit -> unit;
      (** advance background work (merges, pacing) one quantum *)
  flush : (unit -> unit) option;
  crash_recover : (unit -> unit) option;
      (** drop unsynced state and rebuild from the WAL, as a real crash
          would *)
  scrub : (unit -> Blsm.Lsm_shell.scrub_report list) option;
      (** full-tree checksum sweep, one report per engine shell *)
  counts : (unit -> Blsm.Lsm_shell.stats list) option;
      (** the engine shells' live op counters; the interpreter keeps its
          own mirror and the two must agree at every checkpoint *)
  mask_scans : bool;
      (** engine cannot serve consistent scans mid-merge; the
          interpreter skips scan equivalence for it *)
  last_stall : (unit -> Blsm.Lsm_shell.stall_breakdown) option;
  metrics_dump : unit -> string;
  faults : Simdisk.Faults.t;  (** fault plan armed on the store *)
}

(** [mk_store ~fault_seed ()] builds a seeded simulated store and the
    fault plan threaded through it. *)
val mk_store : fault_seed:int -> unit -> Pagestore.Store.t * Simdisk.Faults.t

(** Small-memtable config so short plans still exercise merges. *)
val small_config :
  ?scheduler:Blsm.Config.scheduler_kind -> int -> Blsm.Config.t

(** The RMW update function every driver and the oracle share:
    append-with-separator, so lost updates are visible in the value. *)
val append_rmw : string -> string option -> string

(** The engine factories exercised by the harness.  Only {!make_exn}'s
    string-keyed front end is called today; the typed factories below
    stay exported so an embedder (or a targeted test) can construct one
    engine without going through the name table. *)

[@@@lint.allow "U001"]

val blsm :
  ?scheduler:Blsm.Config.scheduler_kind -> name:string -> seed:int -> unit -> t

val partitioned : seed:int -> unit -> t

(** {!Blsm.Policy_tree.leveldb_pconfig} at DST scale, with the full
    policy-tree capability surface (crash, scrub, batch, counters,
    stall attribution). *)
val leveldb : seed:int -> unit -> t

val btree : seed:int -> unit -> t

(** The policy-tree shape shared by every [policy-*] driver. *)
val small_pconfig : Blsm.Policy_tree.pconfig

(** [policy_tree ~policy_name ~seed ()] wraps {!Blsm.Policy_tree} around
    the design point [policy_name] of {!Blsm.Compaction_policy.named}. *)
val policy_tree : policy_name:string -> seed:int -> unit -> t

(** The [policy-<name>] driver variants, one per compaction policy. *)
val policy_names : string list

(** All driver names the smoke/soak sweeps iterate, in a fixed order so
    reports are deterministic. *)
val all_names : string list

val caps_of_name : string -> Plan.caps option
val make : string -> seed:int -> (unit -> t) option

(** [make_exn name ~seed] — [Invalid_argument] on unknown names. *)
val make_exn : string -> seed:int -> unit -> t
