(** Pull-based metrics registry.

    Subsystems keep their existing cheap mutable stat records as the
    hot-path representation and register *closures* over them; the
    registry samples every metric only when a dump is requested. This is
    the "thin compatibility shim" pattern: the engine shell's counters
    ([Lsm_shell.stats], behind both [Tree.stats] and [Policy_tree.stats],
    registered by [Lsm_shell.register_metrics] under each engine's
    prefix), each engine's own counters, [Simdisk.Disk] counters and
    [Faults] counters stay untouched, and the registry provides the
    single named namespace and the single pair of writers (text and
    JSON) over all of them.

    Dump output is sorted by metric name, so it is deterministic and
    diff-friendly. Histograms expand into
    [.count]/[.mean]/[.p50]/[.p99]/[.p999]/[.max] sub-keys. *)

type t

val create : unit -> t

(** [counter t name ~help f] registers a monotonic integer read through
    [f]. Raises [Invalid_argument] on a duplicate [name]. *)
val counter : t -> string -> help:string -> (unit -> int) -> unit

(** [gauge t name ~help f] registers a point-in-time float. *)
val gauge : t -> string -> help:string -> (unit -> float) -> unit

(** [histogram t name ~help h] registers a live histogram; dumps sample
    its summary statistics at dump time. *)
val histogram : t -> string -> help:string -> Repro_util.Histogram.t -> unit

(** Registered metric names (sorted). *)
val names : t -> string list
[@@lint.allow "U001"] (* introspection surface beside [dump] *)

(** [dump ?prefix t] renders ["name value\n"] lines, sorted by name,
    restricted to names starting with [prefix] when given. *)
val dump : ?prefix:string -> t -> string

(** [dump_json ?prefix t] renders one flat JSON object keyed by metric
    name (histograms become nested objects). *)
val dump_json : ?prefix:string -> t -> string
