(** The merge executor: one step/seal/abandon loop behind every merge.

    Each merge pulls from one sorted {!input} in key order and streams
    output pages through an {!Sstable.Builder} plus a Bloom filter,
    doing at most [quota] input bytes per {!step} — the "smooth"
    progress property the schedulers require (§4.1). Progress is input
    bytes read, whatever the input drops (shadowed versions, tombstones
    elided at the bottom). {!Tree}'s C0:C1 and C1':C2 merges and
    {!Policy_tree}'s compactions and flushes all run here; the hosts
    only choose the input, the Bloom sizing and the output shape.
    {!Lsm_shell.start_merge} creates each one and {!Lsm_shell.install}
    finishes it; at a crash the shell calls one {!abandon} per merge in
    flight. *)

type progress = {
  bytes_read : int;  (** input bytes consumed so far *)
  bytes_total : int;  (** current estimate of total input bytes *)
}

type outcome = [ `Done | `More ]

(** One key group of an input: its surviving record, decoded
    ([Record], with the newest contributing LSN) or held as the stored
    bytes of an unchanged input record ([Framed], valid until the next
    pull); a group the bottom level drops ([Elided]); or the end of the
    input. *)
type group =
  | Record of string * Kv.Entry.t * int
  | Framed of Sstable.Sst_format.Framed.t
  | Elided
  | End

(** One sorted input. [pull ~output_bytes] folds the next key group in
    key order ([output_bytes]: what the merge has written so far, for a
    source that ends its run at an output cap) and advances [meter] by
    the input bytes it read; [total] is the current estimate of the
    input's total bytes. The executor checks [meter] once per group, so
    a step reads at most its quota plus one group. *)
type input = {
  pull : output_bytes:int -> group;
  meter : int ref;
  total : unit -> int;
}

(** What a merge writes.
    - [Level]: exactly one component, sealed even when empty — a level
      slot ({!Tree}).
    - [Runs split]: key-ordered runs, a new one begun once the open run
      holds [split] bytes ([0]: no limit); an empty run is never
      sealed ({!Policy_tree}). *)
type output = Level | Runs of int

type t

(** [create ~config ~store ~label ~args ~input ~bloom_items ~output
    ~stamp] starts a merge. Each output gets a Bloom filter sized for
    [bloom_items] keys (when {!Config.bloom_enabled}) and the timestamp
    [stamp ()] drawn as it is sealed. Trace events are named
    [label ^ ".start"] (carrying [args]), [".quantum"], [".commit"] and
    [".abort"]. *)
val create :
  config:Config.t ->
  store:Pagestore.Store.t ->
  label:string ->
  args:(string * Obs.Trace.arg) list ->
  input:input ->
  bloom_items:int ->
  output:output ->
  stamp:(unit -> int) ->
  t

(** [step m ~quota] consumes up to [quota] input bytes. *)
val step : t -> quota:int -> outcome

val progress : t -> progress

(** inprogress = bytes read / (|C'_{i-1}| + |C_i|), clamped (§4.1). *)
val inprogress : t -> float

(** [finish m] seals the open output and returns every output as a
    mounted component, in key order. The caller installs them and
    commits; until [finish] returns, {!abandon} still owns them. *)
val finish : t -> Component.t list

(** [abandon m] frees the open output and every output already sealed
    (crash rollback). *)
val abandon : t -> unit

(** {1 Inputs} *)

(** [merge_input ~resolver ~drop_tombstones ~total pulls] merges
    [pulls] (freshest first) through a {!Sstable.Merge_iter}, metering
    every record pulled from them. With [drop_tombstones] (the bottom
    of the data) tombstones are elided and orphan deltas resolve to
    base records — the all-base invariant behind one-seek reads
    (§3.1.1). *)
val merge_input :
  resolver:Kv.Entry.resolver ->
  drop_tombstones:bool ->
  total:int ->
  (unit -> (string * Kv.Entry.t * int) option) list ->
  input

(** The snowshovel shadow: records a live C0:C1 run has consumed from
    C0 but not yet committed, kept readable until the merge commits.
    The run consumes keys in strictly increasing order, so the shadow is
    an append-only sorted array searched by bisection. *)
module Shadow : sig
  type t

  (** [create ~capacity] is an empty shadow with room for [capacity]
      records before it grows. *)
  val create : capacity:int -> t

  (** [append t (key, entry, lsn)] adds a record.
      @raise Invalid_argument unless [key] is greater than every key
      already held. *)
  val append : t -> string * Kv.Entry.t * int -> unit

  (** [find t key] is [key]'s record (key, entry, newest LSN), if held:
      a probe of a hash index over the records, which catches up with
      the appends made since the last [find] when it runs, so appends
      that no read follows hash nothing. *)
  val find : t -> string -> (string * Kv.Entry.t * int) option

  (** [find_sorted t key] is {!find} by bisection over the sorted
      records: the reference its property test holds it to. *)
  val find_sorted : t -> string -> (string * Kv.Entry.t * int) option

  (** [pull_from t ~from] streams the records with key >= [from] in key
      order, including those appended after the pull opened (a scan
      cursor living across merge steps). *)
  val pull_from : t -> from:string -> unit -> (string * Kv.Entry.t * int) option
end

(** The C0 side of a C0:C1 merge. With snowshoveling ({!Live}) the
    source re-queries the live memtable on every record, so inserts
    landing ahead of the cursor join the current run (§4.2); consumed
    records stay readable in [shadow] until the merge commits. The gear
    scheduler instead merges a frozen C0' snapshot ({!Frozen}),
    discarded wholesale at completion. *)
type c0_source =
  | Live of {
      mem : Memtable.t;
      shadow : Shadow.t;  (** consumed-but-uncommitted records *)
    }
  | Frozen of Memtable.t

(** [c0_input ~resolver ~source ~c1 ~run_cap] merges [source] with the
    old C1. A C1 record no C0 record shadows is passed on [Framed], as
    its stored bytes; only keys both inputs hold are decoded. Once C1 is drained the run ends early when the output holds
    [run_cap] bytes. Its total is, for {!Live}, bytes read plus what is
    left in C0 and C1 now; for {!Frozen}, |C0'| + |C1| at the start. *)
val c0_input :
  resolver:Kv.Entry.resolver ->
  source:c0_source ->
  c1:Component.t option ->
  run_cap:int ->
  input
