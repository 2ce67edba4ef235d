(** An on-disk tree component: an SSTable plus its Bloom filter.

    One filter guards each on-disk component (C1, C1', C2); it is created
    by the merge that creates the component and dies with it (§4.4.3).
    Filters are not persisted: after a crash they are rebuilt by scanning
    the component once. *)

type t = {
  sst : Sstable.Reader.t;
  bloom : Bloom.t option;
  mutable bloom_negative : int;  (** lookups the filter answered for free *)
  mutable bloom_false_positive : int;
}

val of_sst : ?bloom:Bloom.t -> Sstable.Reader.t -> t

(** [build_bloom ?kind ~bits_per_key sst] recovers a component's filter:
    the persisted copy when one exists and decodes (checksum and header
    both valid), else a fresh filter populated by scanning the component.
    [kind] names the one filter layout and changes nothing. [None] when
    [bits_per_key = 0]. *)
val build_bloom :
  ?kind:Bloom.kind -> bits_per_key:int -> Sstable.Reader.t -> Bloom.t option

val data_bytes : t -> int
val record_count : t -> int
val timestamp : t -> int

(** [get t key]: point lookup; consults the Bloom filter first so lookups
    of absent keys usually cost zero I/O. *)
val get : t -> string -> Kv.Entry.t option

(** [maybe_contains t key] probes the filter alone: [false] means [key]
    is surely absent; may return false positives. It reads no page and
    counts nothing, so timing the filter on its own does not move
    [bloom_negative]; {!get} is the counted read. *)
val maybe_contains : t -> string -> bool
[@@lint.allow "U001"] (* perfbench's replay times the filter through it *)

(** Streaming iterator (merges, scans): bypasses the buffer pool. *)
val iterator : ?from:string -> t -> Sstable.Reader.iter

(** [free t] releases the component's extents (superseded by a merge). *)
val free : t -> unit

(** Metadata blob for the engine's commit root. *)
val meta_blob : t -> string
