(** Incremental SSTable builder.

    Callers hand records one at a time in strictly increasing key order;
    pages stream to disk as they fill, so I/O costs accrue continuously —
    the property the merge schedulers' progress estimators rely on.
    Components grow by appending fixed-size extents from the region
    allocator, keeping every run of pages contiguous. *)

type t

(** [create ?format ?extent_pages store] starts an empty component.
    [format] names the one page layout and changes nothing.
    [extent_pages] is the contiguous allocation unit (default 1024). *)
val create :
  ?format:Sst_format.version -> ?extent_pages:int -> Pagestore.Store.t -> t

(** [add t ?lsn key entry] appends one record; [lsn] (default 0) is the
    newest WAL sequence number folded into it, used by recovery to skip
    already-durable log records. Keys must be strictly increasing;
    raises [Invalid_argument] otherwise. *)
val add : ?lsn:int -> t -> string -> Kv.Entry.t -> unit

(** [add_framed t fr] appends the record held in [fr] as its stored
    bytes — the merge passthrough of an unchanged input record. The
    output bytes are those {!add} writes for the same key, LSN and
    entry. Keys must be strictly increasing. *)
val add_framed : t -> Sst_format.Framed.t -> unit

(** User-data bytes written so far (merge progress accounting). *)
val data_bytes : t -> int

(** [finish t ~timestamp ?bloom_blob] seals the component: flushes the
    final data page, writes index pages (plus an optionally persisted
    Bloom filter, §4.4.3's trade-off) and the footer, trims the unused
    extent tail, and returns the footer. Call {!index_blob} afterwards. *)
val finish : ?bloom_blob:string -> t -> timestamp:int -> Sst_format.footer

(** The serialized page index; complete only after {!finish}. *)
val index_blob : t -> string

(** [abandon t] frees everything written so far (merge cancelled). *)
val abandon : t -> unit
