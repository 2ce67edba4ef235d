(** SSTable reader: point lookups, ordered iteration, recovery reopen.

    The page index (first key starting in each data page) lives in RAM,
    as the paper assumes for index nodes (Appendix A.1); lookups cost one
    page read — one seek when uncached. Point reads go through the buffer
    manager so hot pages cache; scans and merges stream pages directly,
    leaving the pool to the read path. *)

type t

(** {1 Opening} *)

(** [open_in_ram store footer ~index] wraps a freshly built component
    whose index blob the builder still has in RAM. *)
val open_in_ram : Pagestore.Store.t -> Sst_format.footer -> index:string -> t

(** [open_from_disk store footer] reopens after recovery, re-reading the
    index pages (charged as sequential I/O). Raises {!Sst_format.Corrupt}
    if the index blob fails its checksum. *)
val open_from_disk : Pagestore.Store.t -> Sst_format.footer -> t

(** [of_meta store blob] reopens from a commit-root metadata blob. *)
val of_meta : Pagestore.Store.t -> string -> t

(** The metadata blob to store in a commit root. *)
val meta_blob : t -> string

(** Bytes of a persisted Bloom filter, read back sequentially; [None] if
    the component was built without one (§4.4.3) — or if the stored blob
    fails its checksum, masking the corruption so the caller rebuilds the
    filter from a scan. *)
val load_bloom_blob : t -> string option

(** [free t] releases the component's extents. *)
val free : t -> unit

(** {1 Metadata} *)

val footer : t -> Sst_format.footer
val timestamp : t -> int
val record_count : t -> int
val data_bytes : t -> int
val min_key : t -> string
val max_key : t -> string
val is_empty : t -> bool

(** {1 Reads} *)

(** [get t key]: point lookup through the buffer pool — one cached page
    read (one seek when cold), plus sequential continuation pages for
    records spanning page boundaries. Binary-searches the page's derived
    restart points and compares candidate keys against the pinned
    frame's bytes in place: no page copy-out, no re-CRC on pool hits
    (the frame is verified once, when loaded from the platter). *)
val get : t -> string -> Kv.Entry.t option

(** As {!get}, also yielding the record's stored LSN — recovery's replay
    filter (skip WAL records with lsn <= the durable one). *)
val get_with_lsn : t -> string -> (Kv.Entry.t * int) option

(** The seed's linear lookup (decode records from the page's first
    restart until the key passes by). Reference implementation the
    restart-point search is property-tested against. *)
val get_linear : t -> string -> Kv.Entry.t option

val get_linear_with_lsn : t -> string -> (Kv.Entry.t * int) option

(** [locate t key]: chain position of the data page a lookup for [key]
    must consult, by Eytzinger fence descent; [None] means the key
    precedes the table. *)
val locate : t -> string -> int option

(** Reference linear fence walk mirroring {!locate} (the QCheck
    oracle). *)
val locate_linear : t -> string -> int option

type iter

(** [iterator ?from t] streams records in key order (merges, scans):
    bypasses the buffer pool; the first access costs a seek, the rest
    bandwidth. *)
val iterator : ?from:string -> t -> iter

(** [cached_iterator ?from t] iterates through the buffer pool. The
    current page stays pinned between pulls; call {!iter_close} if the
    iterator is abandoned before exhaustion. *)
val cached_iterator : ?from:string -> t -> iter

(** Release an iterator's resources: a cached iterator's pinned frame, a
    streaming iterator's page buffer (reused by the component's next
    streaming iterator). Exhausted iterators release themselves; closing
    is idempotent. *)
val iter_close : iter -> unit

val iter_next : iter -> (string * Kv.Entry.t) option

(** As {!iter_next}, also yielding the record's stored LSN. *)
val iter_next_full : iter -> (string * Kv.Entry.t * int) option

(** [iter_next_framed it fr] frames the next record into [fr] ([false]
    at the end): validated as {!iter_next_full} validates it and copied
    out of the stream as its wire bytes, with only the key string built.
    [fr] stays valid however far [it] moves on. *)
val iter_next_framed : iter -> Sst_format.Framed.t -> bool

(** {1 Scrubbing} *)

(** [verify t] checksums every data page and the index/Bloom blobs,
    returning [(what, page)] mismatches (empty: clean). Streams directly
    from the platter with merge-scan charging; never raises. *)
val verify : t -> (string * int) list
