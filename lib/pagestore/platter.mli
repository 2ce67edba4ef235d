(** The simulated disk platter: durable page payloads. Pages written here
    survive a simulated crash; the buffer manager's dirty frames do not.
    Absent pages read as zeroes. Pages are kept in an arena of fixed-size
    chunks addressed by page id; a chunk is released when its last page
    is dropped. *)

type t

val create : page_size:int -> t
val page_size : t -> int

(** [read t id dst] copies page [id] into [dst] (zero-fills if absent). *)
val read : t -> Page.id -> Bytes.t -> unit

(** [read_checked t id dst ~check] copies page [id] into [dst] through
    [check], so the page is checked as it is copied and read once; an
    absent page is zero-filled and checked in place. Raises what [check]
    raises, with [dst] holding the stored bytes. *)
val read_checked : t -> Page.id -> Bytes.t -> check:Page.check -> unit

(** [write t id src] durably stores a copy of [src] as page [id]. *)
val write : t -> Page.id -> Bytes.t -> unit

(** [drop t id] discards a page (region freed); it reads as zeroes
    afterwards. *)
val drop : t -> Page.id -> unit

(** [corrupt t id ~byte ~bit] flips one stored bit — simulated bit rot;
    false when the page is absent (never written, or dropped). *)
val corrupt : t -> Page.id -> byte:int -> bit:int -> bool

val stored_bytes : t -> int
