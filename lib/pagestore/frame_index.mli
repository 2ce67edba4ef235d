(** The buffer pool's page table: which frame holds a page.

    Open addressing over int arrays sized to the pool (at least twice
    its capacity), so a lookup hashes no polymorphic value and
    allocates nothing. Page ids are non-negative. *)

type t

(** [create ~capacity] is an empty table for at most [capacity] pages. *)
val create : capacity:int -> t

(** [find t id] is the slot of the frame holding page [id], or [-1]. *)
val find : t -> int -> int

(** [add t id slot] maps [id] to [slot], replacing any mapping.
    @raise Failure when [t] already holds [capacity] pages. *)
val add : t -> int -> int -> unit

(** [remove t id] drops [id]'s mapping, if any. *)
val remove : t -> int -> unit

(** [clear t] drops every mapping. *)
val clear : t -> unit

(** Mapped pages. *)
val length : t -> int

(** Every [(page id, slot)] mapping, by page id. *)
val bindings : t -> (int * int) list
