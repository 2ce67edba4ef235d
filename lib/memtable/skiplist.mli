(** Deterministic skip list: the ordered map behind C0.

    Supports the cheap successor queries the snowshovel cursor needs
    ("smallest key >= cursor", §4.2) in O(log n). Levels are drawn from
    the repository PRNG, so runs are reproducible. Not thread-safe. *)

type 'a t

val create : ?seed:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val find : 'a t -> string -> 'a option

(** [update t key f] inserts or modifies in one descent: [f None] for a
    fresh key, [f (Some old)] to replace. Returns the previous value.
    [f] must not modify [t]. *)
val update : 'a t -> string -> ('a option -> 'a) -> 'a option

(** [set t key v] binds unconditionally. *)
val set : 'a t -> string -> 'a -> unit

(** [remove t key] deletes the binding, returning the removed value. *)
val remove : 'a t -> string -> 'a option

val min_binding : 'a t -> (string * 'a) option

(** [succ_geq t key] is the smallest binding with key >= [key]. *)
val succ_geq : 'a t -> string -> (string * 'a) option

(** [succ_gt t key] is the smallest binding with key > [key]. *)
val succ_gt : 'a t -> string -> (string * 'a) option

(** [iter_from t key f] applies [f] to bindings with key >= [key], in
    order, while [f] returns [true]. *)
val iter_from : 'a t -> string -> (string -> 'a -> bool) -> unit

val iter : 'a t -> (string -> 'a -> unit) -> unit
val fold : 'a t -> 'b -> ('b -> string -> 'a -> 'b) -> 'b
val to_list : 'a t -> (string * 'a) list
