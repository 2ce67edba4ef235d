(** Deterministic skip list: the ordered map behind C0.

    Supports the cheap successor queries the snowshovel cursor needs
    ("smallest key >= cursor", §4.2) in O(log n). Levels are drawn from
    the repository PRNG, so runs are reproducible. Not thread-safe. *)

type 'a t

val create : ?seed:int -> unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val find : 'a t -> string -> 'a option

(** [set t key v] binds unconditionally, in one descent. *)
val set : 'a t -> string -> 'a -> unit

(** [remove_succ t key] deletes [key]'s binding, if any, and returns the
    smallest binding with key > [key] — one descent for both. *)
val remove_succ : 'a t -> string -> (string * 'a) option

(** [succ_geq t key] is the smallest binding with key >= [key]. *)
val succ_geq : 'a t -> string -> (string * 'a) option

(** [succ_gt t key] is the smallest binding with key > [key]. *)
val succ_gt : 'a t -> string -> (string * 'a) option

(** [fold t init f] folds the bindings in key order. *)
val fold : 'a t -> 'b -> ('b -> string -> 'a -> 'b) -> 'b
