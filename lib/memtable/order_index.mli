(** C0's key order: sorted leaves of at most 64 entries, each entry in a
    fixed slot, ordered by a per-leaf byte permutation and integer key
    prefixes, in one run under a separator array (see the
    implementation's header). Not thread-safe.

    The index holds one {e finger}, the snowshovel's position (§4.2): the
    entry the last {!seek_gt} or {!seek_geq} found. An ordered consumer
    that seeks past the key it last took, and pops what it found, pays
    no descent while fresh inserts land elsewhere. Readers that walk in
    key order hold their own {!cursor}. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

(** [set t key v] binds [key] to [v], replacing any previous value. *)
val set : 'a t -> string -> 'a -> unit

(** {1 The finger} *)

(** [seek_geq t key] moves the finger to the smallest entry with key >=
    [key]; false, finger unmoved, when there is none. *)
val seek_geq : 'a t -> string -> bool

(** [seek_gt t key] moves the finger to the smallest entry with key >
    [key]. No descent when [key] lies between the probe the finger last
    answered and the finger's key, or is the finger's key. *)
val seek_gt : 'a t -> string -> bool

(** The finger's key and value, after a seek that returned true. *)
val key : 'a t -> string

val value : 'a t -> 'a

(** [pop t] removes the finger's entry and moves the finger to its
    successor, as [seek_gt] of the removed key would; false when none
    follows. Raises [Invalid_argument] unless the finger's entry is
    still where the last seek or pop left it. *)
val pop : 'a t -> bool

(** [fold t init f] folds the bindings in key order. *)
val fold : 'a t -> 'b -> ('b -> string -> 'a -> 'b) -> 'b

(** {1 Cursors} *)

(** A reader's position, independent of the finger. *)
type cursor

val cursor : unit -> cursor

(** [cursor_seek_geq t c key] moves [c] to the smallest entry with key >=
    [key]; false, [c] unmoved, when there is none. *)
val cursor_seek_geq : 'a t -> cursor -> string -> bool

(** [cursor_next t c] moves [c] past the entry it holds (a descent past
    that entry's key if it left or moved); false, [c] unmoved, when none
    follows. *)
val cursor_next : 'a t -> cursor -> bool

val cursor_key : cursor -> string
val cursor_value : 'a t -> cursor -> 'a
