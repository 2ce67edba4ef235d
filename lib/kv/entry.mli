(** Record states flowing through every tree component.

    bLSM distinguishes *base records* from *deltas* so reads can stop at
    the first base record (§3.1.1), and uses tombstones for deletes in
    append-only components. Deltas compose until a base record (or the
    bottom of the tree) is reached, then resolve via the store's
    resolver. *)

type t =
  | Base of string  (** a full value; reads stop here *)
  | Delta of string list  (** pending patches, oldest first *)
  | Tombstone  (** deletion marker *)

(** [resolver ~base delta] applies one delta; [base = None] means the
    record did not exist. Must be insensitive to how the delta chain was
    batched (associativity of {!merge} relies on it). *)
type resolver = base:string option -> string -> string

(** The default resolver: deltas are string appends. *)
val append_resolver : resolver

(** [resolve r ~base deltas] folds [deltas] (oldest first) over [base]. *)
val resolve : resolver -> base:string option -> string list -> string option

(** [value r e] is the user-visible value of a looked-up record state:
    [None] when absent or deleted; deltas with no base below them
    resolve against nothing. *)
val value : resolver -> t option -> string option

(** [merge r ~newer ~older] combines two states of one record where
    [newer] shadows [older] — during merges the component closer to C0 is
    always [newer] (§3.1.1). Base/Tombstone absorb; Delta composes. *)
val merge : resolver -> newer:t -> older:t -> t

(** User-data size (memtable accounting, write-amp arithmetic). *)
val payload_bytes : t -> int

val is_base : t -> bool
[@@lint.allow "U001"] (* predicate completeness beside [payload_bytes] *)

(** {1 Wire format} — tag byte + varint-framed payloads. *)

(** [write b pos e] writes [e] into [b] at [pos], which must have
    [encoded_size e] bytes of room; returns the position after it. *)
val write : Bytes.t -> int -> t -> int

(** [decode s pos] parses an entry at [pos]: [(entry, next_pos)]. *)
val decode : string -> int -> t * int

(** [decode_exact s pos ~stop] parses the entry filling [pos, stop)
    exactly, in place. Raises [Invalid_argument] on a bad tag, an
    overrunning length or trailing bytes. *)
val decode_exact : string -> int -> stop:int -> t

(** [check_exact s pos ~stop] validates the entry filling [pos, stop)
    exactly as {!decode_exact} does, building no string. Raises
    [Invalid_argument] where {!decode_exact} would. *)
val check_exact : string -> int -> stop:int -> unit

val encoded_size : t -> int

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
