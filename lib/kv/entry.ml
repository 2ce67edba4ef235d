(** Record states flowing through every tree component.

    bLSM distinguishes *base records* from *deltas* so that reads can
    terminate at the first base record found (§3.1.1), and uses tombstones
    for deletes in append-only components. A delta is an application-defined
    patch; bLSM composes pending deltas until a base record (or the bottom
    of the tree) is reached and resolves them with the store's resolver. *)

type t =
  | Base of string  (** a full value; reads stop here *)
  | Delta of string list  (** pending patches, oldest first *)
  | Tombstone  (** deletion marker *)

(** [resolver ~base delta] applies one delta. [base = None] means the
    record did not exist (delta against nothing). The default resolver
    treats deltas as string appends. *)
type resolver = base:string option -> string -> string

let append_resolver ~base delta =
  match base with None -> delta | Some b -> b ^ delta

(** [resolve r ~base deltas] folds [deltas] (oldest first) over [base]. *)
let resolve (r : resolver) ~base deltas =
  match deltas with
  | [] -> base
  | _ -> List.fold_left (fun acc d -> Some (r ~base:acc d)) base deltas

(** [value r e] is the user-visible value of a looked-up record state:
    absent and deleted are [None]; a delta chain with no base record
    below it resolves against nothing. *)
let value (r : resolver) = function
  | None | Some Tombstone -> None
  | Some (Base v) -> Some v
  | Some (Delta ds) -> resolve r ~base:None ds

(** [merge r ~newer ~older] combines two states of one record where
    [newer] shadows [older]. Updates to the same tuple are placed in tree
    levels consistent with their ordering (§3.1.1), so during a merge the
    component closer to C0 is always [newer]. *)
let merge (r : resolver) ~newer ~older =
  match (newer, older) with
  | (Base _ | Tombstone), _ -> newer
  | Delta ds, Base b -> (
      match resolve r ~base:(Some b) ds with
      | Some v -> Base v
      | None -> assert false)
  | Delta ds, Delta older_ds -> Delta (older_ds @ ds)
  | Delta ds, Tombstone -> (
      match resolve r ~base:None ds with
      | Some v -> Base v
      | None -> assert false)

(** [payload_bytes e] is the user-data size of [e]; memtable accounting and
    write-amplification arithmetic both use it. *)
let payload_bytes = function
  | Base v -> String.length v
  | Delta ds -> List.fold_left (fun a d -> a + String.length d) 0 ds
  | Tombstone -> 0

let is_base = function Base _ -> true | Delta _ | Tombstone -> false

(** {1 Wire format}

    tag byte, then: Base = varint len + bytes; Delta = varint count then
    per-delta varint len + bytes; Tombstone = nothing. *)

(* [varint length][bytes] at [pos]; the position after it. *)
let write_string b pos v =
  let n = String.length v in
  let pos = Repro_util.Varint.set b pos n in
  Bytes.blit_string v 0 b pos n;
  pos + n

(** [write b pos e] writes [e]'s wire form into [b] at [pos] and returns
    the position after it; [b] must have [encoded_size e] bytes of room
    there. The one entry encoder: SSTable records and WAL batches are
    both sized up front and written in place. *)
let write b pos e =
  match e with
  | Base v ->
      Bytes.set b pos '\000';
      write_string b (pos + 1) v
  | Tombstone ->
      Bytes.set b pos '\001';
      pos + 1
  | Delta ds ->
      Bytes.set b pos '\002';
      List.fold_left
        (fun pos d -> write_string b pos d)
        (Repro_util.Varint.set b (pos + 1) (List.length ds))
        ds

(** [decode s pos] parses an entry at [pos], returning [(entry, next_pos)]. *)
let decode s pos =
  match s.[pos] with
  | '\000' ->
      let len, pos = Repro_util.Varint.read s (pos + 1) in
      (Base (String.sub s pos len), pos + len)
  | '\001' -> (Tombstone, pos + 1)
  | '\002' ->
      let n, pos = Repro_util.Varint.read s (pos + 1) in
      let rec go acc pos n =
        if n = 0 then (Delta (List.rev acc), pos)
        else
          let len, pos = Repro_util.Varint.read s pos in
          go (String.sub s pos len :: acc) (pos + len) (n - 1)
      in
      go [] pos n
  | c -> invalid_arg (Printf.sprintf "Entry.decode: bad tag %d" (Char.code c))

(** [decode_exact s pos ~stop] parses the entry that fills [pos, stop)
    exactly, materializing only its payload strings. Raises
    [Invalid_argument] on a bad tag, a length that overruns [stop], or
    bytes left over before [stop] — a malformed frame, never a guess. *)
let decode_exact s pos ~stop =
  let open Repro_util in
  if pos >= stop || stop > String.length s then
    invalid_arg "Entry.decode_exact: empty frame";
  match String.unsafe_get s pos with
  | '\000' ->
      let len = Varint.read_within s (pos + 1) ~stop in
      let p = pos + 1 + Varint.size len in
      if len <> stop - p then invalid_arg "Entry.decode_exact: value length";
      Base (String.sub s p len)
  | '\001' ->
      if pos + 1 <> stop then invalid_arg "Entry.decode_exact: trailing bytes";
      Tombstone
  | '\002' ->
      let n = Varint.read_within s (pos + 1) ~stop in
      let rec go acc p n =
        if n = 0 then
          if p <> stop then invalid_arg "Entry.decode_exact: trailing bytes"
          else Delta (List.rev acc)
        else
          let len = Varint.read_within s p ~stop in
          let q = p + Varint.size len in
          if len > stop - q then invalid_arg "Entry.decode_exact: delta length";
          go (String.sub s q len :: acc) (q + len) (n - 1)
      in
      go [] (pos + 1 + Varint.size n) n
  | c ->
      invalid_arg (Printf.sprintf "Entry.decode_exact: bad tag %d" (Char.code c))

(** [check_exact s pos ~stop] makes every check of {!decode_exact} and
    builds nothing: a record passed on as its stored bytes is validated
    exactly as a decoded one would be. Raises [Invalid_argument] where
    {!decode_exact} would. *)
let check_exact s pos ~stop =
  let open Repro_util in
  if pos >= stop || stop > String.length s then
    invalid_arg "Entry.check_exact: empty frame";
  match String.unsafe_get s pos with
  | '\000' ->
      let len = Varint.read_within s (pos + 1) ~stop in
      if len <> stop - (pos + 1 + Varint.size len) then
        invalid_arg "Entry.check_exact: value length"
  | '\001' ->
      if pos + 1 <> stop then invalid_arg "Entry.check_exact: trailing bytes"
  | '\002' ->
      let n = Varint.read_within s (pos + 1) ~stop in
      let p = ref (pos + 1 + Varint.size n) in
      for _ = 1 to n do
        let len = Varint.read_within s !p ~stop in
        let q = !p + Varint.size len in
        if len > stop - q then invalid_arg "Entry.check_exact: delta length";
        p := q + len
      done;
      if !p <> stop then invalid_arg "Entry.check_exact: trailing bytes"
  | c ->
      invalid_arg (Printf.sprintf "Entry.check_exact: bad tag %d" (Char.code c))

let encoded_size e =
  let open Repro_util in
  match e with
  | Base v -> 1 + Varint.size (String.length v) + String.length v
  | Tombstone -> 1
  | Delta ds ->
      1
      + Varint.size (List.length ds)
      + List.fold_left
          (fun a d -> a + Varint.size (String.length d) + String.length d)
          0 ds

let pp ppf = function
  | Base v -> Fmt.pf ppf "Base(%d bytes)" (String.length v)
  | Delta ds -> Fmt.pf ppf "Delta(%d)" (List.length ds)
  | Tombstone -> Fmt.string ppf "Tombstone"

let equal a b =
  match (a, b) with
  | Base x, Base y -> String.equal x y
  | Tombstone, Tombstone -> true
  | Delta x, Delta y -> List.length x = List.length y && List.for_all2 String.equal x y
  | _ -> false
