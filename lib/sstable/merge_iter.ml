(** K-way merging iterator with age-based shadowing.

    Combines ordered record streams from multiple tree components. Lower
    priority = fresher component; when several components hold the same
    key, the fresher state shadows or composes with the older one exactly
    as the read path would ({!Kv.Entry.merge}). At the bottom level
    ([drop_tombstones]) tombstones are elided and orphan deltas are
    resolved into base records, so the largest component contains only
    base records — the invariant behind one-seek reads (§3.1.1).

    The scan and merge hot path allocates nothing per group beyond what
    the sources pull: the sources sit in an array sorted by priority, one
    loop finds the freshest source holding the smallest key, the fold
    visits only the sources after it, and a group held by one source
    passes that source's pulled option through unchanged. *)

type record = string * Kv.Entry.t * int

type source = {
  pull : unit -> record option;
  mutable cur : record option;
}

type t = {
  resolver : Kv.Entry.resolver;
  drop_tombstones : bool;
  sources : source array; (* sorted by priority, freshest first *)
}

let create ~resolver ~drop_tombstones inputs =
  (* Each source's first pull happens in input order, before the sort. *)
  let sources =
    Array.of_list
      (List.map (fun (priority, pull) -> (priority, { pull; cur = pull () })) inputs)
  in
  Array.stable_sort (fun (a, _) (b, _) -> Int.compare a b) sources;
  { resolver; drop_tombstones; sources = Array.map snd sources }

type group = Record of string * Kv.Entry.t * int | Elided | End

(* What [fold] returns for a group the bottom level drops; told apart
   from every pulled or built record by physical identity. *)
let elided : record option = Some ("", Kv.Entry.Tombstone, 0)

(* The bottom level keeps base records only. *)
let bottom t r =
  match r with
  | Some (_, Kv.Entry.Base _, _) | None -> r
  | Some (_, Kv.Entry.Tombstone, _) -> elided
  | Some (key, Kv.Entry.Delta ds, lsn) -> (
      (* No base below us: the delta stream resolves against nothing. *)
      match Kv.Entry.resolve t.resolver ~base:None ds with
      | Some v -> Some (key, Kv.Entry.Base v, lsn)
      | None -> elided)

(** [fold t] folds the next key group across every source, freshest
    first, pulling each contributing source once in priority order: the
    surviving record (with the newest contributing LSN), {!elided}, or
    [None] at the end of every input. *)
let fold t =
  let srcs = t.sources in
  let n = Array.length srcs in
  let first = ref (-1) and least = ref "" in
  for i = 0 to n - 1 do
    match (Array.unsafe_get srcs i).cur with
    | Some (k, _, _) when !first < 0 || String.compare k !least < 0 ->
        first := i;
        least := k
    | Some _ | None -> ()
  done;
  if !first < 0 then None
  else begin
    let s = Array.unsafe_get srcs !first in
    let r = s.cur in
    s.cur <- s.pull ();
    match r with
    | None -> None (* unreachable: [first] holds a record *)
    | Some (key, e, l) ->
        (* Sources before [first] hold a larger key or none. *)
        let entry = ref e and lsn = ref l and shared = ref false in
        for i = !first + 1 to n - 1 do
          let s = Array.unsafe_get srcs i in
          match s.cur with
          | Some (k, e, l) when String.equal k key ->
              shared := true;
              lsn := Int.max !lsn l;
              entry := Kv.Entry.merge t.resolver ~newer:!entry ~older:e;
              s.cur <- s.pull ()
          | Some _ | None -> ()
        done;
        let r = if !shared then Some (key, !entry, !lsn) else r in
        if t.drop_tombstones then bottom t r else r
  end

(** [next_group t] folds the next key group: the surviving record, or
    [Elided] when the bottom level drops it. *)
let next_group t =
  let r = fold t in
  if r == elided then Elided
  else match r with Some (k, e, lsn) -> Record (k, e, lsn) | None -> End

(** [next t] produces the next surviving record in key order. *)
let rec next t =
  let r = fold t in
  if r == elided then next t else r

(** [drain t f] pulls every record through [f] (bulk builds, tests). *)
let drain t f =
  let rec go () =
    match next t with
    | None -> ()
    | Some (k, e, lsn) ->
        f k e lsn;
        go ()
  in
  go ()
