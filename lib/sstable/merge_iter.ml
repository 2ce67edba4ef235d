(** K-way merging iterator with age-based shadowing.

    Combines ordered record streams from multiple tree components. Lower
    priority = fresher component; when several components hold the same
    key, the fresher state shadows or composes with the older one exactly
    as the read path would ({!Kv.Entry.merge}). At the bottom level
    ([drop_tombstones]) tombstones are elided and orphan deltas are
    resolved into base records, so the largest component contains only
    base records — the invariant behind one-seek reads (§3.1.1). *)

type source = {
  priority : int;
  pull : unit -> (string * Kv.Entry.t * int) option;
  mutable cur : (string * Kv.Entry.t * int) option;
}

type t = {
  resolver : Kv.Entry.resolver;
  drop_tombstones : bool;
  sources : source list; (* sorted by priority, freshest first *)
}

let create ~resolver ~drop_tombstones inputs =
  let sources =
    inputs
    |> List.map (fun (priority, pull) -> { priority; pull; cur = pull () })
    |> List.sort (fun a b -> Int.compare a.priority b.priority)
  in
  { resolver; drop_tombstones; sources }

let min_key t =
  List.fold_left
    (fun acc s ->
      match (acc, s.cur) with
      | None, Some (k, _, _) -> Some k
      | Some m, Some (k, _, _) when String.compare k m < 0 -> Some k
      | _ -> acc)
    None t.sources

type group = Record of string * Kv.Entry.t * int | Elided | End

(** [next_group t] folds the next key group: the surviving record, or
    [Elided] when the bottom level drops it. *)
let next_group t =
  match min_key t with
  | None -> End
  | Some key ->
      (* Fold all sources at [key], freshest first; the output record's
         LSN is the newest contributing one. *)
      let merged = ref None in
      let lsn = ref 0 in
      List.iter
        (fun s ->
          match s.cur with
          | Some (k, e, l) when String.equal k key ->
              lsn := max !lsn l;
              (merged :=
                 match !merged with
                 | None -> Some e
                 | Some newer -> Some (Kv.Entry.merge t.resolver ~newer ~older:e));
              s.cur <- s.pull ()
          | _ -> ())
        t.sources;
      let entry = Option.get !merged in
      if t.drop_tombstones then
        match entry with
        | Kv.Entry.Tombstone -> Elided (* elide at the bottom level *)
        | Kv.Entry.Delta ds -> (
            (* No base below us: the delta stream resolves against nothing. *)
            match Kv.Entry.resolve t.resolver ~base:None ds with
            | Some v -> Record (key, Kv.Entry.Base v, !lsn)
            | None -> Elided)
        | Kv.Entry.Base _ -> Record (key, entry, !lsn)
      else Record (key, entry, !lsn)

(** [next t] produces the next surviving record in key order. *)
let rec next t =
  match next_group t with
  | Record (k, e, lsn) -> Some (k, e, lsn)
  | Elided -> next t
  | End -> None

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
