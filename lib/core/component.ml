(** An on-disk tree component: an SSTable plus its Bloom filter.

    One filter guards each on-disk component (C1, C1', C2); it is created
    by the merge that creates the component and dies with it (§4.4.3).
    Filters are not persisted: after a crash they are rebuilt by scanning
    the component once (sequential I/O). *)

type t = {
  sst : Sstable.Reader.t;
  bloom : Bloom.t option;
  mutable bloom_negative : int;  (** lookups the filter answered for free *)
  mutable bloom_false_positive : int;
}

let of_sst ?bloom sst = { sst; bloom; bloom_negative = 0; bloom_false_positive = 0 }

(** [build_bloom ~bits_per_key sst] recovers a component's filter: reads
    the persisted copy when the component carries one (1.25 B/key of
    sequential I/O), otherwise rebuilds by scanning the whole component —
    the §4.4.3 trade-off, selectable via {!Config.t.persist_bloom}. A
    persisted copy that fails its checksum or does not decode is derived
    data gone bad: it is dropped and rebuilt the same way. *)
let build_bloom ?kind:(_ : Bloom.kind option) ~bits_per_key sst =
  if bits_per_key = 0 then None
  else
    match Option.map Bloom.of_string (Sstable.Reader.load_bloom_blob sst) with
    | Some (Ok bloom) -> Some bloom
    | None | Some (Error _) ->
    begin
    let bloom =
      Bloom.create ~bits_per_item:bits_per_key
        ~expected_items:(Sstable.Reader.record_count sst)
        ()
    in
    let it = Sstable.Reader.iterator sst in
    let rec go () =
      match Sstable.Reader.iter_next it with
      | None -> ()
      | Some (k, _) ->
          Bloom.add bloom k;
          go ()
    in
    go ();
    Some bloom
  end

let data_bytes t = Sstable.Reader.data_bytes t.sst
let record_count t = Sstable.Reader.record_count t.sst
let timestamp t = Sstable.Reader.timestamp t.sst
let is_empty t = Sstable.Reader.is_empty t.sst

(** [get t key] point lookup; consults the Bloom filter first so lookups of
    absent keys usually cost zero I/O. *)
let get t key =
  match t.bloom with
  | Some bloom when not (Bloom.mem bloom key) ->
      t.bloom_negative <- t.bloom_negative + 1;
      None
  | _ ->
      let r = Sstable.Reader.get t.sst key in
      (match (r, t.bloom) with
      | None, Some _ -> t.bloom_false_positive <- t.bloom_false_positive + 1
      | _ -> ());
      r

(** [maybe_contains t key] is the pure filter probe: no I/O, no counter. *)
let maybe_contains t key =
  match t.bloom with
  | Some bloom -> Bloom.mem bloom key
  | None -> not (is_empty t)

let iterator ?from t = Sstable.Reader.iterator ?from t.sst

let free t = Sstable.Reader.free t.sst

let meta_blob t = Sstable.Reader.meta_blob t.sst
