(* Per-layer replay for the traced run. After the measured phase, the
   tree's live components are reopened read-only from their footers and
   the phase's own keys, values and scan starts are replayed through each
   layer's public functions, one span per call. Nothing here runs before
   or during a measured phase. *)

(* Number of spans named [layer]/[name] and their total wall ns. *)
let span_total (spans : Timed.span list) ~layer ~name =
  List.fold_left
    (fun (n, total) (s : Timed.span) ->
      if String.equal s.layer layer && String.equal s.name name then
        (n + 1, total + (s.wall_end - s.wall_start))
      else (n, total))
    (0, 0) spans

let mean_ns spans ~layer ~name =
  match span_total spans ~layer ~name with
  | 0, _ -> 0.0
  | n, total -> float_of_int total /. float_of_int n

let open_components tree =
  let store = Blsm.Tree.store tree in
  let cfg = Blsm.Tree.config tree in
  List.map
    (fun (_level, footer) ->
      let sst = Sstable.Reader.open_from_disk store footer in
      let bloom =
        Blsm.Component.build_bloom ~kind:cfg.Blsm.Config.bloom_kind
          ~bits_per_key:cfg.bloom_bits_per_key sst
      in
      Blsm.Component.of_sst ?bloom sst)
    (Blsm.Tree.component_footers tree)

(* The phase's puts collapsed to their last value per key, in key order:
   what a merge or a build would see. *)
let sorted_puts puts =
  List.fold_left (fun m (k, v) -> Oracle.SMap.add k v m) Oracle.SMap.empty puts
  |> Oracle.SMap.bindings

let page_bytes = 4096

(* 4 KiB pages cut from the phase's values, for the checksum replay. *)
let pages_of values =
  let all = String.concat "" values in
  List.init (String.length all / page_bytes) (fun i ->
      String.sub all (i * page_bytes) page_bytes)

(* Runs every replay and returns the per-layer metrics it measures. The
   input logs are oldest first. *)
let run (timer : Timed.t) tree ~puts ~gets ~scans =
  let cfg = Blsm.Tree.config tree in
  let comps = open_components tree in
  let span layer name f = Timed.replay timer ~layer ~name f in
  (* memtable *)
  let mt = Memtable.create ~seed:cfg.Blsm.Config.seed ~resolver:cfg.resolver () in
  List.iteri
    (fun i (k, v) ->
      let e = Kv.Entry.Base v in
      span "memtable" "write" (fun () -> Memtable.write mt ~lsn:(i + 1) k e))
    puts;
  List.iter (fun k -> ignore (span "memtable" "get" (fun () -> Memtable.get mt k))) gets;
  (* Bloom filters and SSTable point reads, newest component first *)
  List.iter
    (fun k ->
      List.iter
        (fun c ->
          ignore (span "bloom" "mem" (fun () -> Blsm.Component.maybe_contains c k)))
        comps;
      let rec probe = function
        | [] -> ()
        | c :: rest -> (
            match span "sstable" "get" (fun () -> Blsm.Component.get c k) with
            | Some _ -> ()
            | None -> probe rest)
      in
      probe comps)
    gets;
  (* SSTable iterator pulls at the phase's scan starts *)
  List.iter
    (fun (start, n) ->
      List.iter
        (fun c ->
          let it = Blsm.Component.iterator ~from:start c in
          let rec pull i =
            if i < n then
              match span "sstable" "iter_next" (fun () -> Sstable.Reader.iter_next it) with
              | Some _ -> pull (i + 1)
              | None -> ()
          in
          pull 0;
          Sstable.Reader.iter_close it)
        comps)
    scans;
  (* merge CPU: one k-way merge over every live component *)
  let inputs =
    List.mapi
      (fun prio c ->
        let it = Blsm.Component.iterator c in
        (prio, fun () -> Sstable.Reader.iter_next_full it))
      comps
  in
  let merged = ref 0 in
  let m = Sstable.Merge_iter.create ~resolver:cfg.resolver ~drop_tombstones:true inputs in
  span "merge" "drain" (fun () -> Sstable.Merge_iter.drain m (fun _ _ _ -> incr merged));
  (* SSTable build on a scratch store *)
  let scratch = Pagestore.Store.create Simdisk.Profile.ssd_raid0 in
  let b =
    Sstable.Builder.create ~format:cfg.page_format ~extent_pages:cfg.extent_pages scratch
  in
  let built = sorted_puts puts in
  List.iter
    (fun (k, v) ->
      let e = Kv.Entry.Base v in
      span "sstable" "build" (fun () -> Sstable.Builder.add b k e))
    built;
  ignore (span "sstable" "build" (fun () -> Sstable.Builder.finish b ~timestamp:1));
  (* WAL appends of the phase's own log records, on a scratch log *)
  let wal = Pagestore.Wal.create (Simdisk.Disk.create Simdisk.Profile.ssd_raid0) in
  List.iter
    (fun (k, v) ->
      let payload = Blsm.Tree.encode_ops [ (k, Kv.Entry.Base v) ] in
      ignore (span "wal" "append" (fun () -> Pagestore.Wal.append wal payload)))
    puts;
  List.iter
    (fun p -> ignore (span "crc32c" "page" (fun () -> Repro_util.Crc32c.string p)))
    (pages_of (List.map snd puts));
  let spans = timer.Timed.spans in
  let per_call layer name = mean_ns spans ~layer ~name in
  let per_record layer name records =
    if records = 0 then 0.0
    else float_of_int (snd (span_total spans ~layer ~name)) /. float_of_int records
  in
  [
    ("memtable.write_ns", "ns", per_call "memtable" "write");
    ("memtable.get_ns", "ns", per_call "memtable" "get");
    ("bloom.mem_ns", "ns", per_call "bloom" "mem");
    ("sstable.get_ns", "ns", per_call "sstable" "get");
    ("sstable.iter_next_ns", "ns", per_call "sstable" "iter_next");
    ("sstable.build_ns_per_record", "ns", per_record "sstable" "build" (List.length built));
    ("merge.ns_per_record", "ns", per_record "merge" "drain" !merged);
    ("wal.append_ns", "ns", per_call "wal" "append");
    ("crc32c.page_ns", "ns", per_call "crc32c" "page");
  ]
