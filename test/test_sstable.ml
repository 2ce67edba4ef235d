(* SSTable tests: build/lookup/iterate roundtrips, records spanning pages,
   extent chaining, index reopen from disk, seek accounting, and the k-way
   merging iterator's shadowing semantics. *)

let check = Alcotest.check

let entry_testable = Alcotest.testable Kv.Entry.pp Kv.Entry.equal

let mk_store ?(buffer_pages = 64) ?(page_size = 256) () =
  Pagestore.Store.create
    ~config:
      {
        Pagestore.Store.cfg_page_size = page_size;
        cfg_buffer_pages = buffer_pages;
        cfg_durability = Pagestore.Wal.Full;
      }
    Simdisk.Profile.hdd_raid0

let build store ?(extent_pages = 8) ?(timestamp = 1) records =
  let b = Sstable.Builder.create ~extent_pages store in
  List.iter (fun (k, e) -> Sstable.Builder.add b k e) records;
  let footer = Sstable.Builder.finish b ~timestamp in
  let index = Sstable.Builder.index_blob b in
  Sstable.Reader.open_in_ram store footer ~index

let records_of_iter it =
  let rec go acc =
    match Sstable.Reader.iter_next it with
    | None -> List.rev acc
    | Some r -> go (r :: acc)
  in
  go []

let test_build_and_get () =
  let store = mk_store () in
  let records =
    List.init 100 (fun i -> (Printf.sprintf "key%04d" i, Kv.Entry.Base (Printf.sprintf "val%d" i)))
  in
  let sst = build store records in
  check Alcotest.int "record count" 100 (Sstable.Reader.record_count sst);
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst k))
    records;
  check (Alcotest.option entry_testable) "absent" None
    (Sstable.Reader.get sst "key5000");
  check (Alcotest.option entry_testable) "below range" None
    (Sstable.Reader.get sst "aaa");
  check (Alcotest.option entry_testable) "between keys" None
    (Sstable.Reader.get sst "key0042x")

let test_iteration_full () =
  let store = mk_store () in
  let records =
    List.init 50 (fun i -> (Printf.sprintf "k%03d" i, Kv.Entry.Base (string_of_int i)))
  in
  let sst = build store records in
  check Alcotest.int "all records" 50
    (List.length (records_of_iter (Sstable.Reader.iterator sst)));
  let out = records_of_iter (Sstable.Reader.iterator sst) in
  List.iter2
    (fun (k, e) (k', e') ->
      check Alcotest.string "key order" k k';
      check entry_testable "entry" e e')
    records out

let test_iteration_from () =
  let store = mk_store () in
  let records =
    List.init 50 (fun i -> (Printf.sprintf "k%03d" i, Kv.Entry.Base "v"))
  in
  let sst = build store records in
  let out = records_of_iter (Sstable.Reader.iterator ~from:"k025" sst) in
  check Alcotest.int "25 remaining" 25 (List.length out);
  check Alcotest.string "starts at k025" "k025" (fst (List.hd out));
  (* from between keys *)
  let out = records_of_iter (Sstable.Reader.iterator ~from:"k025x" sst) in
  check Alcotest.string "next key" "k026" (fst (List.hd out));
  (* from before all keys *)
  let out = records_of_iter (Sstable.Reader.iterator ~from:"a" sst) in
  check Alcotest.int "everything" 50 (List.length out);
  (* from past the end *)
  let out = records_of_iter (Sstable.Reader.iterator ~from:"z" sst) in
  check Alcotest.int "nothing" 0 (List.length out)

let test_records_spanning_pages () =
  (* 256-byte pages, 1000-byte values: every record spans ~4 pages *)
  let store = mk_store ~page_size:256 () in
  let records =
    List.init 20 (fun i ->
        (Printf.sprintf "key%02d" i, Kv.Entry.Base (String.make 1000 (Char.chr (65 + i)))))
  in
  let sst = build store records in
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst k))
    records;
  let out = records_of_iter (Sstable.Reader.iterator sst) in
  check Alcotest.int "iteration count" 20 (List.length out)

let test_record_larger_than_extent () =
  (* a single record bigger than one extent exercises extent chaining mid-record *)
  let store = mk_store ~page_size:256 () in
  let big = String.make 5000 'x' in
  let sst = build store ~extent_pages:4 [ ("k", Kv.Entry.Base big) ] in
  check (Alcotest.option entry_testable) "big record" (Some (Kv.Entry.Base big))
    (Sstable.Reader.get sst "k")

let test_empty_component () =
  let store = mk_store () in
  let sst = build store [] in
  check Alcotest.bool "empty" true (Sstable.Reader.is_empty sst);
  check (Alcotest.option entry_testable) "get on empty" None
    (Sstable.Reader.get sst "k");
  check Alcotest.int "iter on empty" 0
    (List.length (records_of_iter (Sstable.Reader.iterator sst)))

let test_mixed_entry_kinds () =
  let store = mk_store () in
  let records =
    [
      ("a", Kv.Entry.Base "va");
      ("b", Kv.Entry.Tombstone);
      ("c", Kv.Entry.Delta [ "d1"; "d2" ]);
    ]
  in
  let sst = build store records in
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst k))
    records

let test_builder_rejects_unsorted () =
  let store = mk_store () in
  let b = Sstable.Builder.create ~extent_pages:4 store in
  Sstable.Builder.add b "m" (Kv.Entry.Base "v");
  (match Sstable.Builder.add b "a" (Kv.Entry.Base "v") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unsorted rejection");
  match Sstable.Builder.add b "m" (Kv.Entry.Base "v") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate rejection"

let test_reopen_from_meta () =
  let store = mk_store () in
  let records =
    List.init 200 (fun i -> (Printf.sprintf "key%05d" i, Kv.Entry.Base (String.make 50 'v')))
  in
  let sst = build store records in
  let blob = Sstable.Reader.meta_blob sst in
  (* simulate restart: reopen purely from the metadata blob *)
  Pagestore.Store.crash store;
  let sst' = Sstable.Reader.of_meta store blob in
  check Alcotest.int "count preserved" 200 (Sstable.Reader.record_count sst');
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst' k))
    records

let test_point_lookup_seek_cost () =
  let store = mk_store ~page_size:4096 ~buffer_pages:2 () in
  let records =
    List.init 1000 (fun i ->
        (Printf.sprintf "key%06d" i, Kv.Entry.Base (String.make 1000 'v')))
  in
  let sst = build store ~extent_pages:64 records in
  let disk = Pagestore.Store.disk store in
  (* cold, scattered lookups: one seek each; continuation pages for records
     spanning a boundary are charged as sequential transfers, not seeks *)
  let before = Simdisk.Disk.snapshot disk in
  let n = 30 in
  for i = 0 to n - 1 do
    ignore (Sstable.Reader.get sst (Printf.sprintf "key%06d" (i * 29)))
  done;
  let d = Simdisk.Disk.diff before (Simdisk.Disk.snapshot disk) in
  if d.Simdisk.Disk.seeks < n - 2 || d.Simdisk.Disk.seeks > n + 2 then
    Alcotest.failf "expected ~%d seeks, got %d" n d.Simdisk.Disk.seeks

let test_free_releases_space () =
  let store = mk_store () in
  let records = List.init 100 (fun i -> (Printf.sprintf "k%04d" i, Kv.Entry.Base (String.make 100 'v'))) in
  let sst = build store records in
  let before = Pagestore.Store.stored_bytes store in
  Sstable.Reader.free sst;
  if Pagestore.Store.stored_bytes store >= before then
    Alcotest.fail "free did not reclaim space"

(* ------------------------------------------------------------------ *)
(* Restart points (derived in-page record-start offsets) *)

let test_restart_offsets_roundtrip () =
  (* Derived starts must agree with a linear decode of the raw page:
     count = the n_starts header, offsets strictly increasing, first one
     just past the continuation bytes. *)
  let store = mk_store ~page_size:256 () in
  let records =
    List.init 120 (fun i ->
        ( Printf.sprintf "key%04d" i,
          Kv.Entry.Base (String.make (7 + (i * 13 mod 90)) 'v') ))
  in
  let sst = build store records in
  let footer = Sstable.Reader.footer sst in
  let buf = Bytes.create 256 in
  List.iter
    (fun (start, length) ->
      for id = start to start + length - 1 do
        Pagestore.Store.read_page_direct store id buf;
        if Sstable.Sst_format.page_ok_bytes buf then begin
          let n_starts =
            Char.code (Bytes.get buf 0) lor (Char.code (Bytes.get buf 1) lsl 8)
          in
          let cont =
            Char.code (Bytes.get buf 2)
            lor (Char.code (Bytes.get buf 3) lsl 8)
            lor (Char.code (Bytes.get buf 4) lsl 16)
            lor (Char.code (Bytes.get buf 5) lsl 24)
          in
          let starts = Sstable.Sst_format.record_starts buf in
          check Alcotest.int "starts = n_starts header" n_starts
            (Array.length starts);
          if n_starts > 0 then
            check Alcotest.int "first start after continuation"
              (Sstable.Sst_format.header_bytes + cont)
              starts.(0);
          Array.iteri
            (fun i s ->
              if i > 0 && s <= starts.(i - 1) then
                Alcotest.failf "starts not increasing at %d" i;
              if s < Sstable.Sst_format.header_bytes || s >= 256 then
                Alcotest.failf "start %d out of page bounds" s)
            starts
        end
      done)
    footer.Sstable.Sst_format.extents;
  ignore (Sstable.Reader.get sst "key0000")

let test_restart_corruption_detected () =
  (* Flip a bit in the first record's body-length varint — the byte the
     restart walk navigates by. The page CRC must catch it at frame load:
     a typed Corrupt, never a silent mis-navigation. *)
  let store = mk_store ~page_size:4096 ~buffer_pages:8 () in
  let records =
    List.init 300 (fun i ->
        (Printf.sprintf "key%06d" i, Kv.Entry.Base (String.make 50 'v')))
  in
  let sst = build store records in
  (* Warm lookups work. *)
  check Alcotest.bool "warm get" true (Sstable.Reader.get sst "key000100" <> None);
  let footer = Sstable.Reader.footer sst in
  let first_page = fst (List.hd footer.Sstable.Sst_format.extents) in
  (* Drop the pool so the next access re-loads the rotted platter copy. *)
  Pagestore.Store.crash store;
  ignore
    (Pagestore.Store.corrupt_page store first_page ~byte:Sstable.Sst_format.header_bytes
       ~bit:3);
  (match Sstable.Reader.get sst "key000000" with
  | exception Sstable.Sst_format.Corrupt _ -> ()
  | Some _ -> Alcotest.fail "lookup decoded a corrupted page"
  | None -> Alcotest.fail "corruption silently mis-navigated to a miss");
  (* The n_starts header itself (restart count) is covered too. *)
  Pagestore.Store.crash store;
  ignore (Pagestore.Store.corrupt_page store first_page ~byte:0 ~bit:0);
  match Sstable.Reader.get sst "key000000" with
  | exception Sstable.Sst_format.Corrupt _ -> ()
  | _ -> Alcotest.fail "header corruption not detected"

let test_truncated_mid_record_is_typed_corrupt () =
  (* Regression for a real find of lint rule E001: when the data pages
     end inside a record body (truncated table), the reader's internal
     End_of_component record-boundary exception used to leak through
     the cursor — across the DST driver boundary — instead of the typed Corrupt the scan contract declares. *)
  let store = mk_store () in
  (* One record whose body spans several 256-byte pages, so a footer
     one page short ends mid-body. *)
  let big = String.make 700 'v' in
  let b = Sstable.Builder.create ~extent_pages:4 store in
  Sstable.Builder.add b "k" (Kv.Entry.Base big);
  let footer = Sstable.Builder.finish b ~timestamp:1 in
  let index = Sstable.Builder.index_blob b in
  let truncated =
    {
      footer with
      Sstable.Sst_format.data_pages = footer.Sstable.Sst_format.data_pages - 1;
    }
  in
  match
    let sst = Sstable.Reader.open_in_ram store truncated ~index in
    records_of_iter (Sstable.Reader.iterator sst)
  with
  | exception Sstable.Sst_format.Corrupt _ -> ()
  | exception e ->
      Alcotest.failf "internal exception leaked: %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "truncated table iterated cleanly"

let test_verified_once_semantics () =
  (* While the frame sits verified in the pool, lookups skip the CRC; the
     check runs again at the load after a crash drops the pool — platter
     rot is caught exactly where it can first be observed. *)
  let store = mk_store ~page_size:4096 ~buffer_pages:8 () in
  let records =
    List.init 100 (fun i ->
        (Printf.sprintf "key%06d" i, Kv.Entry.Base (String.make 40 'v')))
  in
  let sst = build store records in
  check Alcotest.bool "cold get" true (Sstable.Reader.get sst "key000001" <> None);
  let footer = Sstable.Reader.footer sst in
  let first_page = fst (List.hd footer.Sstable.Sst_format.extents) in
  ignore (Pagestore.Store.corrupt_page store first_page ~byte:100 ~bit:1);
  (* Pool hit: the resident frame is still the good copy. *)
  check Alcotest.bool "hit ignores platter rot" true
    (Sstable.Reader.get sst "key000001" <> None);
  Pagestore.Store.crash store;
  match Sstable.Reader.get sst "key000001" with
  | exception Sstable.Sst_format.Corrupt _ -> ()
  | _ -> Alcotest.fail "reload did not re-verify"

let test_tiny_pool_pin_release () =
  (* Lookups and closed iterators must release their pins: thousands of
     operations through a 2-frame pool would otherwise exhaust it. *)
  let store = mk_store ~page_size:256 ~buffer_pages:2 () in
  let records =
    List.init 200 (fun i ->
        (Printf.sprintf "key%04d" i, Kv.Entry.Base (String.make 300 'v')))
  in
  let sst = build store records in
  for round = 0 to 4 do
    List.iteri
      (fun i (k, e) ->
        ignore round;
        if i mod 3 = 0 then
          check (Alcotest.option entry_testable) k (Some e)
            (Sstable.Reader.get sst k))
      records;
    (* Abandon a cached iterator mid-stream; close must unpin. *)
    let it = Sstable.Reader.cached_iterator ~from:"key0050" sst in
    ignore (Sstable.Reader.iter_next it);
    Sstable.Reader.iter_close it;
    Sstable.Reader.iter_close it (* idempotent *)
  done

let test_stream_buffer_reuse () =
  (* A closed or exhausted streaming iterator hands its page buffer to
     the component's next one. Interleave iterators so a buffer changes
     hands while others are mid-page: every stream must still yield
     exactly its records, and a closed one nothing more. *)
  let store = mk_store ~page_size:256 () in
  let records =
    List.init 60 (fun i ->
        (Printf.sprintf "key%03d" i, Kv.Entry.Base (String.make (20 + (i * 7 mod 150)) 'v')))
  in
  let sst = build store records in
  let from k = List.filter (fun (k', _) -> String.compare k' k >= 0) records in
  let pull it n = List.init n (fun _ -> Option.get (Sstable.Reader.iter_next it)) in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let drop n l = List.filteri (fun i _ -> i >= n) l in
  let a = Sstable.Reader.iterator sst in
  check Alcotest.bool "a head" true (pull a 5 = take 5 records);
  let b = Sstable.Reader.iterator ~from:"key020" sst in
  check Alcotest.bool "b head" true (pull b 3 = take 3 (from "key020"));
  Sstable.Reader.iter_close b;
  check Alcotest.bool "closed b ends" true (Sstable.Reader.iter_next b = None);
  (* c takes b's buffer; a must not see it move *)
  let c = Sstable.Reader.iterator ~from:"key040" sst in
  check Alcotest.bool "c all" true (records_of_iter c = from "key040");
  check Alcotest.bool "a rest" true (records_of_iter a = drop 5 records);
  (* both exhausted: two spares now, taken by two live streams *)
  let d = Sstable.Reader.iterator sst and e = Sstable.Reader.iterator ~from:"key030" sst in
  check Alcotest.bool "d head" true (pull d 10 = take 10 records);
  check Alcotest.bool "e all" true (records_of_iter e = from "key030");
  check Alcotest.bool "d rest" true (records_of_iter d = drop 10 records)

let mk_prop_get_equals_linear ~name ~key =
  (* The restart binary search must be observationally identical to the
     seed's linear decode — for present keys, absent keys between
     records, and keys off both ends — across record mixes that exercise
     page spills (128-byte pages, values up to 300 bytes). [key] maps a
     drawn integer to its key, so key shape is an input too. *)
  QCheck.Test.make ~name ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 100) (pair (int_range 0 9999) (int_range 0 300)))
        (list_of_size Gen.(1 -- 40) (int_range 0 9999)))
    (fun (pairs, probes) ->
      let module M = Map.Make (String) in
      let m =
        List.fold_left
          (fun m (k, vlen) ->
            M.add (key k) (Kv.Entry.Base (String.make vlen 'v'))
              m)
          M.empty pairs
      in
      let records = M.bindings m in
      let store = mk_store ~page_size:128 () in
      let sst = build store ~extent_pages:4 records in
      let agree k =
        Sstable.Reader.get sst k = Sstable.Reader.get_linear sst k
        && Sstable.Reader.get_with_lsn sst k
           = Sstable.Reader.get_linear_with_lsn sst k
        && Sstable.Reader.locate sst k = Sstable.Reader.locate_linear sst k
      in
      List.for_all (fun (k, _) -> agree k) records
      && List.for_all
           (fun p ->
             (* probe keys hit present records, gaps, and both ends *)
             agree (key p) && agree (key p ^ "x"))
           probes
      && agree "" && agree "zzz")

let prop_restart_get_equals_linear =
  mk_prop_get_equals_linear ~name:"restart get = linear get"
    ~key:(Printf.sprintf "key%05d")

let records_full_of_iter it =
  let rec go acc =
    match Sstable.Reader.iter_next_full it with
    | None -> List.rev acc
    | Some r -> go (r :: acc)
  in
  go []

let mk_prop_roundtrip ~name ~key =
  (* Build/iterate/get roundtrip over a Base/Delta/Tombstone mix with
     stored LSNs, 0-300 B values on 128 B pages (records and their
     body-length varints split across page ends), plus random [from]
     probes through both iterators: the in-place skip loop and the
     spilled-record fallback must yield exactly the input suffix. *)
  QCheck.Test.make ~name ~count:60
    QCheck.(
      pair
        (list_of_size
           Gen.(1 -- 100)
           (quad (int_range 0 9999) (int_range 0 300) (int_range 0 5)
              (int_range 0 100_000)))
        (list_of_size Gen.(0 -- 8) (int_range 0 9999)))
    (fun (quads, probes) ->
      let module M = Map.Make (String) in
      let entry_of vlen kind =
        match kind with
        | 0 -> Kv.Entry.Tombstone
        | 1 -> Kv.Entry.Delta [ String.make (vlen / 2) 'd'; String.make (vlen mod 7) 'e' ]
        | _ -> Kv.Entry.Base (String.make vlen 'v')
      in
      let m =
        List.fold_left
          (fun m (k, vlen, kind, lsn) ->
            M.add (key k) (entry_of vlen kind, lsn) m)
          M.empty quads
      in
      let full = List.map (fun (k, (e, lsn)) -> (k, e, lsn)) (M.bindings m) in
      let records = List.map (fun (k, e, _) -> (k, e)) full in
      let store = mk_store ~page_size:128 () in
      let b = Sstable.Builder.create ~extent_pages:4 store in
      List.iter (fun (k, e, lsn) -> Sstable.Builder.add ~lsn b k e) full;
      let footer = Sstable.Builder.finish b ~timestamp:1 in
      let sst =
        Sstable.Reader.open_in_ram store footer
          ~index:(Sstable.Builder.index_blob b)
      in
      let from_ok from =
        let want = List.filter (fun (k, _, _) -> String.compare k from >= 0) full in
        let cached = Sstable.Reader.cached_iterator ~from sst in
        let got_cached = records_full_of_iter cached in
        Sstable.Reader.iter_close cached;
        records_full_of_iter (Sstable.Reader.iterator ~from sst) = want
        && got_cached = want
      in
      records_of_iter (Sstable.Reader.iterator sst) = records
      && records_full_of_iter (Sstable.Reader.cached_iterator sst) = full
      && List.for_all
           (fun (k, e, lsn) -> Sstable.Reader.get_with_lsn sst k = Some (e, lsn))
           full
      && List.for_all (fun p -> from_ok (key p) && from_ok (key p ^ "x")) probes
      && from_ok "" && from_ok "zzz")

let prop_roundtrip =
  mk_prop_roundtrip ~name:"sstable build/iterate roundtrip"
    ~key:(Printf.sprintf "key%05d")

(* ------------------------------------------------------------------ *)
(* Shared-prefix keys: the input the retired prefix-compressed ("v2")
   page layout was built for, run through the one page layout. Keys
   share a prefix longer than a small page, so key bytes alone spill. *)

let shared_prefix = "tenant-0042/" ^ String.make 300 'p' ^ "/"
let prefixed fmt = Printf.ksprintf (fun k -> shared_prefix ^ k) fmt

let prop_prefix_get_equals_linear =
  mk_prop_get_equals_linear ~name:"v2 get = linear get" ~key:(prefixed "%05d")

let prop_prefix_roundtrip =
  mk_prop_roundtrip ~name:"v2 build/iterate roundtrip" ~key:(prefixed "%05d")

let test_prefix_build_and_get () =
  let store = mk_store () in
  let records =
    List.init 100 (fun i ->
        (prefixed "key%04d" i, Kv.Entry.Base (Printf.sprintf "val%d" i)))
  in
  let sst = build store records in
  check Alcotest.int "record count" 100 (Sstable.Reader.record_count sst);
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst k))
    records;
  check (Alcotest.option entry_testable) "absent" None
    (Sstable.Reader.get sst (prefixed "key5000"));
  check (Alcotest.option entry_testable) "bare prefix" None
    (Sstable.Reader.get sst shared_prefix);
  check (Alcotest.option entry_testable) "between keys" None
    (Sstable.Reader.get sst (prefixed "key0042x"))

let test_prefix_spanning_pages () =
  (* 256-byte pages, 313-byte keys and 1000-byte values: key and value
     of every record both cross page ends *)
  let store = mk_store ~page_size:256 () in
  let records =
    List.init 20 (fun i ->
        (prefixed "key%02d" i, Kv.Entry.Base (String.make 1000 (Char.chr (65 + i)))))
  in
  let sst = build store records in
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst k))
    records;
  check Alcotest.bool "iteration" true
    (records_of_iter (Sstable.Reader.iterator sst) = records)

let test_prefix_iteration_from () =
  let store = mk_store () in
  let records = List.init 50 (fun i -> (prefixed "k%03d" i, Kv.Entry.Base "v")) in
  let sst = build store records in
  let from k = records_of_iter (Sstable.Reader.iterator ~from:k sst) in
  let out = from (prefixed "k025") in
  check Alcotest.int "25 remaining" 25 (List.length out);
  check Alcotest.string "starts at k025" (prefixed "k025") (fst (List.hd out));
  check Alcotest.string "next key" (prefixed "k026")
    (fst (List.hd (from (prefixed "k025x"))));
  check Alcotest.int "bare prefix: everything" 50 (List.length (from shared_prefix));
  check Alcotest.int "prefix minus a byte: everything" 50
    (List.length
       (from (String.sub shared_prefix 0 (String.length shared_prefix - 1))));
  check Alcotest.int "past the prefix: nothing" 0
    (List.length (from (shared_prefix ^ "z")))

let test_prefix_reopen_from_meta () =
  let store = mk_store () in
  let records =
    List.init 200 (fun i -> (prefixed "key%05d" i, Kv.Entry.Base (String.make 50 'v')))
  in
  let sst = build store records in
  let blob = Sstable.Reader.meta_blob sst in
  check Alcotest.string "one footer magic" "SSTF" (String.sub blob 0 4);
  Pagestore.Store.crash store;
  let sst' = Sstable.Reader.of_meta store blob in
  check Alcotest.int "count preserved" 200 (Sstable.Reader.record_count sst');
  let f = Sstable.Reader.footer sst' in
  check Alcotest.string "min key" (fst (List.hd records)) f.Sstable.Sst_format.min_key;
  List.iter
    (fun (k, e) ->
      check (Alcotest.option entry_testable) k (Some e) (Sstable.Reader.get sst' k))
    records

(* ------------------------------------------------------------------ *)
(* Eytzinger fence pointers *)

(* [fence_agrees keys probes]: over the sorted distinct [keys], the slot
   walk reproduces them, and [locate] equals [locate_linear] on every
   key, every probe, and every prefix of the fence's common prefix, each
   also with its last byte stepped down and up. *)
let fence_agrees keys probes =
  let module S = Set.Make (String) in
  let keys = Array.of_list (S.elements (S.of_list keys)) in
  let n = Array.length keys in
  let pos = Array.mapi (fun i _ -> i * 3) keys in
  let f = Sstable.Sst_format.Fence.of_sorted ~keys ~pos in
  let open Sstable.Sst_format.Fence in
  let agree k = locate f k = locate_linear f k in
  let rec walk acc = function
    | None -> List.rev acc
    | Some s -> walk (key f s :: acc) (succ_slot f s)
  in
  let common =
    if n = 0 then ""
    else
      let a = keys.(0) and b = keys.(n - 1) in
      let i = ref 0 in
      while !i < String.length a && !i < String.length b && a.[!i] = b.[!i] do
        incr i
      done;
      String.sub a 0 !i
  in
  let around p =
    let l = String.length p in
    if l = 0 then [ p ]
    else
      let last = Char.code p.[l - 1] and stem = String.sub p 0 (l - 1) in
      p
      :: List.filter_map
           (fun c ->
             if c < 0 || c > 255 then None
             else Some (stem ^ String.make 1 (Char.chr c)))
           [ last - 1; last + 1 ]
  in
  let common_probes =
    List.concat_map
      (fun i -> around (String.sub common 0 i))
      (List.init (String.length common + 1) Fun.id)
  in
  walk [] (first_slot f) = Array.to_list keys
  && Array.for_all agree keys
  && List.for_all agree probes
  && List.for_all agree common_probes
  && agree "" && agree "\255\255"

let prop_fence_locate_equals_linear =
  (* The branch-free Eytzinger descent must agree with the in-order
     linear walk on every probe, and the slot traversal must reproduce
     the sorted input — including the empty fence. *)
  QCheck.Test.make ~name:"fence locate = locate_linear" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 80) (int_range 0 999))
        (list_of_size Gen.(1 -- 30) (int_range 0 999)))
    (fun (ks, probes) ->
      fence_agrees
        (List.map (Printf.sprintf "k%03d") ks)
        ("zzzz"
        :: List.concat_map
             (fun p -> [ Printf.sprintf "k%03d" p; Printf.sprintf "k%03dq" p ])
             probes))

(* Keys over a three-letter alphabet with [\000]: a shared stem, an
   optional run that ties the first 7 bytes after it, and a short tail,
   so prefixes tie often and keys differ in length. *)
let tie_key_gen stem =
  QCheck.Gen.(
    map2
      (fun long tail -> stem ^ (if long then "abababab" else "") ^ tail)
      bool
      (string_size ~gen:(oneofl [ '\000'; 'a'; 'b' ]) (0 -- 10)))

let prop_fence_prefix_ties =
  QCheck.Test.make ~name:"fence locate = locate_linear, prefix ties" ~count:300
    QCheck.(
      make
        Gen.(
          string_size ~gen:(oneofl [ '\000'; 'a'; 'z' ]) (0 -- 4) >>= fun stem ->
          pair
            (list_size (0 -- 40) (tie_key_gen stem))
            (list_size (1 -- 20) (tie_key_gen stem))))
    (fun (keys, probes) ->
      fence_agrees keys
        (probes @ List.map (fun p -> p ^ "\000") probes
        @ List.map (fun p -> p ^ "\255") probes))

let test_fence_small () =
  let probes =
    [ ""; "\000"; "a"; "ab"; "abc"; "abc\000"; "abcd"; "abd"; "abb"; "b";
      "abcdefghijk"; "\255" ]
  in
  List.iter
    (fun keys ->
      if not (fence_agrees keys probes) then
        Alcotest.failf "fence over [%s] disagrees with the linear walk"
          (String.concat "; " (List.map String.escaped keys)))
    [ [];
      [ "abc" ];
      [ "" ];
      [ "\000" ];
      [ "abc"; "abc\000" ];
      [ "abc"; "abcdefghij"; "abcdefghik" ];
      [ "ab"; "abcdefghijklmnop"; "abcdefghijklmnoq"; "abd" ] ]

let read_varint s off =
  let rec go off shift acc =
    let b = Char.code s.[off] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b >= 0x80 then go (off + 1) (shift + 7) acc else (acc, off + 1)
  in
  go off 0 0

(* -------------------------------------------------------------------- *)
(* Merge iterator *)

let pull_of_list l =
  let r = ref l in
  fun () ->
    match !r with
    | [] -> None
    | x :: rest ->
        r := rest;
        Some x

let resolver = Kv.Entry.append_resolver

(* sources feed (key, entry, lsn=0); results compared as pairs *)
let merge_all ~drop inputs =
  let inputs =
    List.map
      (fun (p, pull) ->
        ( p,
          fun () ->
            match pull () with Some (k, e) -> Some (k, e, 0) | None -> None ))
      inputs
  in
  let m = Sstable.Merge_iter.create ~resolver ~drop_tombstones:drop inputs in
  let out = ref [] in
  Sstable.Merge_iter.drain m (fun k e _ -> out := (k, e) :: !out);
  List.rev !out

let test_merge_shadowing () =
  let newer = [ ("a", Kv.Entry.Base "new"); ("c", Kv.Entry.Base "c1") ] in
  let older = [ ("a", Kv.Entry.Base "old"); ("b", Kv.Entry.Base "b1") ] in
  let out =
    merge_all ~drop:false [ (0, pull_of_list newer); (1, pull_of_list older) ]
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string entry_testable))
    "shadowed merge"
    [ ("a", Kv.Entry.Base "new"); ("b", Kv.Entry.Base "b1"); ("c", Kv.Entry.Base "c1") ]
    out

let test_merge_tombstone_dropped_at_bottom () =
  let newer = [ ("a", Kv.Entry.Tombstone) ] in
  let older = [ ("a", Kv.Entry.Base "old"); ("b", Kv.Entry.Base "b1") ] in
  let out = merge_all ~drop:true [ (0, pull_of_list newer); (1, pull_of_list older) ] in
  check Alcotest.int "tombstone elided" 1 (List.length out);
  check Alcotest.string "b survives" "b" (fst (List.hd out))

let test_merge_tombstone_kept_mid_tree () =
  let newer = [ ("a", Kv.Entry.Tombstone) ] in
  let older = [ ("a", Kv.Entry.Base "old") ] in
  let out = merge_all ~drop:false [ (0, pull_of_list newer); (1, pull_of_list older) ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string entry_testable))
    "tombstone persists" [ ("a", Kv.Entry.Tombstone) ] out

let test_merge_delta_resolution_at_bottom () =
  let newer = [ ("a", Kv.Entry.Delta [ "+d" ]) ] in
  let out = merge_all ~drop:true [ (0, pull_of_list newer) ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string entry_testable))
    "orphan delta becomes base" [ ("a", Kv.Entry.Base "+d") ] out

let test_merge_three_way () =
  let c0 = [ ("k", Kv.Entry.Delta [ "+2" ]) ] in
  let c1 = [ ("k", Kv.Entry.Delta [ "+1" ]) ] in
  let c2 = [ ("k", Kv.Entry.Base "base") ] in
  let out =
    merge_all ~drop:true
      [ (0, pull_of_list c0); (1, pull_of_list c1); (2, pull_of_list c2) ]
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string entry_testable))
    "deltas apply oldest-first" [ ("k", Kv.Entry.Base "base+1+2") ] out

let prop_merge_equals_map_union =
  (* merging random sorted streams equals right-biased map union where the
     lower priority stream wins (all Base entries) *)
  QCheck.Test.make ~name:"merge = shadowed union" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 50) (int_range 0 99))
        (list_of_size Gen.(0 -- 50) (int_range 0 99)))
    (fun (ks1, ks2) ->
      let module M = Map.Make (String) in
      let mk tag ks =
        List.fold_left
          (fun m k -> M.add (Printf.sprintf "%02d" k) (Kv.Entry.Base (tag ^ string_of_int k)) m)
          M.empty ks
      in
      let m1 = mk "new" ks1 and m2 = mk "old" ks2 in
      let expected = M.union (fun _ a _ -> Some a) m1 m2 in
      let out =
        merge_all ~drop:false
          [ (0, pull_of_list (M.bindings m1)); (1, pull_of_list (M.bindings m2)) ]
      in
      out = M.bindings expected)

(* The list-based fold [Merge_iter] replaced, kept as the reference its
   output and pull order are held to: fold every source at the smallest
   key, freshest first. *)
module List_merge = struct
  type source = {
    priority : int;
    pull : unit -> (string * Kv.Entry.t * int) option;
    mutable cur : (string * Kv.Entry.t * int) option;
  }

  let create inputs =
    inputs
    |> List.map (fun (priority, pull) -> { priority; pull; cur = pull () })
    |> List.sort (fun a b -> Int.compare a.priority b.priority)

  let next_group ~drop sources =
    let min_key =
      List.fold_left
        (fun acc s ->
          match (acc, s.cur) with
          | None, Some (k, _, _) -> Some k
          | Some m, Some (k, _, _) when String.compare k m < 0 -> Some k
          | _ -> acc)
        None sources
    in
    match min_key with
    | None -> Sstable.Merge_iter.End
    | Some key -> (
        let merged = ref None and lsn = ref 0 in
        List.iter
          (fun s ->
            match s.cur with
            | Some (k, e, l) when String.equal k key ->
                lsn := max !lsn l;
                (merged :=
                   match !merged with
                   | None -> Some e
                   | Some newer -> Some (Kv.Entry.merge resolver ~newer ~older:e));
                s.cur <- s.pull ()
            | _ -> ())
          sources;
        let entry = Option.get !merged in
        match entry with
        | Kv.Entry.Tombstone when drop -> Sstable.Merge_iter.Elided
        | Kv.Entry.Delta ds when drop -> (
            match Kv.Entry.resolve resolver ~base:None ds with
            | Some v -> Record (key, Kv.Entry.Base v, !lsn)
            | None -> Elided)
        | _ -> Record (key, entry, !lsn))
end

(* Sources over [streams], each pull logged as its input index. *)
let logged_inputs log streams =
  List.mapi
    (fun i (priority, records) ->
      let pull = pull_of_list records in
      ( priority,
        fun () ->
          log := i :: !log;
          pull () ))
    streams

let rec groups next acc =
  match next () with
  | Sstable.Merge_iter.End -> List.rev acc
  | g -> groups next (g :: acc)

let group_testable =
  Alcotest.testable
    (fun ppf -> function
      | Sstable.Merge_iter.Record (k, e, l) ->
          Format.fprintf ppf "Record (%S, %a, %d)" k Kv.Entry.pp e l
      | Elided -> Format.pp_print_string ppf "Elided"
      | End -> Format.pp_print_string ppf "End")
    (fun a b ->
      match (a, b) with
      | Sstable.Merge_iter.Record (k, e, l), Sstable.Merge_iter.Record (k', e', l') ->
          String.equal k k' && Kv.Entry.equal e e' && l = l'
      | Elided, Elided | End, End -> true
      | _ -> false)

let prop_merge_equals_list_fold =
  (* 1-5 sources of Base, Tombstone and Delta entries, priorities with
     ties: the groups (with LSNs) and the order in which sources are
     pulled match the list-based fold, so a merge metering its pulls
     reads the same bytes at every step. [next] and [drain] see the
     surviving records. *)
  let entry =
    QCheck.Gen.(
      frequency
        [ (3, map (fun v -> Kv.Entry.Base (string_of_int v)) (0 -- 9));
          (1, return Kv.Entry.Tombstone);
          (2, map (fun v -> Kv.Entry.Delta [ "+" ^ string_of_int v ]) (0 -- 9)) ])
  in
  let stream =
    QCheck.Gen.(
      pair (0 -- 3)
        (map
           (fun l ->
             List.sort_uniq (fun (a, _, _) (b, _, _) -> String.compare a b) l)
           (list_size (0 -- 15)
              (triple (map (Printf.sprintf "%02d") (0 -- 19)) entry (0 -- 50)))))
  in
  QCheck.Test.make ~name:"merge = list fold, pulls included" ~count:300
    QCheck.(make Gen.(pair bool (list_size (1 -- 5) stream)))
    (fun (drop, streams) ->
      let log_ref = ref [] and log_new = ref [] in
      let ref_sources = List_merge.create (logged_inputs log_ref streams) in
      let expected = groups (fun () -> List_merge.next_group ~drop ref_sources) [] in
      let m =
        Sstable.Merge_iter.create ~resolver ~drop_tombstones:drop
          (logged_inputs log_new streams)
      in
      let got = groups (fun () -> Sstable.Merge_iter.next_group m) [] in
      let survivors =
        List.filter_map
          (function Sstable.Merge_iter.Record (k, e, l) -> Some (k, e, l) | _ -> None)
          expected
      in
      let drained = ref [] in
      Sstable.Merge_iter.drain
        (Sstable.Merge_iter.create ~resolver ~drop_tombstones:drop
           (logged_inputs (ref []) streams))
        (fun k e l -> drained := (k, e, l) :: !drained);
      check (Alcotest.list group_testable) "groups" expected got;
      check Alcotest.(list int) "pull order" (List.rev !log_ref) (List.rev !log_new);
      check
        Alcotest.(list (triple string entry_testable int))
        "drain" survivors (List.rev !drained);
      true)

(* ------------------------------------------------------------------ *)
(* Malformed bodies on CRC-valid pages *)

(* Rewrite a stored data page through [edit] and re-seal its checksum,
   so the page verifies but carries the edited record bytes. The platter
   copy is edited through the bit-rot hook, one flip per differing bit,
   and the pool is dropped so the next read loads it. *)
let patch_page store id edit =
  let psz = Pagestore.Store.page_size store in
  let old = Bytes.create psz in
  Pagestore.Store.read_page_direct store id old;
  let b = Bytes.copy old in
  edit b;
  Sstable.Sst_format.seal_page b;
  for i = 0 to psz - 1 do
    let x = Char.code (Bytes.get old i) lxor Char.code (Bytes.get b i) in
    for bit = 0 to 7 do
      if x land (1 lsl bit) <> 0 then
        ignore (Pagestore.Store.corrupt_page store id ~byte:i ~bit)
    done
  done;
  Pagestore.Store.crash store

let data_chain footer =
  List.concat_map
    (fun (start, len) -> List.init len (fun i -> start + i))
    footer.Sstable.Sst_format.extents
  |> List.filteri (fun i _ -> i < footer.Sstable.Sst_format.data_pages)
  |> Array.of_list

(* Where byte [j] of the last record's frame lives: (chain position,
   page offset). The frame starts at the final record start of the last
   page that has one and runs on through continuation payloads. *)
let last_frame_locator store footer =
  let psz = Pagestore.Store.page_size store in
  let chain = data_chain footer in
  let buf = Bytes.create psz in
  let rec last_start pos =
    Pagestore.Store.read_page_direct store chain.(pos) buf;
    let starts = Sstable.Sst_format.record_starts buf in
    if Array.length starts > 0 then (pos, starts.(Array.length starts - 1))
    else last_start (pos - 1)
  in
  let pos0, st = last_start (Array.length chain - 1) in
  let payload = psz - Sstable.Sst_format.header_bytes in
  fun j ->
    if st + j < psz then (pos0, st + j)
    else
      let r = st + j - psz in
      (pos0 + 1 + (r / payload), Sstable.Sst_format.header_bytes + (r mod payload))

type malformation = Len_plus_one | Len_minus_one | Bad_tag

let malformation_name = function
  | Len_plus_one -> "body_len+1"
  | Len_minus_one -> "body_len-1"
  | Bad_tag -> "bad tag"

(* Build [records], malform the last one, and require a typed Corrupt
   from the streaming iterator, the cached iterator and the point
   lookup alike. *)
let check_malformed ~page_size ~records what =
  let label = Printf.sprintf "%s %dB" (malformation_name what) page_size in
  let store = mk_store ~page_size () in
  let sst = build store records in
  let footer = Sstable.Reader.footer sst in
  let chain = data_chain footer in
  let at = last_frame_locator store footer in
  let key, entry = List.nth records (List.length records - 1) in
  let edit j f =
    let pos, off = at j in
    patch_page store chain.(pos) (fun b -> Bytes.set b off (f (Bytes.get b off)))
  in
  (match what with
  | Len_plus_one | Len_minus_one ->
      (* the body-length varint's low byte: +-1 must not carry *)
      let pos, off = at 0 in
      let buf = Bytes.create page_size in
      Pagestore.Store.read_page_direct store chain.(pos) buf;
      let low = Char.code (Bytes.get buf off) land 0x7f in
      if low = 0 || low = 0x7f then Alcotest.failf "%s: varint would carry" label;
      let d = if what = Len_plus_one then 1 else -1 in
      edit 0 (fun c -> Char.chr (Char.code c + d))
  | Bad_tag ->
      (* the entry ends every body: its tag sits [encoded_size entry]
         bytes before the frame's end *)
      let byte j =
        let pos, off = at j in
        let buf = Bytes.create page_size in
        Pagestore.Store.read_page_direct store chain.(pos) buf;
        Bytes.get buf off
      in
      let body_len, vlen = read_varint (String.init 3 byte) 0 in
      let tag = vlen + body_len - Kv.Entry.encoded_size entry in
      edit tag (fun _ -> '\009'));
  let expect path f =
    match f () with
    | exception Sstable.Sst_format.Corrupt _ -> ()
    | exception e ->
        Alcotest.failf "%s via %s: untyped %s" label path (Printexc.to_string e)
    | () -> Alcotest.failf "%s via %s: decoded without error" label path
  in
  expect "iterator" (fun () ->
      ignore (records_full_of_iter (Sstable.Reader.iterator sst)));
  expect "cached_iterator" (fun () ->
      ignore (records_full_of_iter (Sstable.Reader.cached_iterator sst)));
  expect "get" (fun () -> ignore (Sstable.Reader.get sst key))

let test_malformed_bodies_typed () =
  (* In-page: the last record sits whole in a 4 KiB page, followed by
     zero padding. Spilled: 300 B values on 128 B pages, so the last
     record's body runs across three pages. *)
  let in_page =
    List.init 5 (fun i ->
        (Printf.sprintf "key%d" i, Kv.Entry.Base (String.make 100 'v')))
  in
  let spilled =
    List.init 3 (fun i ->
        (Printf.sprintf "key%d" i, Kv.Entry.Base (String.make 300 'w')))
  in
  List.iter
    (fun what ->
      check_malformed ~page_size:4096 ~records:in_page what;
      check_malformed ~page_size:128 ~records:spilled what)
    [ Len_plus_one; Len_minus_one; Bad_tag ]

let test_body_decoders_reject_bad_framing () =
  (* The in-place decoders themselves: every field bounded by [stop], the
     entry ending exactly there. The footer decoder accepts only the
     "SSTF" magic: a footer stamped "SST2" (the retired prefix-compressed
     layout) or too short to hold a magic is typed corruption. *)
  let frame key entry =
    let fr = Sstable.Sst_format.Framed.create () in
    Sstable.Sst_format.Framed.set fr key ~lsn:300 entry;
    let s =
      Bytes.sub_string (Sstable.Sst_format.Framed.bytes fr) 0
        (Sstable.Sst_format.Framed.length fr)
    in
    let body_len, off = read_varint s 0 in
    (s ^ "\000", off, off + body_len)
  in
  let corrupt name f =
    match f () with
    | exception Sstable.Sst_format.Corrupt _ -> ()
    | _ -> Alcotest.failf "%s: not rejected" name
  in
  let s, pos, stop = frame "key" (Kv.Entry.Delta [ "ab"; "c" ]) in
  check Alcotest.bool "exact frame decodes" true
    (Sstable.Sst_format.decode_body_at s pos ~stop
    = ("key", Kv.Entry.Delta [ "ab"; "c" ], 300));
  corrupt "short" (fun () -> Sstable.Sst_format.decode_body_at s pos ~stop:(stop - 1));
  corrupt "long" (fun () -> Sstable.Sst_format.decode_body_at s pos ~stop:(stop + 1));
  corrupt "past string" (fun () ->
      Sstable.Sst_format.decode_body_at s pos ~stop:(String.length s + 1));
  corrupt "value tail long" (fun () ->
      let lsn = Sstable.Sst_format.lsn_at s (pos + 4) ~stop:(stop + 1) in
      Sstable.Sst_format.entry_after_lsn_at s (pos + 4) ~lsn ~stop:(stop + 1));
  let s, pos, stop = frame "k" Kv.Entry.Tombstone in
  corrupt "tombstone long" (fun () ->
      Sstable.Sst_format.decode_body_at s pos ~stop:(stop + 1));
  let store = mk_store () in
  let footer =
    Sstable.Reader.meta_blob (build store [ ("k", Kv.Entry.Base "v") ])
  in
  let magic_rejected name blob =
    match Sstable.Sst_format.decode_footer blob with
    | exception Sstable.Sst_format.Corrupt { what = "footer magic"; _ } -> ()
    | exception e -> Alcotest.failf "%s: %s" name (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: footer decoded" name
  in
  ignore (Sstable.Sst_format.decode_footer footer);
  magic_rejected "SST2 magic"
    ("SST2" ^ String.sub footer 4 (String.length footer - 4));
  magic_rejected "short blob" "SS"

(* ------------------------------------------------------------------ *)
(* On-disk bytes, pinned *)

(* A fixed record set over all three entry kinds, LSNs up to three
   varint bytes, 0-309 B values (128 B pages split records and their
   length varints) and keys of varying shared prefix. *)
let pinned_records =
  List.init 60 (fun i ->
      let key =
        Printf.sprintf "pin/%03d/%s" (i * 7) (String.make (i mod 5) 'k')
      in
      let entry =
        if i mod 11 = 5 then Kv.Entry.Tombstone
        else if i mod 7 = 3 then
          Kv.Entry.Delta [ "d"; String.make (i mod 13) 'e' ]
        else
          Kv.Entry.Base
            (String.init (i * 53 mod 310) (fun j ->
                 Char.chr (97 + ((i + j) mod 26))))
      in
      (key, entry, i * i * 97 mod 70000))

(* CRC32C of every data page (chain order), of the index blob and of the
   footer blob. *)
let format_digest ~page_size =
  let store = mk_store ~page_size () in
  let b = Sstable.Builder.create ~extent_pages:8 store in
  List.iter (fun (k, e, lsn) -> Sstable.Builder.add ~lsn b k e) pinned_records;
  let footer = Sstable.Builder.finish b ~timestamp:3 in
  let crc = Repro_util.Crc32c.string in
  let buf = Bytes.create page_size in
  let pages =
    Array.to_list (data_chain footer)
    |> List.map (fun id ->
           Pagestore.Store.read_page_direct store id buf;
           crc (Bytes.to_string buf))
  in
  ( pages,
    crc (Sstable.Builder.index_blob b),
    crc (Sstable.Sst_format.encode_footer footer) )

let pinned_digests =
  [
    (4096, [ 0x910efdd9; 0x015efb49 ], 0xcadbce75, 0xa0d96722);
    ( 128,
      [
        0xbf35f6ef; 0x92152127; 0x817d05f3; 0x20c25297; 0x165a7fdb; 0xb022326f;
        0xf581892c; 0x09142850; 0x6f9070c1; 0x0a65d818; 0xdbe19108; 0xe01190c7;
        0x4758b377; 0x417b2209; 0x238357b5; 0x43eaa8d6; 0x1f6fa4db; 0x83d12aff;
        0x008736ff; 0x6cd4cc6f; 0xe0de9109; 0xa380842a; 0x7855b992; 0x207513f7;
        0xebc4a5e3; 0xdeaccc0a; 0x04f6f5ad; 0x417b2209; 0xc0180b0e; 0x963116e4;
        0xf2ec5d3b; 0x59b9ada9; 0xe4042ade; 0x611ee219; 0x96380ff1; 0x6f9070c1;
        0x0a65d818; 0xc83554cf; 0x7855b992; 0xb5c993a1; 0x9a0be2b5; 0xb2350ae4;
        0x0a65d818; 0x2405380d; 0x48c4e64b; 0xc70aa998; 0x5593ddcf; 0x0c82734f;
        0x83d12aff; 0xab551ae4; 0x404092c4; 0x38d914c9; 0xf36db107; 0x6efef786;
        0x063030c3; 0x7855b992; 0xa103bae7; 0x4f10ff84; 0x36352c34; 0x26b3f146;
        0x3273c80b; 0x20ed248f; 0x684c95a0; 0x26b3f146; 0x20ed248f; 0xcac907b6;
      ],
      0x738a45e7, 0x60af3324 );
  ]

let test_pinned_bytes () =
  (* Any encoder change that moves a byte of the on-disk format — page,
     index or footer — fails here. *)
  List.iter
    (fun (page_size, pages, index, footer) ->
      let label = Printf.sprintf "%dB" page_size in
      let pages', index', footer' = format_digest ~page_size in
      check (Alcotest.list Alcotest.int) (label ^ " data page crcs") pages pages';
      check Alcotest.int (label ^ " index crc") index index';
      check Alcotest.int (label ^ " footer crc") footer footer')
    pinned_digests

(* ------------------------------------------------------------------ *)
(* Allocation budgets *)

(* Heap words of a string of [n] bytes: header plus padded payload. *)
let string_words n = 1 + ((n + 8) / 8)

let test_builder_alloc_budget () =
  (* Builder.add encodes each record once into a reused buffer and blits
     it into the page: no per-record Buffer, body copy or string. What is
     left past warm-up is per-page bookkeeping (index entry, simulated
     clock) amortized over the page's records — about 8 words on 4 KiB
     pages; a per-record copy of a 1 KB record alone is ~130. The
     platter's page copies are too large for the minor heap and do not
     count here. *)
  let store = mk_store ~page_size:4096 ~buffer_pages:8 () in
  let b = Sstable.Builder.create ~extent_pages:1024 store in
  let value = Kv.Entry.Base (String.make 1000 'v') in
  let keys = Array.init 2400 (Printf.sprintf "key%06d") in
  for i = 0 to 399 do
    Sstable.Builder.add b keys.(i) value
  done;
  let n = 2000 in
  let per_record = Alloc.per_op n (fun i -> Sstable.Builder.add b keys.(400 + i) value) in
  let budget = 16 in
  if per_record > budget then
    Alcotest.failf "Builder.add: %d words/record, budget %d" per_record budget

let test_iter_alloc_budget () =
  (* An in-page pull materializes the key, the value and the result
     ([Some] of a [(key, entry, lsn)] tuple around [Base value]) and
     nothing else: no body copy, no varint tuples. *)
  List.iter
    (fun cached ->
      let store = mk_store ~page_size:4096 () in
      let records =
        List.init 30 (fun i ->
            (Printf.sprintf "key%04d" i, Kv.Entry.Base (String.make 90 'v')))
      in
      let sst = build store records in
      let it =
        if cached then Sstable.Reader.cached_iterator sst
        else Sstable.Reader.iterator sst
      in
      ignore (Sstable.Reader.iter_next_full it);
      (* records 1..20 lie whole in the first page, already fetched *)
      let n = 20 in
      let words =
        Alloc.minor (fun () ->
            for _ = 1 to n do
              ignore (Sys.opaque_identity (Sstable.Reader.iter_next_full it))
            done)
      in
      let per_record = string_words 7 + string_words 90 + 2 + 4 + 2 in
      Sstable.Reader.iter_close it;
      if words > n * per_record then
        Alcotest.failf "iter_next_full (%s): %d words for %d records, budget %d"
          (if cached then "cached" else "streaming")
          words n (n * per_record))
    [ false; true ]

let test_merge_alloc_budget () =
  (* A group held by one source passes that source's pulled record
     through: over preallocated records, [next] allocates nothing, with
     one source or with several whose keys never meet, at the bottom
     level or above it. *)
  let records =
    Array.init 3000 (fun i ->
        Some (Printf.sprintf "key%06d" i, Kv.Entry.Base "v", i))
  in
  let pull_of idxs =
    let i = ref 0 in
    fun () ->
      if !i >= Array.length idxs then None
      else begin
        let r = records.(idxs.(!i)) in
        incr i;
        r
      end
  in
  let every k j = Array.init (3000 / k) (fun i -> (i * k) + j) in
  List.iter
    (fun (label, drop, inputs) ->
      let m = Sstable.Merge_iter.create ~resolver ~drop_tombstones:drop inputs in
      ignore (Sstable.Merge_iter.next m);
      let n = 900 in
      let words =
        Alloc.minor (fun () ->
            for _ = 1 to n do
              ignore (Sys.opaque_identity (Sstable.Merge_iter.next m))
            done)
      in
      if words > 0 then
        Alcotest.failf "Merge_iter.next (%s): %d words for %d records, budget 0"
          label words n)
    [ ("one source", true, [ (0, pull_of (every 1 0)) ]);
      ("one source, mid-tree", false, [ (0, pull_of (every 1 0)) ]);
      ( "three disjoint sources",
        true,
        [ (2, pull_of (every 3 2)); (0, pull_of (every 3 0)); (1, pull_of (every 3 1)) ] ) ]

(* ------------------------------------------------------------------ *)
(* C0:C1 merge passthrough: byte-identical output *)

(* An unchanged C1 record is copied to the merge output as its stored
   bytes. The output must be the very pages a decode-and-re-encode merge
   writes: the test-local reference decodes C1, folds C0 over it and
   re-encodes every record through [Builder.add]. *)
let merge_config = { Blsm.Config.default with Blsm.Config.extent_pages = 8 }

let resolver = merge_config.Blsm.Config.resolver

let page_crcs store footer =
  let buf = Bytes.create (Pagestore.Store.page_size store) in
  Array.to_list (data_chain footer)
  |> List.map (fun id ->
         Pagestore.Store.read_page_direct store id buf;
         Repro_util.Crc32c.string (Bytes.to_string buf))

(* [c0] and [c1]: (key, entry, lsn) lists, each with distinct keys. *)
let merged_pages ~page_size ~c0 ~c1 =
  let sorted l = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) l in
  let c0 = sorted c0 and c1 = sorted c1 in
  (* the passthrough merge *)
  let store = mk_store ~page_size ~buffer_pages:8 () in
  let b = Sstable.Builder.create ~extent_pages:8 store in
  List.iter (fun (k, e, lsn) -> Sstable.Builder.add ~lsn b k e) c1;
  let footer = Sstable.Builder.finish b ~timestamp:1 in
  let c1_sst =
    Sstable.Reader.open_in_ram store footer ~index:(Sstable.Builder.index_blob b)
  in
  let mem = Memtable.create ~resolver () in
  List.iter (fun (k, e, lsn) -> Memtable.write mem ~lsn k e) c0;
  let input =
    Blsm.Merge_process.c0_input ~resolver ~source:(Blsm.Merge_process.Frozen mem)
      ~c1:(Some (Blsm.Component.of_sst c1_sst)) ~run_cap:max_int
  in
  let m =
    Blsm.Merge_process.create ~config:merge_config ~store ~label:"test" ~args:[]
      ~input ~bloom_items:100 ~output:Blsm.Merge_process.Level
      ~stamp:(fun () -> 2)
  in
  while Blsm.Merge_process.step m ~quota:1000 = `More do () done;
  let out =
    match Blsm.Merge_process.finish m with
    | [ c ] -> Sstable.Reader.footer c.Blsm.Component.sst
    | _ -> Alcotest.fail "a level merge seals one component"
  in
  (* the reference: decode C1, fold C0 over it, re-encode *)
  let decoded = records_full_of_iter (Sstable.Reader.iterator c1_sst) in
  let rec fold acc c0 c1 =
    match (c0, c1) with
    | [], [] -> List.rev acc
    | r :: c0, [] | [], r :: c0 -> fold (r :: acc) c0 []
    | ((k0, e0, l0) as r0) :: c0', ((k1, e1, l1) as r1) :: c1' ->
        let c = String.compare k0 k1 in
        if c < 0 then fold (r0 :: acc) c0' c1
        else if c > 0 then fold (r1 :: acc) c0 c1'
        else
          fold
            ((k0, Kv.Entry.merge resolver ~newer:e0 ~older:e1, max l0 l1) :: acc)
            c0' c1'
  in
  let ref_store = mk_store ~page_size ~buffer_pages:8 () in
  let rb = Sstable.Builder.create ~extent_pages:8 ref_store in
  List.iter (fun (k, e, lsn) -> Sstable.Builder.add ~lsn rb k e) (fold [] c0 decoded);
  let ref_footer = Sstable.Builder.finish rb ~timestamp:2 in
  ( (page_crcs store out, out.Sstable.Sst_format.record_count,
     out.Sstable.Sst_format.tombstone_count, out.Sstable.Sst_format.data_bytes),
    ( page_crcs ref_store ref_footer, ref_footer.Sstable.Sst_format.record_count,
      ref_footer.Sstable.Sst_format.tombstone_count,
      ref_footer.Sstable.Sst_format.data_bytes ) )

(* Overlapping key sets over 0..59, every entry kind, LSNs up to three
   varint bytes, values from empty to past a 4 KiB page. *)
let gen_merge_side =
  QCheck.Gen.(
    let value =
      frequency
        [ (6, 0 -- 60); (3, 100 -- 400); (1, 4000 -- 4500) ]
      >>= fun n -> map (fun c -> String.make n c) (char_range 'a' 'z')
    in
    let entry =
      frequency
        [
          (5, map (fun v -> Kv.Entry.Base v) value);
          (2, return Kv.Entry.Tombstone);
          (2, map (fun ds -> Kv.Entry.Delta ds) (list_size (1 -- 3) (string_size (0 -- 20))));
        ]
    in
    map
      (fun l ->
        List.sort_uniq (fun (a, _, _) (b, _, _) -> String.compare a b) l)
      (list_size (0 -- 40)
         (triple (map (Printf.sprintf "key%03d") (0 -- 59)) entry (1 -- 70_000))))

let prop_merge_passthrough_bytes ~page_size =
  QCheck.Test.make
    ~name:(Printf.sprintf "c0:c1 merge = decode+re-encode, %dB pages" page_size)
    ~count:100
    QCheck.(make QCheck.Gen.(pair gen_merge_side gen_merge_side))
    (fun (c0, c1) ->
      let got, want = merged_pages ~page_size ~c0 ~c1 in
      got = want)

let test_framed_alloc_budget () =
  (* Framing an in-page C1 record builds its key and nothing else: the
     body is validated and copied into the reused frame. *)
  let store = mk_store ~page_size:4096 () in
  let records =
    List.init 30 (fun i ->
        (Printf.sprintf "key%04d" i, Kv.Entry.Base (String.make 90 'v')))
  in
  let sst = build store records in
  let it = Sstable.Reader.iterator sst in
  let fr = Sstable.Sst_format.Framed.create () in
  ignore (Sstable.Reader.iter_next_framed it fr);
  (* records 1..20 lie whole in the first page, already fetched *)
  let n = 20 in
  let words =
    Alloc.minor (fun () ->
        for _ = 1 to n do
          ignore (Sys.opaque_identity (Sstable.Reader.iter_next_framed it fr))
        done)
  in
  Sstable.Reader.iter_close it;
  check Alcotest.string "framed the 21st record" "key0020"
    (Sstable.Sst_format.Framed.key fr);
  if words > n * string_words 7 then
    Alcotest.failf "iter_next_framed: %d words for %d records, budget %d" words n
      (n * string_words 7)

let () =
  Alcotest.run "sstable"
    [
      ( "reader",
        [
          Alcotest.test_case "build and get" `Quick test_build_and_get;
          Alcotest.test_case "iterate full" `Quick test_iteration_full;
          Alcotest.test_case "iterate from" `Quick test_iteration_from;
          Alcotest.test_case "spanning pages" `Quick test_records_spanning_pages;
          Alcotest.test_case "bigger than extent" `Quick test_record_larger_than_extent;
          Alcotest.test_case "empty component" `Quick test_empty_component;
          Alcotest.test_case "mixed entries" `Quick test_mixed_entry_kinds;
          Alcotest.test_case "unsorted rejected" `Quick test_builder_rejects_unsorted;
          Alcotest.test_case "reopen from meta" `Quick test_reopen_from_meta;
          Alcotest.test_case "lookup seek cost" `Quick test_point_lookup_seek_cost;
          Alcotest.test_case "free releases space" `Quick test_free_releases_space;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_fence_locate_equals_linear;
          QCheck_alcotest.to_alcotest prop_fence_prefix_ties;
          Alcotest.test_case "fence small and edge" `Quick test_fence_small;
        ] );
      ( "restarts",
        [
          Alcotest.test_case "offsets roundtrip" `Quick
            test_restart_offsets_roundtrip;
          Alcotest.test_case "corruption detected" `Quick
            test_restart_corruption_detected;
          Alcotest.test_case "truncated mid-record" `Quick
            test_truncated_mid_record_is_typed_corrupt;
          Alcotest.test_case "verified once" `Quick test_verified_once_semantics;
          Alcotest.test_case "tiny pool pins" `Quick test_tiny_pool_pin_release;
          Alcotest.test_case "stream buffer reuse" `Quick test_stream_buffer_reuse;
          QCheck_alcotest.to_alcotest prop_restart_get_equals_linear;
        ] );
      ( "v2",
        [
          Alcotest.test_case "build and get" `Quick test_prefix_build_and_get;
          Alcotest.test_case "spanning pages" `Quick test_prefix_spanning_pages;
          Alcotest.test_case "iterate from" `Quick test_prefix_iteration_from;
          Alcotest.test_case "reopen from meta" `Quick test_prefix_reopen_from_meta;
          QCheck_alcotest.to_alcotest prop_prefix_get_equals_linear;
          QCheck_alcotest.to_alcotest prop_prefix_roundtrip;
        ] );
      ( "format",
        [
          Alcotest.test_case "malformed bodies typed" `Quick
            test_malformed_bodies_typed;
          Alcotest.test_case "decoders reject bad framing" `Quick
            test_body_decoders_reject_bad_framing;
          Alcotest.test_case "pinned on-disk bytes" `Quick test_pinned_bytes;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "builder add budget" `Quick test_builder_alloc_budget;
          Alcotest.test_case "iter_next_full budget" `Quick test_iter_alloc_budget;
          Alcotest.test_case "merge next budget" `Quick test_merge_alloc_budget;
          Alcotest.test_case "framed record budget" `Quick test_framed_alloc_budget;
        ] );
      ( "passthrough",
        [
          QCheck_alcotest.to_alcotest (prop_merge_passthrough_bytes ~page_size:4096);
          QCheck_alcotest.to_alcotest (prop_merge_passthrough_bytes ~page_size:128);
        ] );
      ( "merge_iter",
        [
          Alcotest.test_case "shadowing" `Quick test_merge_shadowing;
          Alcotest.test_case "tombstone dropped" `Quick test_merge_tombstone_dropped_at_bottom;
          Alcotest.test_case "tombstone kept" `Quick test_merge_tombstone_kept_mid_tree;
          Alcotest.test_case "orphan delta" `Quick test_merge_delta_resolution_at_bottom;
          Alcotest.test_case "three way" `Quick test_merge_three_way;
          QCheck_alcotest.to_alcotest prop_merge_equals_map_union;
          QCheck_alcotest.to_alcotest prop_merge_equals_list_fold;
        ] );
    ]
