(* Partitioned bLSM tests: routing, cross-partition scans, model-based
   random ops, the skew benefit (merge activity concentrated on written
   ranges), and the streaming cursor API. *)

let check = Alcotest.check
module SMap = Map.Make (String)

let mk_store ?(buffer_pages = 256) () =
  Pagestore.Store.create
    ~config:
      { Pagestore.Store.cfg_page_size = 4096;
        cfg_buffer_pages = buffer_pages;
        cfg_durability = Pagestore.Wal.Full }
    Simdisk.Profile.ssd_raid0

let small_config =
  {
    Blsm.Config.default with
    Blsm.Config.c0_bytes = 64 * 1024;
    size_ratio = Blsm.Config.Fixed 4.0;
    extent_pages = 16;
    max_quota_per_write = 256 * 1024;
  }

let mk ?(boundaries = [ "g"; "n"; "t" ]) () =
  Blsm.Partitioned.create ~config:small_config ~boundaries (mk_store ())

let test_routing () =
  let t = mk () in
  check Alcotest.int "4 partitions" 4 (Blsm.Partitioned.partition_count t);
  check Alcotest.int "a -> 0" 0 (Blsm.Partitioned.partition_index t "a");
  check Alcotest.int "g -> 1" 1 (Blsm.Partitioned.partition_index t "g");
  check Alcotest.int "m -> 1" 1 (Blsm.Partitioned.partition_index t "m");
  check Alcotest.int "n -> 2" 2 (Blsm.Partitioned.partition_index t "n");
  check Alcotest.int "z -> 3" 3 (Blsm.Partitioned.partition_index t "z")

(* Routing and the recovery replay filter agree: a key written to
   partition i is replayed into partition i. Keys are drawn around the
   boundaries: the boundaries themselves, their prefixes and one-byte
   extensions, and random short keys. *)
let prop_routing_matches_replay_filter =
  let boundary_keys bs =
    List.concat_map
      (fun b ->
        let n = String.length b in
        [ b; b ^ "\000"; b ^ "a"; String.sub b 0 (max 0 (n - 1)); "" ])
      bs
  in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 0 6) (string_size ~gen:(char_range 'a' 'e') (int_range 1 3)))
        (list_size (int_range 1 20) (string_size ~gen:(char_range '`' 'f') (int_range 0 4))))
  in
  QCheck.Test.make ~name:"routing = replay filter" ~count:300
    (QCheck.make ~print:QCheck.Print.(pair (list string) (list string)) gen)
    (fun (boundaries, keys) ->
      let t = Blsm.Partitioned.create ~config:small_config ~boundaries (mk_store ()) in
      List.for_all
        (fun k -> Blsm.Partitioned.range_of t (Blsm.Partitioned.partition_index t k) k)
        (keys @ boundary_keys boundaries))

let test_put_get_across_partitions () =
  let t = mk () in
  List.iter
    (fun k -> Blsm.Partitioned.put t k ("v-" ^ k))
    [ "apple"; "grape"; "mango"; "nectarine"; "tomato"; "zucchini" ];
  List.iter
    (fun k ->
      check (Alcotest.option Alcotest.string) k (Some ("v-" ^ k))
        (Blsm.Partitioned.get t k))
    [ "apple"; "grape"; "mango"; "nectarine"; "tomato"; "zucchini" ];
  check (Alcotest.option Alcotest.string) "missing" None
    (Blsm.Partitioned.get t "kiwi")

let test_scan_chains_partitions () =
  let t = mk () in
  List.iter
    (fun k -> Blsm.Partitioned.put t k k)
    [ "a1"; "f9"; "g1"; "m9"; "n1"; "s9"; "t1"; "z9" ];
  let all = Blsm.Partitioned.scan t "" 100 in
  check
    (Alcotest.list Alcotest.string)
    "sorted across partitions"
    [ "a1"; "f9"; "g1"; "m9"; "n1"; "s9"; "t1"; "z9" ]
    (List.map fst all);
  (* scan starting mid-partition and crossing two boundaries *)
  let mid = Blsm.Partitioned.scan t "m0" 4 in
  check (Alcotest.list Alcotest.string) "crosses boundaries"
    [ "m9"; "n1"; "s9"; "t1" ] (List.map fst mid);
  (* bounded scan does not over-fetch *)
  check Alcotest.int "limit respected" 2
    (List.length (Blsm.Partitioned.scan t "a" 2))

let test_deltas_and_deletes_routed () =
  let t = mk () in
  Blsm.Partitioned.put t "grape" "g";
  Blsm.Partitioned.apply_delta t "grape" "+1";
  check (Alcotest.option Alcotest.string) "delta" (Some "g+1")
    (Blsm.Partitioned.get t "grape");
  Blsm.Partitioned.delete t "grape";
  check (Alcotest.option Alcotest.string) "deleted" None
    (Blsm.Partitioned.get t "grape");
  check Alcotest.bool "iine after delete" true
    (Blsm.Partitioned.insert_if_absent t "grape" "again")

let prop_model =
  QCheck.Test.make ~name:"partitioned vs Map model" ~count:40
    (QCheck.make
       QCheck.Gen.(
         list_size (50 -- 400)
           (oneof
              [
                map (fun k -> `Put (k mod 200)) small_nat;
                map (fun k -> `Del (k mod 200)) small_nat;
                map (fun k -> `Get (k mod 200)) small_nat;
                map (fun k -> `Scan (k mod 200)) small_nat;
              ])))
    (fun ops ->
      let t =
        Blsm.Partitioned.create ~config:small_config
          ~boundaries:[ "key05"; "key10"; "key15" ]
          (mk_store ())
      in
      let m = ref SMap.empty in
      let ok = ref true in
      List.iteri
        (fun step op ->
          let key k = Printf.sprintf "key%03d" k in
          match op with
          | `Put k ->
              let v = Printf.sprintf "v%d-%s" step (String.make 50 'p') in
              Blsm.Partitioned.put t (key k) v;
              m := SMap.add (key k) v !m
          | `Del k ->
              Blsm.Partitioned.delete t (key k);
              m := SMap.remove (key k) !m
          | `Get k ->
              if Blsm.Partitioned.get t (key k) <> SMap.find_opt (key k) !m then
                ok := false
          | `Scan k ->
              let got = Blsm.Partitioned.scan t (key k) 7 in
              let expected =
                SMap.to_seq_from (key k) !m |> Seq.take 7 |> List.of_seq
              in
              if got <> expected then ok := false)
        ops;
      Blsm.Partitioned.flush t;
      !ok
      && SMap.for_all (fun k v -> Blsm.Partitioned.get t k = Some v) !m
      && Blsm.Partitioned.scan t "" 10_000 = SMap.bindings !m)

let test_skew_concentrates_merges () =
  (* write only one range: other partitions must stay empty on disk *)
  let t = mk ~boundaries:[ "b"; "c"; "d" ] () in
  for i = 0 to 2999 do
    Blsm.Partitioned.put t
      (Printf.sprintf "c%06d" i)
      (String.make 100 'v')
  done;
  Blsm.Partitioned.flush t;
  let bytes = Blsm.Partitioned.partition_bytes t in
  check Alcotest.int "partition 0 untouched" 0 bytes.(0);
  check Alcotest.int "partition 1 untouched" 0 bytes.(1);
  check Alcotest.int "partition 3 untouched" 0 bytes.(3);
  check Alcotest.bool "partition 2 has the data" true (bytes.(2) > 0)

let test_adversarial_shift_stalls_less () =
  (* §4.2.2: after filling one range, a burst into a disjoint range should
     stall a partitioned tree less than a monolithic one *)
  let run_mono () =
    let tree = Blsm.Tree.create ~config:{ small_config with Blsm.Config.c0_bytes = 256 * 1024 } (mk_store ()) in
    let disk = Blsm.Tree.disk tree in
    for i = 0 to 2999 do
      Blsm.Tree.put tree (Printf.sprintf "z%06d" i) (String.make 100 'v')
    done;
    let worst = ref 0.0 in
    for i = 0 to 2999 do
      let t0 = Simdisk.Disk.now_us disk in
      Blsm.Tree.put tree (Printf.sprintf "a%06d" i) (String.make 100 'v');
      worst := Float.max !worst (Simdisk.Disk.now_us disk -. t0)
    done;
    !worst
  in
  let run_part () =
    let t =
      Blsm.Partitioned.create
        ~config:{ small_config with Blsm.Config.c0_bytes = 256 * 1024 }
        ~boundaries:[ "m" ] (mk_store ())
    in
    let disk = Blsm.Partitioned.disk t in
    for i = 0 to 2999 do
      Blsm.Partitioned.put t (Printf.sprintf "z%06d" i) (String.make 100 'v')
    done;
    let worst = ref 0.0 in
    for i = 0 to 2999 do
      let t0 = Simdisk.Disk.now_us disk in
      Blsm.Partitioned.put t (Printf.sprintf "a%06d" i) (String.make 100 'v');
      worst := Float.max !worst (Simdisk.Disk.now_us disk -. t0)
    done;
    !worst
  in
  let mono = run_mono () and part = run_part () in
  if part > mono then
    Alcotest.failf "partitioned worst stall (%.0fus) > monolithic (%.0fus)" part mono

(* Crash recovery of a shared store *)

let test_partitioned_crash_recovery () =
  let t = mk ~boundaries:[ "g"; "n" ] () in
  List.iter (fun (k, v) -> Blsm.Partitioned.put t k v)
    [ ("apple", "1"); ("grape", "2"); ("orange", "3") ];
  Blsm.Partitioned.apply_delta t "apple" "+d";
  let t = Blsm.Partitioned.crash_and_recover t in
  check (Alcotest.option Alcotest.string) "p0 key" (Some "1+d")
    (Blsm.Partitioned.get t "apple");
  check (Alcotest.option Alcotest.string) "p1 key" (Some "2")
    (Blsm.Partitioned.get t "grape");
  check (Alcotest.option Alcotest.string) "p2 key" (Some "3")
    (Blsm.Partitioned.get t "orange");
  (* records must not leak into the wrong partition's replay *)
  check Alcotest.int "exactly 3 rows" 3
    (List.length (Blsm.Partitioned.scan t "" 100));
  (* recovered store keeps working *)
  Blsm.Partitioned.put t "zebra" "4";
  check (Alcotest.option Alcotest.string) "writable" (Some "4")
    (Blsm.Partitioned.get t "zebra")

let test_partitioned_truncation_preserves_other_partitions () =
  (* heavy traffic in one partition drives its merges (and its WAL floor)
     far ahead; a lone unmerged record in another partition must survive
     the crash - the per-client floor keeps its log record alive *)
  let t = mk ~boundaries:[ "m" ] () in
  Blsm.Partitioned.put t "aaa-lonely" "precious";
  (* the busy partition's merges complete inline during these inserts and
     propose truncation far past the lonely record's LSN; the idle
     partition's registered floor must keep that record alive. No flush:
     "aaa-lonely" stays in the idle partition's C0, WAL-only. *)
  for i = 0 to 4999 do
    Blsm.Partitioned.put t (Printf.sprintf "z%06d" i) (String.make 100 'v')
  done;
  let t = Blsm.Partitioned.crash_and_recover t in
  check (Alcotest.option Alcotest.string)
    "unmerged record in idle partition survives" (Some "precious")
    (Blsm.Partitioned.get t "aaa-lonely");
  check (Alcotest.option Alcotest.string) "busy partition intact"
    (Some (String.make 100 'v'))
    (Blsm.Partitioned.get t "z004999")

let prop_partitioned_crash_model =
  QCheck.Test.make ~name:"partitioned crash recovery vs model" ~count:20
    QCheck.(pair small_int (int_range 0 399))
    (fun (seed, crash_at) ->
      let t =
        ref
          (Blsm.Partitioned.create ~config:small_config
             ~boundaries:[ "key100"; "key200" ] (mk_store ()))
      in
      let m = ref SMap.empty in
      let prng = Repro_util.Prng.of_int (seed + 31) in
      for i = 0 to 399 do
        let key = Printf.sprintf "key%03d" (Repro_util.Prng.int prng 300) in
        (match Repro_util.Prng.int prng 5 with
        | 0 | 1 | 2 ->
            let v = Printf.sprintf "v%d" i in
            Blsm.Partitioned.put !t key v;
            m := SMap.add key v !m
        | 3 ->
            Blsm.Partitioned.delete !t key;
            m := SMap.remove key !m
        | _ ->
            Blsm.Partitioned.apply_delta !t key "+d";
            m :=
              SMap.update key
                (function Some v -> Some (v ^ "+d") | None -> Some "+d")
                !m);
        if i = crash_at then t := Blsm.Partitioned.crash_and_recover !t
      done;
      Blsm.Partitioned.scan !t "" 10_000 = SMap.bindings !m)

(* Cursor API *)

let test_cursor_streams () =
  let store = mk_store () in
  let tree = Blsm.Tree.create ~config:small_config store in
  for i = 0 to 499 do
    Blsm.Tree.put tree (Printf.sprintf "k%04d" i) (string_of_int i)
  done;
  Blsm.Tree.delete tree "k0100";
  let c = Blsm.Tree.cursor ~from:"k0099" tree in
  (match Blsm.Tree.cursor_next c with
  | Some ("k0099", "99") -> ()
  | _ -> Alcotest.fail "cursor first row wrong");
  (match Blsm.Tree.cursor_next c with
  | Some ("k0101", "101") -> () (* k0100 deleted *)
  | Some (k, _) -> Alcotest.failf "expected k0101, got %s" k
  | None -> Alcotest.fail "cursor ended early");
  (* drain to the end *)
  let rec drain n = match Blsm.Tree.cursor_next c with None -> n | Some _ -> drain (n + 1) in
  check Alcotest.int "remaining rows" 398 (drain 0)

let test_cursor_empty_tree () =
  let tree = Blsm.Tree.create ~config:small_config (mk_store ()) in
  let c = Blsm.Tree.cursor tree in
  check Alcotest.bool "empty" true (Blsm.Tree.cursor_next c = None)

let test_partitioned_cursor_chains () =
  let t = mk () in
  List.iter (fun k -> Blsm.Partitioned.put t k k)
    [ "a1"; "f9"; "g1"; "m9"; "n1"; "s9"; "t1"; "z9" ];
  let c = Blsm.Partitioned.cursor ~from:"f0" t in
  let rec drain acc =
    match Blsm.Partitioned.cursor_next c with
    | None -> List.rev acc
    | Some (k, _) -> drain (k :: acc)
  in
  check (Alcotest.list Alcotest.string) "chained across partitions"
    [ "f9"; "g1"; "m9"; "n1"; "s9"; "t1"; "z9" ]
    (drain [])

let prop_partitioned_cursor_equals_scan =
  QCheck.Test.make ~name:"partitioned cursor = scan" ~count:30
    QCheck.(list_of_size Gen.(0 -- 100) (int_range 0 299))
    (fun keys ->
      let t =
        Blsm.Partitioned.create ~config:small_config
          ~boundaries:[ "key100"; "key200" ] (mk_store ())
      in
      List.iter
        (fun k -> Blsm.Partitioned.put t (Printf.sprintf "key%03d" k) "v")
        keys;
      let c = Blsm.Partitioned.cursor t in
      let rec drain acc =
        match Blsm.Partitioned.cursor_next c with
        | None -> List.rev acc
        | Some row -> drain (row :: acc)
      in
      drain [] = Blsm.Partitioned.scan t "" 10_000)

let prop_cursor_equals_scan =
  QCheck.Test.make ~name:"cursor = scan" ~count:40
    QCheck.(pair (list_of_size Gen.(0 -- 150) (int_range 0 300)) (int_range 0 300))
    (fun (keys, from) ->
      let tree = Blsm.Tree.create ~config:small_config (mk_store ()) in
      List.iter
        (fun k -> Blsm.Tree.put tree (Printf.sprintf "%03d" k) (string_of_int k))
        keys;
      let from = Printf.sprintf "%03d" from in
      let via_scan = Blsm.Tree.scan tree from 1000 in
      let c = Blsm.Tree.cursor ~from tree in
      let rec drain acc =
        match Blsm.Tree.cursor_next c with
        | None -> List.rev acc
        | Some row -> drain (row :: acc)
      in
      drain [] = via_scan)

(* Each partition's share of a batch's payload bytes (keys and values),
   the weights the shared record's append time is split by. *)
let payload_by_partition t ops =
  let bytes = Array.make (Blsm.Partitioned.partition_count t) 0 in
  List.iter
    (fun op ->
      let i = Blsm.Partitioned.partition_index t (fst op) in
      bytes.(i) <- bytes.(i) + Blsm.Lsm_shell.payload_bytes [ op ])
    ops;
  bytes

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* A batch across partitions appends one shared WAL record. Its append
   costs what a single tree's write_batch of the same ops costs, and that
   cost is charged to the covered partitions' WAL time, split by their
   slices' payload bytes; one tree/batch span covers each batch. *)
let test_batch_wal_time_charged () =
  let batches =
    [
      [ ("apple", Kv.Entry.Base (String.make 100 'a'));
        ("house", Kv.Entry.Base (String.make 300 'h'));
        ("zebra", Kv.Entry.Tombstone) ];
      [ ("kiwi", Kv.Entry.Base (String.make 50 'k'));
        ("mango", Kv.Entry.Base (String.make 700 'm'));
        ("pear", Kv.Entry.Base "p");
        ("quince", Kv.Entry.Delta [ "q" ]) ];
      [ ("tomato", Kv.Entry.Base (String.make 2000 't')) ];
    ]
  in
  let single = Blsm.Tree.create ~config:small_config (mk_store ()) in
  let store = mk_store () in
  let t = Blsm.Partitioned.create ~config:small_config ~boundaries:[ "g"; "n"; "t" ] store in
  let finish = Obs.Trace.enable_buffer (Pagestore.Store.trace store) ~format:Obs.Trace.Jsonl in
  let eps = 1e-9 in
  List.iter
    (fun ops ->
      let tree_before = (Blsm.Tree.stats single).wal_us in
      let part_before = Array.map (fun s -> s.Blsm.Tree.wal_us) (Blsm.Partitioned.partition_stats t) in
      Blsm.Tree.write_batch single ops;
      Blsm.Partitioned.write_batch t ops;
      let cost = (Blsm.Tree.stats single).wal_us -. tree_before in
      let shares =
        Array.mapi
          (fun i s -> s.Blsm.Tree.wal_us -. part_before.(i))
          (Blsm.Partitioned.partition_stats t)
      in
      if cost <= 0.0 then Alcotest.fail "the single tree's append is free";
      let total = Array.fold_left ( +. ) 0.0 shares in
      if Float.abs (total -. cost) > eps then
        Alcotest.failf "partition WAL shares sum to %g us, a single tree's append costs %g us"
          total cost;
      let bytes = payload_by_partition t ops in
      let all = Array.fold_left ( + ) 0 bytes in
      Array.iteri
        (fun i share ->
          let want = cost *. float_of_int bytes.(i) /. float_of_int all in
          if Float.abs (share -. want) > eps then
            Alcotest.failf "partition %d: %g us of WAL time, %d of %d payload bytes want %g"
              i share bytes.(i) all want)
        shares)
    batches;
  let trace = finish () in
  let spans =
    List.length
      (List.filter
         (fun line ->
           contains line "\"name\":\"batch\""
           && contains line "\"cat\":\"tree\"")
         (String.split_on_char '\n' trace))
  in
  check Alcotest.int "one tree/batch span per batch" (List.length batches) spans

let () =
  Alcotest.run "partitioned"
    [
      ( "partitioned",
        [
          Alcotest.test_case "routing" `Quick test_routing;
          Alcotest.test_case "batch WAL time charged" `Quick test_batch_wal_time_charged;
          Alcotest.test_case "put/get across partitions" `Quick test_put_get_across_partitions;
          Alcotest.test_case "scan chains" `Quick test_scan_chains_partitions;
          Alcotest.test_case "deltas/deletes routed" `Quick test_deltas_and_deletes_routed;
          Alcotest.test_case "skew concentrates merges" `Quick test_skew_concentrates_merges;
          Alcotest.test_case "adversarial shift" `Quick test_adversarial_shift_stalls_less;
          Alcotest.test_case "crash recovery" `Quick test_partitioned_crash_recovery;
          Alcotest.test_case "truncation respects all floors" `Quick
            test_partitioned_truncation_preserves_other_partitions;
          QCheck_alcotest.to_alcotest prop_routing_matches_replay_filter;
          QCheck_alcotest.to_alcotest prop_partitioned_crash_model;
          QCheck_alcotest.to_alcotest prop_model;
        ] );
      ( "cursor",
        [
          Alcotest.test_case "streams" `Quick test_cursor_streams;
          Alcotest.test_case "empty tree" `Quick test_cursor_empty_tree;
          Alcotest.test_case "partitioned cursor" `Quick test_partitioned_cursor_chains;
          QCheck_alcotest.to_alcotest prop_partitioned_cursor_equals_scan;
          QCheck_alcotest.to_alcotest prop_cursor_equals_scan;
        ] );
    ]
