(* Fault injection and corruption tolerance.

   A seeded, deterministic fault plan (Simdisk.Faults) tears in-flight
   writes at power loss, drops acked-but-unpersisted pages, flips stored
   bits, and fires crash points mid-merge and mid-flush. These tests
   check the recovery contract on top of that:

   - torn WAL tail  -> truncated; recovery lands on the exact acked prefix
   - mid-log WAL rot -> typed Tree.Corruption, never silent skipping
   - torn/rotted component pages -> detected by checksums; rebuilt from
     WAL replay when the log still covers the component, quarantined
     (loud reads) when it does not, masked when the damage is derived
     data (Bloom filters)
   - Tree.scrub walks every checksum on demand and reports what it finds
   - Degraded durability actually differs from Full: the unsynced
     group-commit window is lost at crash, as a clean prefix

   All invariants are checked against a Map model of acked operations:
   never a silently wrong get/scan. *)

module SMap = Map.Make (String)

let mk_store ?(durability = Pagestore.Wal.Full) () =
  Pagestore.Store.create
    ~config:
      { Pagestore.Store.cfg_page_size = 4096;
        cfg_buffer_pages = 128;
        cfg_durability = durability }
    Simdisk.Profile.ssd_raid0

let small_config ?(scheduler = Blsm.Config.Spring) ?(snowshovel = true) () =
  {
    Blsm.Config.default with
    Blsm.Config.c0_bytes = 24 * 1024;
    size_ratio = Blsm.Config.Fixed 3.0;
    extent_pages = 8;
    scheduler;
    snowshovel;
    max_quota_per_write = 128 * 1024;
  }

(* Platter page id of chain position [pos] in a component. *)
let page_at (f : Sstable.Sst_format.footer) pos =
  let rec go pos = function
    | [] -> invalid_arg "page_at"
    | (start, len) :: rest -> if pos < len then start + pos else go (pos - len) rest
  in
  go pos f.Sstable.Sst_format.extents

(* First mounted component that has data pages, newest level first. *)
let first_data_component tree =
  List.find
    (fun ((_ : string), (f : Sstable.Sst_format.footer)) ->
      f.Sstable.Sst_format.data_pages > 0)
    (Blsm.Tree.component_footers tree)

let check_model ~what tree model =
  SMap.iter
    (fun k v ->
      match Blsm.Tree.get tree k with
      | Some v' when v' = v -> ()
      | _ -> Alcotest.failf "%s: key %s wrong or missing" what k)
    model;
  if Blsm.Tree.scan tree "" 100_000 <> SMap.bindings model then
    Alcotest.failf "%s: scan disagrees with model" what

(* Every modelled key reads either correctly or loudly; returns how many
   reads raised the typed corruption error. *)
let count_loud_reads tree model =
  let raised = ref 0 in
  SMap.iter
    (fun k v ->
      match Blsm.Tree.get tree k with
      | Some v' when v' = v -> ()
      | Some _ | None -> Alcotest.failf "silently wrong answer for key %s" k
      | exception Blsm.Tree.Corruption _ -> incr raised)
    model;
  !raised

(* ------------------------------------------------------------------ *)
(* The acceptance scenario: one seeded plan drives a torn page at a
   mid-merge power loss, then a torn WAL tail, then bit rot in a live
   component extent. Recovery must land on the exact acked state each
   time, with the rot reported by scrub and the read path. *)

let test_acceptance_scenario () =
  let store = mk_store () in
  let wal = Pagestore.Store.wal store in
  let tree = ref (Blsm.Tree.create ~config:(small_config ()) store) in
  let model = ref SMap.empty in
  let put i =
    let k = Printf.sprintf "key%04d" (i mod 300) in
    let v = Printf.sprintf "v%06d-%s" i (String.make 60 'p') in
    Blsm.Tree.put !tree k v;
    (* only reached when the put was acked *)
    model := SMap.add k v !model
  in
  for i = 0 to 1499 do put i done;
  Blsm.Tree.flush !tree;
  (* 1. power loss tearing the in-flight page of a merge flush *)
  let plan = Simdisk.Faults.create ~seed:0xb15a () in
  Pagestore.Store.set_faults store plan;
  Simdisk.Faults.schedule_crash_at_page_write ~torn:true plan ~after:30;
  let fired = ref false in
  (try
     for i = 1500 to 3999 do put i done
   with Simdisk.Faults.Crash_point _ -> fired := true);
  Alcotest.(check bool) "mid-merge crash fired" true !fired;
  tree := Blsm.Tree.crash_and_recover ~verify:true !tree;
  (* ~verify checksummed every mounted page: no torn component visible *)
  check_model ~what:"after mid-merge torn-page crash" !tree !model;
  (* 2. power loss tearing the in-flight WAL append *)
  Simdisk.Faults.schedule_crash_at_wal_append ~torn:true plan ~after:12;
  let fired = ref false in
  (try
     for i = 4000 to 4999 do put i done
   with Simdisk.Faults.Crash_point _ -> fired := true);
  Alcotest.(check bool) "torn-append crash fired" true !fired;
  tree := Blsm.Tree.crash_and_recover ~verify:true !tree;
  check_model ~what:"after torn WAL tail" !tree !model;
  Alcotest.(check bool) "replay truncated a torn tail" true
    (Pagestore.Wal.torn_tail_drops wal >= 1);
  (* 3. bit rot in a live component extent *)
  Blsm.Tree.flush !tree;
  let _, f = first_data_component !tree in
  let page = page_at f 0 in
  Alcotest.(check bool) "bit flipped" true
    (Pagestore.Store.corrupt_page store page ~byte:512 ~bit:3);
  let report = Blsm.Tree.scrub !tree in
  Alcotest.(check bool) "scrub is not clean" false report.Blsm.Tree.scrub_clean;
  Alcotest.(check bool) "scrub names the rotted page" true
    (List.exists
       (fun ((_ : string), what, p) -> p = page && what = "data page checksum")
       report.Blsm.Tree.scrub_errors);
  let loud = count_loud_reads !tree !model in
  Alcotest.(check bool) "rot is loud on the read path" true (loud > 0);
  Alcotest.(check bool) "stats counted the corruption" true
    ((Blsm.Tree.stats !tree).Blsm.Tree.corruptions_detected > 0)

(* ------------------------------------------------------------------ *)
(* Rebuild-from-WAL: when the log still covers a component, a rotted
   page costs nothing but the replay — recovery drops the component and
   the acked state comes back exactly. *)

let test_bitflip_rebuild_from_wal () =
  let store = mk_store () in
  let wal = Pagestore.Store.wal store in
  (* a second log client pins the truncation floor, so every component
     stays fully WAL-covered *)
  Pagestore.Wal.register_client wal ~client:"pin";
  let tree = ref (Blsm.Tree.create ~config:(small_config ()) store) in
  let model = ref SMap.empty in
  for i = 0 to 999 do
    let k = Printf.sprintf "key%04d" (i mod 250) in
    let v = Printf.sprintf "v%06d-%s" i (String.make 50 'r') in
    Blsm.Tree.put !tree k v;
    model := SMap.add k v !model
  done;
  Blsm.Tree.flush !tree;
  let _, f = first_data_component !tree in
  Alcotest.(check bool) "flipped" true
    (Pagestore.Store.corrupt_page store (page_at f 0) ~byte:700 ~bit:5);
  tree := Blsm.Tree.crash_and_recover ~verify:true !tree;
  Alcotest.(check bool) "component was rebuilt from the log" true
    ((Blsm.Tree.stats !tree).Blsm.Tree.component_rebuilds >= 1);
  check_model ~what:"after rebuild" !tree !model;
  let report = Blsm.Tree.scrub !tree in
  Alcotest.(check bool) "scrub clean after rebuild" true
    report.Blsm.Tree.scrub_clean

(* Quarantine: under Degraded durability the log never covers a
   component, so a rotted one is mounted read-around — good pages stay
   readable, the rotted one raises the typed error. *)

let test_bitflip_quarantine () =
  let store = mk_store ~durability:Pagestore.Wal.Degraded () in
  let wal = Pagestore.Store.wal store in
  let tree = ref (Blsm.Tree.create ~config:(small_config ()) store) in
  let model = ref SMap.empty in
  for i = 0 to 999 do
    let k = Printf.sprintf "key%04d" (i mod 250) in
    let v = Printf.sprintf "v%06d-%s" i (String.make 50 'q') in
    Blsm.Tree.put !tree k v;
    model := SMap.add k v !model
  done;
  Blsm.Tree.flush !tree;
  Pagestore.Wal.sync wal;
  (* group-commit tail synced: the crash loses nothing *)
  let _, f = first_data_component !tree in
  Alcotest.(check bool) "flipped" true
    (Pagestore.Store.corrupt_page store (page_at f 0) ~byte:256 ~bit:1);
  tree := Blsm.Tree.crash_and_recover ~verify:true !tree;
  Alcotest.(check bool) "component quarantined" true
    ((Blsm.Tree.stats !tree).Blsm.Tree.quarantined_components >= 1);
  let loud = count_loud_reads !tree !model in
  Alcotest.(check bool) "the rotted page is loud, the rest readable" true
    (loud > 0 && loud < SMap.cardinal !model)

(* A rotted Bloom blob is derived data: recovery masks it by rebuilding
   the filter from a scan. No drop, no quarantine, no read errors. *)

let test_bloom_rot_masked () =
  let config = { (small_config ()) with Blsm.Config.persist_bloom = true } in
  let store = mk_store () in
  let tree = ref (Blsm.Tree.create ~config store) in
  let model = ref SMap.empty in
  for i = 0 to 999 do
    let k = Printf.sprintf "key%04d" (i mod 250) in
    let v = Printf.sprintf "v%06d" i in
    Blsm.Tree.put !tree k v;
    model := SMap.add k v !model
  done;
  Blsm.Tree.flush !tree;
  let _, f =
    List.find
      (fun ((_ : string), (f : Sstable.Sst_format.footer)) ->
        f.Sstable.Sst_format.bloom_pages > 0)
      (Blsm.Tree.component_footers !tree)
  in
  let bloom_page =
    page_at f (f.Sstable.Sst_format.data_pages + f.Sstable.Sst_format.index_pages)
  in
  Alcotest.(check bool) "flipped" true
    (Pagestore.Store.corrupt_page store bloom_page ~byte:3 ~bit:0);
  tree := Blsm.Tree.crash_and_recover ~verify:true !tree;
  let s = Blsm.Tree.stats !tree in
  Alcotest.(check int) "nothing dropped" 0 s.Blsm.Tree.component_rebuilds;
  Alcotest.(check int) "nothing quarantined" 0 s.Blsm.Tree.quarantined_components;
  Alcotest.(check bool) "but the rot was counted" true
    (s.Blsm.Tree.corruptions_detected > 0);
  check_model ~what:"bloom rot masked" !tree !model

(* A persisted Bloom blob can pass its checksum and still not decode: a
   blob led by 0x00 (the retired cache-line-blocked layout's marker,
   which reads as a filter of fewer than 64 bits), a truncated bit array,
   trailing bytes. That is derived data gone bad, like a rotted blob:
   [Component.build_bloom] and a mount rebuild the filter from a
   component scan instead of raising out of recovery. *)
let test_malformed_bloom_blob_rebuilt () =
  let keys = List.init 300 (Printf.sprintf "key%04d") in
  let good =
    let b = Bloom.create ~expected_items:(List.length keys) () in
    List.iter (Bloom.add b) keys;
    Bloom.to_string b
  in
  let header fields =
    let buf = Buffer.create 8 in
    List.iter (Repro_util.Varint.write buf) fields;
    Buffer.contents buf
  in
  (* A rebuilt filter holds every key and answers absent keys mostly
     no; the all-ones garbage blob would answer yes to everything. *)
  let check_rebuilt what bloom =
    Alcotest.(check int) (what ^ ": rebuilt from a scan") (List.length keys)
      (Bloom.inserted bloom);
    List.iter
      (fun k -> if not (Bloom.mem bloom k) then Alcotest.failf "%s: lost %s" what k)
      keys;
    let fps =
      List.length
        (List.filter (Bloom.mem bloom) (List.init 1000 (Printf.sprintf "absent%04d")))
    in
    if fps > 50 then Alcotest.failf "%s: %d false positives in 1000" what fps
  in
  List.iter
    (fun (what, bloom_blob) ->
      let store = mk_store () in
      let b = Sstable.Builder.create ~extent_pages:8 store in
      List.iter (fun k -> Sstable.Builder.add b k (Kv.Entry.Base ("v" ^ k))) keys;
      let footer = Sstable.Builder.finish ~bloom_blob b ~timestamp:1 in
      (match
         Blsm.Component.build_bloom ~bits_per_key:10
           (Sstable.Reader.open_from_disk store footer)
       with
      | Some bloom -> check_rebuilt what bloom
      | None -> Alcotest.failf "%s: no filter" what);
      let sh = Blsm.Lsm_shell.create (small_config ()) store in
      match
        Blsm.Lsm_shell.mount sh ~level:"C1" ~verify:true
          ~covered:(fun _ -> false)
          (Sstable.Sst_format.encode_footer footer)
      with
      | None -> Alcotest.failf "%s: component dropped" what
      | Some c ->
          let s = Blsm.Lsm_shell.stats sh in
          Alcotest.(check int) (what ^ ": nothing quarantined") 0
            s.Blsm.Lsm_shell.quarantined_components;
          (match c.Blsm.Component.bloom with
          | Some bloom -> check_rebuilt what bloom
          | None -> Alcotest.failf "%s: mounted without a filter" what);
          List.iter
            (fun k ->
              match Blsm.Component.get c k with
              | Some (Kv.Entry.Base v) when String.equal v ("v" ^ k) -> ()
              | _ -> Alcotest.failf "%s: wrong answer for %s" what k)
            keys;
          if Blsm.Component.get c "absent" <> None then
            Alcotest.failf "%s: absent key found" what)
    [
      ("0x00-led 64 bits", "\000" ^ header [ 64; 7; 0 ] ^ String.make 8 '\255');
      ("truncated", String.sub good 0 (String.length good - 1));
      ("trailing bytes", good ^ "\000");
    ]

(* Recovery without [~verify] still rebuilds each Bloom filter by
   scanning its component, and that scan is where rot in a data page
   shows up. It must be handled like a verified page error: drop and
   rebuild from the log when it covers the component, quarantine
   otherwise — never an untyped decoder exception out of recovery. *)

let load_and_rot ?(durability = Pagestore.Wal.Full) ~pin () =
  let store = mk_store ~durability () in
  let wal = Pagestore.Store.wal store in
  if pin then Pagestore.Wal.register_client wal ~client:"pin";
  let tree = Blsm.Tree.create ~config:(small_config ()) store in
  let model = ref SMap.empty in
  for i = 0 to 999 do
    let k = Printf.sprintf "key%04d" (i mod 250) in
    let v = Printf.sprintf "v%06d-%s" i (String.make 50 'u') in
    Blsm.Tree.put tree k v;
    model := SMap.add k v !model
  done;
  Blsm.Tree.flush tree;
  Pagestore.Wal.sync wal;
  let _, f = first_data_component tree in
  Alcotest.(check bool) "flipped" true
    (Pagestore.Store.corrupt_page store (page_at f 0) ~byte:300 ~bit:4);
  (tree, !model)

let test_unverified_recovery_rebuilds () =
  let tree, model = load_and_rot ~pin:true () in
  let tree = Blsm.Tree.crash_and_recover tree in
  let s = Blsm.Tree.stats tree in
  Alcotest.(check bool) "rot counted" true (s.Blsm.Tree.corruptions_detected > 0);
  Alcotest.(check bool) "covered component rebuilt from the log" true
    (s.Blsm.Tree.component_rebuilds >= 1);
  check_model ~what:"after unverified rebuild" tree model

let test_unverified_recovery_quarantines () =
  let tree, model =
    load_and_rot ~durability:Pagestore.Wal.Degraded ~pin:false ()
  in
  let tree = Blsm.Tree.crash_and_recover tree in
  Alcotest.(check bool) "uncovered component quarantined" true
    ((Blsm.Tree.stats tree).Blsm.Tree.quarantined_components >= 1);
  let loud = count_loud_reads tree model in
  Alcotest.(check bool) "the rotted page is loud, the rest readable" true
    (loud > 0 && loud < SMap.cardinal model)

let test_unverified_policy_recovery_quarantines () =
  let store = mk_store () in
  let t =
    Blsm.Policy_tree.create ~config:(small_config ())
      ~policy:(Blsm.Compaction_policy.leveled ()) store
  in
  for i = 0 to 199 do
    Blsm.Policy_tree.put t (Printf.sprintf "key%04d" i) (String.make 40 'p')
  done;
  Blsm.Policy_tree.flush t;
  let _, f = List.hd (Blsm.Policy_tree.component_footers t) in
  Alcotest.(check bool) "flipped" true
    (Pagestore.Store.corrupt_page store (page_at f 0) ~byte:300 ~bit:4);
  let t = Blsm.Policy_tree.crash_and_recover t in
  let s = Blsm.Policy_tree.stats t in
  Alcotest.(check bool) "rot counted" true (s.Blsm.Tree.corruptions_detected > 0);
  Alcotest.(check int) "run quarantined" 1 s.Blsm.Tree.quarantined_components;
  match Blsm.Policy_tree.get t "key0000" with
  | _ -> Alcotest.fail "a read of the rotted page must raise"
  | exception Blsm.Tree.Corruption { level = "P0"; _ } -> ()

(* Every engine raises the typed error, naming the rotted level and
   counting it, when a scan or a compaction opens an iterator on a run
   whose data pages rotted: [load] leaves the engine with flushed runs
   (for a policy tree, enough level-0 runs that its next pick compacts
   them), [compact] makes the engine merge them. *)

type rot_row = {
  engine : string;
  load : unit -> Pagestore.Store.t * (unit -> unit) * (unit -> unit);
      (** store, scan, compact *)
  footers : unit -> (string * Sstable.Sst_format.footer) list;
  corruptions : unit -> int;
}

let tree_row () =
  let store = mk_store () in
  let tree = Blsm.Tree.create ~config:(small_config ()) store in
  let put i = Blsm.Tree.put tree (Printf.sprintf "key%04d" i) (String.make 60 't') in
  {
    engine = "tree";
    load =
      (fun () ->
        for i = 0 to 299 do put i done;
        Blsm.Tree.flush tree;
        ( store,
          (fun () -> ignore (Blsm.Tree.scan tree "" 100_000)),
          fun () ->
            for i = 300 to 999 do put i done;
            Blsm.Tree.flush tree ));
    footers =
      (fun () ->
        List.filter (fun (l, _) -> l = "C1") (Blsm.Tree.component_footers tree));
    corruptions =
      (fun () -> (Blsm.Tree.stats tree).Blsm.Tree.corruptions_detected);
  }

let policy_row ~engine ~config ~pconfig ~policy =
  let store = mk_store () in
  let t = Blsm.Policy_tree.create ~config ~pconfig ~policy store in
  {
    engine;
    load =
      (fun () ->
        for run = 0 to pconfig.Blsm.Policy_tree.pt_l0_trigger - 1 do
          for i = 0 to 19 do
            Blsm.Policy_tree.put t
              (Printf.sprintf "key%02d-%04d" i run)
              (String.make 40 'p')
          done;
          Blsm.Policy_tree.flush t
        done;
        ( store,
          (fun () -> ignore (Blsm.Policy_tree.scan t "" 100_000)),
          fun () -> Blsm.Policy_tree.maintenance t ));
    footers = (fun () -> Blsm.Policy_tree.component_footers t);
    corruptions =
      (fun () -> (Blsm.Policy_tree.stats t).Blsm.Tree.corruptions_detected);
  }

let rot_rows () =
  tree_row ()
  :: List.map
       (fun name ->
         policy_row ~engine:name ~config:(Dst.Driver.small_config 7)
           ~pconfig:Dst.Driver.small_pconfig
           ~policy:(Option.get (Blsm.Compaction_policy.of_name name)))
       [ "tiered"; "leveled"; "lazy-leveled"; "partial" ]
  @ [
      policy_row ~engine:"leveldb"
        ~config:{ (small_config ()) with Blsm.Config.bloom_bits_per_key = 0 }
        ~pconfig:Blsm.Policy_tree.leveldb_pconfig
        ~policy:(Blsm.Compaction_policy.leveldb_seed ());
    ]

let expect_typed_rot row ~what ~levels f =
  let before = row.corruptions () in
  (match f () with
  | () -> Alcotest.failf "%s: %s over a rotted run returned normally" row.engine what
  | exception Blsm.Tree.Corruption { level; _ } ->
      if not (List.mem level levels) then
        Alcotest.failf "%s: %s blamed level %s" row.engine what level);
  if row.corruptions () <= before then
    Alcotest.failf "%s: %s did not count the corruption" row.engine what

let test_typed_rot_every_engine () =
  List.iter
    (fun row ->
      let store, scan, compact = row.load () in
      let rotted = row.footers () in
      if rotted = [] then Alcotest.failf "%s: no run to rot" row.engine;
      List.iter
        (fun ((_ : string), f) ->
          ignore (Pagestore.Store.corrupt_page store (page_at f 0) ~byte:200 ~bit:2))
        rotted;
      let levels = List.map fst rotted in
      expect_typed_rot row ~what:"scan" ~levels scan;
      expect_typed_rot row ~what:"compaction" ~levels compact)
    (rot_rows ())

(* ------------------------------------------------------------------ *)
(* Degraded durability: the group-commit window is real. With no merges
   (default-sized C0) the log is the only durability, so recovery after
   a crash is exactly the synced prefix of the write sequence. *)

let test_degraded_group_commit_window () =
  let n = 50 in
  let store = mk_store ~durability:Pagestore.Wal.Degraded () in
  let wal = Pagestore.Store.wal store in
  let tree = Blsm.Tree.create store in
  for i = 0 to n - 1 do
    Blsm.Tree.put tree (Printf.sprintf "k%04d" i) (String.make 100 'v')
  done;
  let tree' = Blsm.Tree.crash_and_recover tree in
  let rows = Blsm.Tree.scan tree' "" 1000 in
  let survived = List.length rows in
  Alcotest.(check bool) "the unsynced tail was dropped" true
    (Pagestore.Wal.dropped_unsynced wal > 0);
  Alcotest.(check bool) "a strict synced prefix survived" true
    (survived > 0 && survived < n);
  List.iteri
    (fun i (k, v) ->
      Alcotest.(check string) "prefix key, in order, no gaps"
        (Printf.sprintf "k%04d" i) k;
      Alcotest.(check int) "value intact" 100 (String.length v))
    rows;
  (* control: Full durability with the identical workload loses nothing *)
  let store_f = mk_store () in
  let tree_f = Blsm.Tree.create store_f in
  for i = 0 to n - 1 do
    Blsm.Tree.put tree_f (Printf.sprintf "k%04d" i) (String.make 100 'v')
  done;
  let tree_f = Blsm.Tree.crash_and_recover tree_f in
  Alcotest.(check int) "Full keeps every acked write" n
    (List.length (Blsm.Tree.scan tree_f "" 1000))

(* Mid-log WAL rot is fatal and typed: unlike a torn tail it cannot be
   explained by power loss, and skipping the record would resurrect
   overwritten state. *)

let test_wal_midlog_rot_fatal () =
  let store = mk_store () in
  let wal = Pagestore.Store.wal store in
  let tree = Blsm.Tree.create store in
  for i = 0 to 99 do
    Blsm.Tree.put tree (Printf.sprintf "k%03d" i) (Printf.sprintf "v%d" i)
  done;
  Alcotest.(check bool) "rot one mid-log record" true
    (Pagestore.Wal.flip_bit wal ~lsn:50 ~byte:20 ~bit:2);
  let report = Blsm.Tree.scrub tree in
  Alcotest.(check bool) "scrub reports the WAL rot" true
    (List.exists
       (fun (lvl, (_ : string), lsn) -> lvl = "WAL" && lsn = 50)
       report.Blsm.Tree.scrub_errors);
  match Blsm.Tree.crash_and_recover tree with
  | _ -> Alcotest.fail "recovery must refuse a rotted mid-log record"
  | exception Blsm.Tree.Corruption { level = "WAL"; _ } -> ()

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Torn WAL tail at a random append ordinal, under Full durability:
   recovery equals the acked-prefix model exactly. *)
let prop_torn_tail_acked_prefix =
  QCheck.Test.make ~name:"torn WAL tail recovers to exact acked prefix"
    ~count:25
    QCheck.(pair small_int (int_range 1 400))
    (fun (seed, tear_after) ->
      (* shrinking may step outside int_range's bounds *)
      let tear_after = max 1 tear_after in
      let store = mk_store () in
      let plan = Simdisk.Faults.create ~seed () in
      Pagestore.Store.set_faults store plan;
      Simdisk.Faults.schedule_crash_at_wal_append ~torn:true plan
        ~after:tear_after;
      let tree = ref (Blsm.Tree.create ~config:(small_config ()) store) in
      let model = ref SMap.empty in
      let prng = Repro_util.Prng.of_int ((seed * 7) + 1) in
      (try
         for i = 0 to 499 do
           let key = Printf.sprintf "key%03d" (Repro_util.Prng.int prng 120) in
           match Repro_util.Prng.int prng 6 with
           | 0 | 1 | 2 ->
               let v = Printf.sprintf "v%d-%s" i (String.make 40 't') in
               Blsm.Tree.put !tree key v;
               model := SMap.add key v !model
           | 3 ->
               Blsm.Tree.delete !tree key;
               model := SMap.remove key !model
           | _ ->
               let d = Printf.sprintf "+%d" i in
               Blsm.Tree.apply_delta !tree key d;
               model :=
                 SMap.update key
                   (function Some v -> Some (v ^ d) | None -> Some d)
                   !model
         done
       with Simdisk.Faults.Crash_point _ -> ());
      let tree = Blsm.Tree.crash_and_recover ~verify:true !tree in
      SMap.for_all (fun k v -> Blsm.Tree.get tree k = Some v) !model
      && Blsm.Tree.scan tree "" 10_000 = SMap.bindings !model)

(* A single scheduled bit flip on some future page write: detected (typed
   Corruption, possibly later at verified recovery) or masked (rebuilt /
   freed page) — never a silently wrong get or scan. *)
let prop_bitflip_never_silent =
  QCheck.Test.make
    ~name:"a single page bit flip is detected or masked, never silent"
    ~count:25
    QCheck.(pair small_int (int_range 1 250))
    (fun (seed, flip_after) ->
      let flip_after = max 1 flip_after in
      let store = mk_store () in
      let plan = Simdisk.Faults.create ~seed () in
      Pagestore.Store.set_faults store plan;
      Simdisk.Faults.schedule_page_bit_flip plan ~after:flip_after;
      let tree = ref (Blsm.Tree.create ~config:(small_config ()) store) in
      let model = ref SMap.empty in
      let prng = Repro_util.Prng.of_int ((seed * 13) + 5) in
      let ok = ref true in
      let detected = ref false in
      (try
         for i = 0 to 599 do
           let key = Printf.sprintf "key%03d" (Repro_util.Prng.int prng 120) in
           match Repro_util.Prng.int prng 5 with
           | 0 | 1 | 2 ->
               let v = Printf.sprintf "v%d-%s" i (String.make 40 'f') in
               Blsm.Tree.put !tree key v;
               model := SMap.add key v !model
           | 3 ->
               Blsm.Tree.delete !tree key;
               model := SMap.remove key !model
           | _ -> (
               match Blsm.Tree.get !tree key with
               | r -> if r <> SMap.find_opt key !model then ok := false
               | exception Blsm.Tree.Corruption _ -> raise Exit)
         done
       with
      | Exit -> detected := true
      | Blsm.Tree.Corruption _ -> detected := true);
      if not !ok then false
      else if !detected then true
      else
        (* the flip may still be latent: surface it with a fully verified
           recovery, then re-read everything *)
        match Blsm.Tree.crash_and_recover ~verify:true !tree with
        | exception Blsm.Tree.Corruption _ -> true
        | tree ->
            SMap.for_all
              (fun k v ->
                match Blsm.Tree.get tree k with
                | Some v' -> v' = v
                | None -> false
                | exception Blsm.Tree.Corruption _ -> true)
              !model
            && (match Blsm.Tree.scan tree "" 10_000 with
               | rows -> rows = SMap.bindings !model
               | exception Blsm.Tree.Corruption _ -> true))

(* ------------------------------------------------------------------ *)
(* The crash+fault matrix: {Spring, Gear} x {Full, Degraded, None_},
   each with a seeded mid-merge torn-page power loss. Full recovers the
   exact model; Degraded and None_ recover a consistent state whose
   every value was actually written (no fabrication, no tearing). *)

let matrix_case ~scheduler ~snowshovel ~durability ~seed =
  let store = mk_store ~durability () in
  let plan = Simdisk.Faults.create ~seed () in
  Pagestore.Store.set_faults store plan;
  Simdisk.Faults.schedule_crash_at_page_write ~torn:true plan
    ~after:(20 + (seed mod 40));
  let tree =
    ref (Blsm.Tree.create ~config:(small_config ~scheduler ~snowshovel ()) store)
  in
  let model = ref SMap.empty in
  let history = Hashtbl.create 64 in
  let prng = Repro_util.Prng.of_int (seed + 13) in
  let crashed = ref false in
  (try
     for i = 0 to 1499 do
       let key = Printf.sprintf "key%03d" (Repro_util.Prng.int prng 150) in
       let v = Printf.sprintf "v%d-%s" i (String.make 40 'm') in
       Blsm.Tree.put !tree key v;
       model := SMap.add key v !model;
       Hashtbl.add history key v
     done
   with Simdisk.Faults.Crash_point _ -> crashed := true);
  tree := Blsm.Tree.crash_and_recover ~verify:true !tree;
  (match durability with
  | Pagestore.Wal.Full -> check_model ~what:"matrix Full" !tree !model
  | Pagestore.Wal.Degraded | Pagestore.Wal.None_ ->
      let rows = Blsm.Tree.scan !tree "" 100_000 in
      List.iter
        (fun (k, v) ->
          if Blsm.Tree.get !tree k <> Some v then
            Alcotest.failf "matrix: scan and get disagree on %s" k;
          if not (List.mem v (Hashtbl.find_all history k)) then
            Alcotest.failf "matrix: fabricated value for %s" k)
        rows);
  !crashed

let test_fault_matrix () =
  let fired = ref 0 in
  List.iter
    (fun (scheduler, snowshovel) ->
      List.iter
        (fun durability ->
          List.iter
            (fun seed ->
              if matrix_case ~scheduler ~snowshovel ~durability ~seed then
                incr fired)
            [ 1; 2; 3 ])
        [ Pagestore.Wal.Full; Pagestore.Wal.Degraded; Pagestore.Wal.None_ ])
    [ (Blsm.Config.Spring, true); (Blsm.Config.Gear, false) ];
  (* the plans must actually be firing mid-merge, not expiring unused *)
  Alcotest.(check bool) "crash points fired across the matrix" true
    (!fired >= 6)

let () =
  Alcotest.run "faults"
    [
      ( "scenario",
        [
          Alcotest.test_case "acceptance: torn wal + mid-merge crash + bit rot"
            `Quick test_acceptance_scenario;
          Alcotest.test_case "bit flip -> rebuild from WAL" `Quick
            test_bitflip_rebuild_from_wal;
          Alcotest.test_case "bit flip -> quarantine (uncovered)" `Quick
            test_bitflip_quarantine;
          Alcotest.test_case "bloom rot is masked" `Quick test_bloom_rot_masked;
          Alcotest.test_case "malformed bloom blob is rebuilt" `Quick
            test_malformed_bloom_blob_rebuilt;
          Alcotest.test_case "unverified recovery -> rebuild" `Quick
            test_unverified_recovery_rebuilds;
          Alcotest.test_case "unverified recovery -> quarantine" `Quick
            test_unverified_recovery_quarantines;
          Alcotest.test_case "unverified policy recovery -> quarantine" `Quick
            test_unverified_policy_recovery_quarantines;
          Alcotest.test_case "typed rot on every engine" `Quick
            test_typed_rot_every_engine;
        ] );
      ( "wal",
        [
          Alcotest.test_case "degraded group-commit window" `Quick
            test_degraded_group_commit_window;
          Alcotest.test_case "mid-log rot is fatal and typed" `Quick
            test_wal_midlog_rot_fatal;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_torn_tail_acked_prefix;
          QCheck_alcotest.to_alcotest prop_bitflip_never_silent;
        ] );
      ("matrix", [ Alcotest.test_case "scheduler x durability" `Quick test_fault_matrix ]);
    ]
