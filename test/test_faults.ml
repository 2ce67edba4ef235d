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

let small_config ?(scheduler = Blsm.Config.Spring) () =
  {
    Blsm.Config.default with
    Blsm.Config.c0_bytes = 24 * 1024;
    size_ratio = Blsm.Config.Fixed 3.0;
    extent_pages = 8;
    scheduler;
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
      let sh = Blsm.Lsm_shell.create (small_config ()) store ~level_names:[| "C1" |] ~slot:"" in
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
      ~policy:(List.assoc "leveled" Blsm.Compaction_policy.named) store
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
       (fun (name, policy) ->
         policy_row ~engine:name ~config:(Dst.Driver.small_config 7)
           ~pconfig:Dst.Driver.small_pconfig ~policy)
       Blsm.Compaction_policy.named
  @ [
      policy_row ~engine:"leveldb"
        ~config:{ (small_config ()) with Blsm.Config.bloom_bits_per_key = 0 }
        ~pconfig:Blsm.Policy_tree.leveldb_pconfig
        ~policy:Blsm.Compaction_policy.leveldb_seed;
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

(* A C1':C2 merge pulls each input through its own level's stream, so
   rot in C1' met mid-merge is blamed on C1', not on C2. *)
let test_merge2_rot_names_c1_prime () =
  let store = mk_store () in
  let tree = Blsm.Tree.create ~config:(small_config ()) store in
  let i = ref 0 in
  while
    not
      ((Blsm.Tree.merge_stats tree).merge2_completions >= 1
      && Blsm.Tree.merge2_inprogress tree < 0.5)
  do
    if !i > 50_000 then Alcotest.fail "no second C1':C2 merge in flight";
    Blsm.Tree.put tree (Printf.sprintf "key%05d" ((!i * 7919) mod 100_000)) (String.make 60 'm');
    incr i
  done;
  let f = List.assoc "C1'" (Blsm.Tree.component_footers tree) in
  if not (List.mem_assoc "C2" (Blsm.Tree.component_footers tree)) then
    Alcotest.fail "no C2 under the merge";
  (* the last data page: the merge has not read it yet *)
  ignore
    (Pagestore.Store.corrupt_page store (page_at f (f.Sstable.Sst_format.data_pages - 1))
       ~byte:200 ~bit:2);
  match Blsm.Tree.maintenance tree with
  | () -> Alcotest.fail "the merge read a rotted C1' page without raising"
  | exception Blsm.Tree.Corruption { level; _ } ->
      Alcotest.check Alcotest.string "level named" "C1'" level

(* Rot met by the C0:C1 merge's read of C1. Each C1 record that no C0
   record shadows passes to the output as its stored bytes, never
   decoded, so the framing alone must catch a body that is malformed
   under a valid page checksum. Both kinds of rot must surface as
   [Corruption {level = "C1"}], never as a raw [Sst_format.Corrupt] or
   [Invalid_argument], and never pass silently into the new C1. *)

(* A tree whose merge1 is in flight and has read less than a third of
   its input, over a C1 of several pages. Keys written after the first
   merge sort after every C1 key, so the C1 records all pass through. *)
let merge1_under_way () =
  let store = mk_store () in
  let config =
    { (small_config ~scheduler:Blsm.Config.Gear ()) with
      Blsm.Config.size_ratio = Blsm.Config.Fixed 10.0;
      max_quota_per_write = 2048 }
  in
  let tree = Blsm.Tree.create ~config store in
  let put prefix i = Blsm.Tree.put tree (Printf.sprintf "%s%05d" prefix i) (String.make 60 'm') in
  let i = ref 0 in
  while (Blsm.Tree.merge_stats tree).merge1_completions < 1 do
    put "a" !i;
    incr i
  done;
  let c1_pages () =
    match List.assoc_opt "C1" (Blsm.Tree.component_footers tree) with
    | Some f -> f.Sstable.Sst_format.data_pages
    | None -> 0
  in
  let j = ref 0 in
  while
    not
      (c1_pages () >= 4
      && Blsm.Tree.merge1_inprogress tree > 0.0
      && Blsm.Tree.merge1_inprogress tree < 0.3)
  do
    if !j > 50_000 then Alcotest.fail "no merge1 in flight over C1";
    put "b" !j;
    incr j
  done;
  (store, tree, List.assoc "C1" (Blsm.Tree.component_footers tree))

(* Rewrite a data page under a fresh checksum: the platter takes the
   edit as bit flips, so the page passes its CRC and is wrong. *)
let rewrite_page store id edit =
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
  done

(* Give the first record lying whole in the page a bad entry tag. *)
let break_entry_tag b =
  let s = Bytes.to_string b in
  let varint pos =
    let rec go pos shift acc =
      let c = Char.code s.[pos] in
      let acc = acc lor ((c land 0x7f) lsl shift) in
      if c >= 0x80 then go (pos + 1) (shift + 7) acc else (acc, pos + 1)
    in
    go pos 0 0
  in
  let whole start =
    let body_len, p = varint start in
    p + body_len <= String.length s
  in
  match List.find_opt whole (Array.to_list (Sstable.Sst_format.record_starts b)) with
  | None -> Alcotest.fail "no whole record in the page"
  | Some start ->
      let _, p = varint start in
      let klen, kp = varint p in
      let _, tag = varint (kp + klen) in
      Bytes.set b tag '\009'

let test_merge1_rot_names_c1 () =
  let expect what (store, tree, f) rot =
    rot store (page_at f (f.Sstable.Sst_format.data_pages - 1));
    match Blsm.Tree.maintenance tree with
    | () -> Alcotest.failf "%s: merge1 read it without raising" what
    | exception Blsm.Tree.Corruption { level; _ } ->
        Alcotest.check Alcotest.string (what ^ ": level named") "C1" level
  in
  (* the last data page: the merge has not read it yet *)
  expect "flipped bit" (merge1_under_way ()) (fun store id ->
      ignore (Pagestore.Store.corrupt_page store id ~byte:200 ~bit:2));
  expect "malformed body" (merge1_under_way ()) (fun store id ->
      rewrite_page store id break_entry_tag)

(* Rot met by the reads that check a page while copying it off the
   platter: a scan's streamed C2 page, a merge1 input page (covered by
   "merge1 rot names C1" above) and a pool-loaded page. Each must raise
   the typed error naming the level; the pool must leave the rotted
   frame unpinned and unverified, so a second read checks it again. *)

(* A tree with a C2, each key written once (so held by one run). *)
let c2_keys = List.init 3000 (Printf.sprintf "key%04d")

let c2_tree () =
  let store = mk_store () in
  let tree = Blsm.Tree.create ~config:(small_config ()) store in
  List.iter (fun k -> Blsm.Tree.put tree k (String.make 60 'c')) c2_keys;
  Blsm.Tree.flush tree;
  match List.assoc_opt "C2" (Blsm.Tree.component_footers tree) with
  | Some f -> (store, tree, f)
  | None -> Alcotest.fail "no C2"

let expect_level what level f =
  match f () with
  | _ -> Alcotest.failf "%s: read a rotted page without raising" what
  | exception Blsm.Tree.Corruption { level = l; _ } ->
      Alcotest.check Alcotest.string (what ^ ": level named") level l

let test_fused_scan_rot_names_c2 () =
  let store, tree, f = c2_tree () in
  ignore
    (Pagestore.Store.corrupt_page store (page_at f (f.Sstable.Sst_format.data_pages / 2))
       ~byte:300 ~bit:5);
  expect_level "scan" "C2" (fun () -> Blsm.Tree.scan tree "" 100_000)

let test_fused_pool_rot_names_c2 () =
  let store, tree, f = c2_tree () in
  let bm = Pagestore.Store.buffer store in
  let id = page_at f 1 in
  let key =
    match
      List.find_opt
        (fun k ->
          let m0 = Pagestore.Buffer_manager.misses bm in
          ignore (Blsm.Tree.get tree k);
          Pagestore.Buffer_manager.misses bm > m0
          && List.mem_assoc id (Pagestore.Buffer_manager.cached_pages bm))
        c2_keys
    with
    | Some k -> k
    | None -> Alcotest.fail "no key read from the page"
  in
  (* A crash empties the pool; recovery rebuilds the filters from
     streamed pages, so the rot lands after it. *)
  let tree = Blsm.Tree.crash_and_recover tree in
  ignore (Pagestore.Store.corrupt_page store id ~byte:300 ~bit:5);
  let bm = Pagestore.Store.buffer store in
  expect_level "pool load" "C2" (fun () -> Blsm.Tree.get tree key);
  Alcotest.(check bool) "the frame holds the page" true
    (List.mem_assoc id (Pagestore.Buffer_manager.cached_pages bm));
  Alcotest.(check int) "no pinned frame" 0 (Pagestore.Buffer_manager.pinned_frames bm);
  (* No miss: the resident frame is checked again, in place. *)
  let m0 = Pagestore.Buffer_manager.misses bm in
  expect_level "pool hit on the rotted frame" "C2" (fun () -> Blsm.Tree.get tree key);
  Alcotest.(check int) "answered by the resident frame" 0
    (Pagestore.Buffer_manager.misses bm - m0);
  Alcotest.(check int) "still no pinned frame" 0 (Pagestore.Buffer_manager.pinned_frames bm)

(* A dropped page reads as zeroes, which fail the page check both ways. *)
let test_fused_absent_page_fails () =
  let store = mk_store () in
  let region = Pagestore.Store.allocate_region store ~pages:4 in
  let ws = Pagestore.Store.open_write_stream store region in
  let page = Bytes.make 4096 'z' in
  Sstable.Sst_format.seal_page page;
  let id = Pagestore.Store.stream_write ws page in
  let buf = Bytes.create 4096 in
  Pagestore.Store.read_page_checked store id buf ~check:Sstable.Sst_format.check_page;
  Alcotest.(check bytes) "a present page copies" page buf;
  Pagestore.Store.free_region store region;
  (match
     Pagestore.Store.read_page_checked store id buf ~check:Sstable.Sst_format.check_page
   with
  | () -> Alcotest.fail "a dropped page passed the streamed check"
  | exception Sstable.Sst_format.Corrupt { page; _ } ->
      Alcotest.(check int) "streamed: page named" id page);
  match Pagestore.Store.pin_page store id ~seq:false ~verify:Sstable.Sst_format.check_page with
  | p ->
      Pagestore.Store.unpin p;
      Alcotest.fail "a dropped page passed the pool's check"
  | exception Sstable.Sst_format.Corrupt { page; _ } ->
      Alcotest.(check int) "pool: page named" id page;
      Alcotest.(check int) "pool: no pinned frame" 0
        (Pagestore.Buffer_manager.pinned_frames (Pagestore.Store.buffer store))

(* Every engine commits through the shell's sealed manifest. Its own
   committed manifest, cut at every non-empty proper prefix (the store
   spells "no root" as the empty one) or with any single bit flipped,
   must fail recovery with the typed error — never an untyped exception,
   never a silently emptier tree. The intact manifest then recovers. *)

let manifest_rows () =
  let load put =
    for i = 0 to 2999 do put (Printf.sprintf "key%04d" i) (String.make 60 'm') done
  in
  let tree =
    let store = mk_store () in
    let t = Blsm.Tree.create ~config:(small_config ()) store in
    load (Blsm.Tree.put t);
    Blsm.Tree.flush t;
    ("tree", store, "", fun () -> Blsm.Tree.get (Blsm.Tree.crash_and_recover t))
  in
  let partitioned =
    let store = mk_store () in
    let t =
      Blsm.Partitioned.create ~config:(small_config ()) ~boundaries:[ "key1500" ] store
    in
    load (Blsm.Partitioned.put t);
    Blsm.Partitioned.flush t;
    ( "partitioned",
      store,
      "partition-000",
      fun () -> Blsm.Partitioned.get (Blsm.Partitioned.crash_and_recover t) )
  in
  let policy =
    let store = mk_store () in
    let t =
      Blsm.Policy_tree.create ~config:(small_config ())
        ~policy:(List.assoc "leveled" Blsm.Compaction_policy.named) store
    in
    load (Blsm.Policy_tree.put t);
    Blsm.Policy_tree.maintenance t;
    ( "policy-leveled",
      store,
      "",
      fun () -> Blsm.Policy_tree.get (Blsm.Policy_tree.crash_and_recover t) )
  in
  [ tree; partitioned; policy ]

let test_malformed_manifest_typed () =
  List.iter
    (fun (engine, store, slot, recover) ->
      let root = Pagestore.Store.read_root ~slot store in
      if root = "" then Alcotest.failf "%s: no manifest committed" engine;
      let expect what bad =
        Pagestore.Store.commit_root ~slot store bad;
        match recover () with
        | (_ : string -> string option) ->
            Alcotest.failf "%s: recovered from a manifest with %s" engine what
        | exception Blsm.Tree.Corruption { level = "manifest"; _ } -> ()
      in
      for len = 1 to String.length root - 1 do
        expect (Printf.sprintf "its first %d bytes" len) (String.sub root 0 len)
      done;
      String.iteri
        (fun i c ->
          for bit = 0 to 7 do
            let flipped = Bytes.of_string root in
            Bytes.set flipped i (Char.chr (Char.code c lxor (1 lsl bit)));
            expect
              (Printf.sprintf "bit %d of byte %d flipped" bit i)
              (Bytes.to_string flipped)
          done)
        root;
      Pagestore.Store.commit_root ~slot store root;
      Alcotest.(check (option string))
        (engine ^ ": intact manifest recovers")
        (Some (String.make 60 'm'))
        (recover () "key0042"))
    (manifest_rows ())

(* The codec round-trips, and a sealed manifest naming a level the
   engine does not have is typed corruption too. *)
let prop_manifest_roundtrip =
  QCheck.Test.make ~name:"manifest codec round-trips" ~count:300
    QCheck.(triple pos_int pos_int (small_list (pair (int_bound 6) string)))
    (fun (stamp, floor_lsn, components) ->
      let m = { Blsm.Lsm_shell.stamp; floor_lsn; components } in
      let blob = Blsm.Lsm_shell.encode_manifest m in
      Blsm.Lsm_shell.decode_manifest ~levels:7 blob = m
      &&
      let top = List.fold_left (fun a (lvl, _) -> max a lvl) (-1) components in
      top < 0
      ||
      match Blsm.Lsm_shell.decode_manifest ~levels:top blob with
      | _ -> false
      | exception Blsm.Tree.Corruption { level = "manifest"; _ } -> true)

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

let matrix_case ~scheduler ~durability ~seed =
  let store = mk_store ~durability () in
  let plan = Simdisk.Faults.create ~seed () in
  Pagestore.Store.set_faults store plan;
  Simdisk.Faults.schedule_crash_at_page_write ~torn:true plan
    ~after:(20 + (seed mod 40));
  let tree =
    ref (Blsm.Tree.create ~config:(small_config ~scheduler ()) store)
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
    (fun scheduler ->
      List.iter
        (fun durability ->
          List.iter
            (fun seed ->
              if matrix_case ~scheduler ~durability ~seed then
                incr fired)
            [ 1; 2; 3 ])
        [ Pagestore.Wal.Full; Pagestore.Wal.Degraded; Pagestore.Wal.None_ ])
    [ Blsm.Config.Spring; Blsm.Config.Gear ];
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
          Alcotest.test_case "merge2 rot names C1'" `Quick
            test_merge2_rot_names_c1_prime;
          Alcotest.test_case "merge1 rot names C1" `Quick test_merge1_rot_names_c1;
          Alcotest.test_case "fused scan rot names C2" `Quick test_fused_scan_rot_names_c2;
          Alcotest.test_case "fused pool rot names C2" `Quick test_fused_pool_rot_names_c2;
          Alcotest.test_case "fused read of a dropped page fails" `Quick
            test_fused_absent_page_fails;
          Alcotest.test_case "malformed manifest is typed" `Quick
            test_malformed_manifest_typed;
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
          QCheck_alcotest.to_alcotest prop_manifest_roundtrip;
        ] );
      ("matrix", [ Alcotest.test_case "scheduler x durability" `Quick test_fault_matrix ]);
    ]
