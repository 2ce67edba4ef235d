(* Failure injection: crash the bLSM tree at randomized points in random
   workloads and verify recovery invariants.

   Durability contract under Full durability with group commit (§4.4.2,
   §5.1): every completed write is in the WAL or in a committed component,
   so recovery must reproduce the exact pre-crash logical state - here
   checked against a Map model. Under None_ durability, recovery must
   yield a consistent prefix: exactly the state covered by committed
   components (no torn merges, no resurrection of deleted keys). Also:
   repeated crashes, crash-during-recovery-adjacent flows, WAL replay
   idempotence, every crash point of a merge install, and binary-key
   robustness across the whole stack. *)

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

(* Apply [ops] random operations, crashing after a prefix of [crash_at];
   verify the recovered tree equals the model at the crash point. *)
let crash_test ~seed ~ops ~crash_at ~scheduler =
  let tree =
    ref (Blsm.Tree.create ~config:(small_config ~scheduler ()) (mk_store ()))
  in
  let model = ref SMap.empty in
  let prng = Repro_util.Prng.of_int seed in
  let apply i =
    let key = Printf.sprintf "key%04d" (Repro_util.Prng.int prng 200) in
    match Repro_util.Prng.int prng 6 with
    | 0 | 1 | 2 ->
        let v = Printf.sprintf "v%d-%s" i (String.make 60 'x') in
        Blsm.Tree.put !tree key v;
        model := SMap.add key v !model
    | 3 ->
        Blsm.Tree.delete !tree key;
        model := SMap.remove key !model
    | 4 ->
        let d = Printf.sprintf "+%d" i in
        Blsm.Tree.apply_delta !tree key d;
        model :=
          SMap.update key
            (function Some v -> Some (v ^ d) | None -> Some d)
            !model
    | _ -> ignore (Blsm.Tree.get !tree key)
  in
  for i = 0 to ops - 1 do
    apply i;
    if i = crash_at then tree := Blsm.Tree.crash_and_recover !tree
  done;
  (* the recovered tree must match the model exactly *)
  let ok = ref true in
  SMap.iter
    (fun k v -> if Blsm.Tree.get !tree k <> Some v then ok := false)
    !model;
  let all = Blsm.Tree.scan !tree "" 100_000 in
  !ok && all = SMap.bindings !model

let prop_crash_anywhere =
  QCheck.Test.make ~name:"crash at random op preserves all writes (Full)"
    ~count:30
    QCheck.(pair small_int (int_range 0 999))
    (fun (seed, crash_at) ->
      crash_test ~seed:(seed + 1) ~ops:1000 ~crash_at ~scheduler:Blsm.Config.Spring)

let prop_crash_anywhere_gear =
  QCheck.Test.make ~name:"crash at random op preserves all writes (gear)"
    ~count:15
    QCheck.(pair small_int (int_range 0 999))
    (fun (seed, crash_at) ->
      crash_test ~seed:(seed + 500) ~ops:1000 ~crash_at ~scheduler:Blsm.Config.Gear)

let test_repeated_crashes () =
  let tree = ref (Blsm.Tree.create ~config:(small_config ()) (mk_store ())) in
  let model = ref SMap.empty in
  let prng = Repro_util.Prng.of_int 77 in
  for round = 0 to 9 do
    for i = 0 to 299 do
      let key = Printf.sprintf "k%03d" (Repro_util.Prng.int prng 150) in
      let v = Printf.sprintf "r%d-%d" round i in
      Blsm.Tree.put !tree key v;
      model := SMap.add key v !model
    done;
    tree := Blsm.Tree.crash_and_recover !tree
  done;
  SMap.iter
    (fun k v ->
      if Blsm.Tree.get !tree k <> Some v then
        Alcotest.failf "key %s wrong after 10 crash cycles" k)
    !model

let test_crash_before_any_write () =
  let tree = Blsm.Tree.create ~config:(small_config ()) (mk_store ()) in
  let tree = Blsm.Tree.crash_and_recover tree in
  Alcotest.(check (option string)) "empty" None (Blsm.Tree.get tree "x");
  Blsm.Tree.put tree "x" "works";
  Alcotest.(check (option string)) "writable" (Some "works") (Blsm.Tree.get tree "x")

let test_none_durability_prefix_consistency () =
  (* without logging, recovery lands on the last committed merge: a
     *consistent* earlier state - never a torn one *)
  let store = mk_store ~durability:Pagestore.Wal.None_ () in
  let tree = Blsm.Tree.create ~config:(small_config ()) store in
  for i = 0 to 1999 do
    Blsm.Tree.put tree (Printf.sprintf "k%05d" i) (String.make 100 'v')
  done;
  let tree' = Blsm.Tree.crash_and_recover tree in
  (* whatever survived must be internally consistent: scan = point gets *)
  let rows = Blsm.Tree.scan tree' "" 100_000 in
  List.iter
    (fun (k, v) ->
      match Blsm.Tree.get tree' k with
      | Some v' when v' = v -> ()
      | _ -> Alcotest.failf "scan/get disagree on %s" k)
    rows;
  (* and it must be a *prefix* of the insertion order per merge commits:
     every surviving record has the value we wrote (no corruption) *)
  List.iter
    (fun (k, v) ->
      if String.length v <> 100 then Alcotest.failf "torn value for %s" k)
    rows

let test_wal_replay_idempotent_state () =
  (* two successive crashes with no writes in between must yield the same
     state: replay does not duplicate or reorder effects *)
  let tree = Blsm.Tree.create ~config:(small_config ()) (mk_store ()) in
  Blsm.Tree.put tree "a" "1";
  Blsm.Tree.apply_delta tree "a" "+2";
  Blsm.Tree.delete tree "b";
  Blsm.Tree.put tree "c" "3";
  let t1 = Blsm.Tree.crash_and_recover tree in
  let state1 = Blsm.Tree.scan t1 "" 1000 in
  let t2 = Blsm.Tree.crash_and_recover t1 in
  let state2 = Blsm.Tree.scan t2 "" 1000 in
  if state1 <> state2 then Alcotest.fail "replay not idempotent";
  Alcotest.(check (option string)) "delta preserved" (Some "1+2") (Blsm.Tree.get t2 "a")

(* ------------------------------------------------------------------ *)
(* Crash points inside merge commits and memtable flushes, via the fault
   scheduler: power loss no longer lands only between operations but in
   the middle of component writes. Full durability must still recover the
   exact acked state (§4.4.2: uncommitted merge output rolls back). *)

let test_crash_inside_merge_commit () =
  let store = mk_store () in
  let plan = Simdisk.Faults.create ~seed:99 () in
  Pagestore.Store.set_faults store plan;
  let tree = ref (Blsm.Tree.create ~config:(small_config ()) store) in
  let model = ref SMap.empty in
  let prng = Repro_util.Prng.of_int 5 in
  let crashes = ref 0 in
  for round = 0 to 5 do
    (* tear the in-flight page on even rounds, lose power cleanly on odd *)
    Simdisk.Faults.schedule_crash_at_page_write ~torn:(round mod 2 = 0) plan
      ~after:(5 + (7 * round));
    try
      for i = 0 to 499 do
        let key = Printf.sprintf "k%03d" (Repro_util.Prng.int prng 600) in
        if Repro_util.Prng.int prng 5 = 0 then begin
          Blsm.Tree.delete !tree key;
          model := SMap.remove key !model
        end
        else begin
          let v = Printf.sprintf "r%d-%d-%s" round i (String.make 50 'c') in
          Blsm.Tree.put !tree key v;
          model := SMap.add key v !model
        end
      done
    with Simdisk.Faults.Crash_point _ ->
      incr crashes;
      tree := Blsm.Tree.crash_and_recover ~verify:true !tree
  done;
  Simdisk.Faults.clear plan;
  Blsm.Tree.flush !tree;
  SMap.iter
    (fun k v ->
      if Blsm.Tree.get !tree k <> Some v then
        Alcotest.failf "key %s wrong after mid-merge crashes" k)
    !model;
  if Blsm.Tree.scan !tree "" 100_000 <> SMap.bindings !model then
    Alcotest.fail "scan disagrees with model after mid-merge crashes";
  Alcotest.(check bool) "crash points actually fired mid-merge" true
    (!crashes >= 3)

let test_crash_inside_memtable_flush () =
  (* gear mode: C0 freezes into C0' and drains; kill the machine inside
     the flush's page writes *)
  let store = mk_store () in
  let plan = Simdisk.Faults.create ~seed:7 () in
  Pagestore.Store.set_faults store plan;
  let tree =
    ref
      (Blsm.Tree.create
         ~config:(small_config ~scheduler:Blsm.Config.Gear ())
         store)
  in
  let model = ref SMap.empty in
  for i = 0 to 199 do
    let key = Printf.sprintf "k%03d" i in
    let v = Printf.sprintf "v%d-%s" i (String.make 40 'f') in
    Blsm.Tree.put !tree key v;
    model := SMap.add key v !model
  done;
  Simdisk.Faults.schedule_crash_at_page_write ~torn:true plan ~after:3;
  (match Blsm.Tree.flush !tree with
  | () -> Alcotest.fail "flush should have hit the crash point"
  | exception Simdisk.Faults.Crash_point _ -> ());
  tree := Blsm.Tree.crash_and_recover ~verify:true !tree;
  SMap.iter
    (fun k v ->
      if Blsm.Tree.get !tree k <> Some v then
        Alcotest.failf "key %s wrong after mid-flush crash" k)
    !model;
  (* and the interrupted flush completes cleanly afterwards *)
  Blsm.Tree.flush !tree;
  if Blsm.Tree.scan !tree "" 100_000 <> SMap.bindings !model then
    Alcotest.fail "scan disagrees with model after re-flush"

(* ------------------------------------------------------------------ *)
(* Extent ownership after a mid-merge crash: recovery must leave exactly
   the committed components' extents on the platter. A merge's open
   output and its sealed-but-uncommitted splits are freed by its one
   abandon; nothing else may survive. *)

let committed_bytes store footers =
  List.fold_left
    (fun acc (_, (f : Sstable.Sst_format.footer)) ->
      List.fold_left (fun acc (_, len) -> acc + len) acc f.extents)
    0 footers
  * Pagestore.Store.page_size store

let check_owned ~label store footers =
  let expected = committed_bytes store footers in
  let stored = Pagestore.Store.stored_bytes store in
  if stored <> expected then
    Alcotest.failf "%s: %d bytes stored, committed extents hold %d" label stored
      expected

let extent_key i = Printf.sprintf "key%05d" ((i * 7919) mod 100_000)
let extent_value i = Printf.sprintf "v%d-%s" i (String.make 80 'e')

(* Write until [in_flight tree] holds and the merge has uncommitted
   output on the platter, then crash at the next page write and
   recover. *)
let tree_crash_mid_merge ~label ~config ~in_flight =
  let store = mk_store () in
  let plan = Simdisk.Faults.create ~seed:11 () in
  Pagestore.Store.set_faults store plan;
  let tree = Blsm.Tree.create ~config store in
  let i = ref 0 in
  let uncommitted () =
    Pagestore.Store.stored_bytes store
    > committed_bytes store (Blsm.Tree.component_footers tree)
  in
  while not (in_flight tree && uncommitted ()) do
    if !i > 20_000 then Alcotest.failf "%s: merge never in flight" label;
    Blsm.Tree.put tree (extent_key !i) (extent_value !i);
    incr i
  done;
  Simdisk.Faults.schedule_crash_at_page_write plan ~after:1;
  (match
     while true do
       Blsm.Tree.put tree (extent_key !i) (extent_value !i);
       incr i
     done
   with
  | () -> ()
  | exception Simdisk.Faults.Crash_point _ -> ());
  let tree = Blsm.Tree.crash_and_recover tree in
  check_owned ~label store (Blsm.Tree.component_footers tree);
  (* and the recovered tree keeps merging without leaking either *)
  Blsm.Tree.flush tree;
  check_owned ~label:(label ^ ", after re-flush") store
    (Blsm.Tree.component_footers tree)

let merge1_mid t = Blsm.Tree.merge1_inprogress t > 0.3
let merge2_mid t =
  let p = Blsm.Tree.merge2_inprogress t in
  p > 0.3 && p < 1.0

let test_extents_merge1_live () =
  tree_crash_mid_merge ~label:"merge1 live" ~config:(small_config ())
    ~in_flight:merge1_mid

(* The gear scheduler steps merge1 in 64 KiB quanta and finishes a small
   one in a single step: a C0 this size leaves C0' + C1 larger than one
   quantum, so the merge is still open between writes. *)
let test_extents_merge1_frozen () =
  tree_crash_mid_merge ~label:"merge1 frozen"
    ~config:
      {
        (small_config ~scheduler:Blsm.Config.Gear ()) with
        Blsm.Config.c0_bytes = 256 * 1024;
      }
    ~in_flight:merge1_mid

let test_extents_merge2 () =
  tree_crash_mid_merge ~label:"merge2" ~config:(small_config ())
    ~in_flight:merge2_mid

(* A level-0 job of the partial policy writes 8 KiB splits (a few pages
   each); level 0 is built up with compaction held off, then the crash
   lands on the job's 12th page write, after several splits sealed. *)
let test_extents_policy_splits () =
  let store = mk_store () in
  let plan = Simdisk.Faults.create ~seed:13 () in
  Pagestore.Store.set_faults store plan;
  let pconfig =
    {
      Blsm.Policy_tree.default_pconfig with
      pt_l0_trigger = 4;
      pt_l0_stop = 100;
      pt_file_bytes = 8 * 1024;
      pt_base_bytes = 4 * 1024 * 1024;
      pt_max_levels = 3;
      pt_pacing =
        Blsm.Policy_tree.Credit
          { credit_per_byte = 0.0; slowdown_at = 100; slowdown_us = 0.0 };
    }
  in
  let t =
    Blsm.Policy_tree.create ~config:(small_config ()) ~pconfig
      ~policy:(List.assoc "partial" Blsm.Compaction_policy.named)
      store
  in
  for i = 0 to 1499 do
    Blsm.Policy_tree.put t (extent_key i) (extent_value i)
  done;
  Blsm.Policy_tree.flush t;
  let l0 = List.hd (Blsm.Policy_tree.levels t) in
  if l0.Blsm.Policy_tree.li_bytes < 16 * pconfig.pt_file_bytes then
    Alcotest.failf "level 0 holds only %d bytes" l0.li_bytes;
  Simdisk.Faults.schedule_crash_at_page_write plan ~after:12;
  (match Blsm.Policy_tree.maintenance t with
  | () -> Alcotest.fail "maintenance should have hit the crash point"
  | exception Simdisk.Faults.Crash_point _ -> ());
  let t = Blsm.Policy_tree.crash_and_recover t in
  if (Blsm.Policy_tree.engine_stats t).recoveries_mid_compaction <> 1 then
    Alcotest.fail "crash did not land inside a compaction";
  check_owned ~label:"policy splits" store (Blsm.Policy_tree.component_footers t);
  Blsm.Policy_tree.maintenance t;
  check_owned ~label:"policy splits, after re-run" store
    (Blsm.Policy_tree.component_footers t)

(* ------------------------------------------------------------------ *)
(* Every crash point inside an install. The shell ends every merge in
   one order: seal the last output while it still owns the merge, place
   the outputs, commit the manifest, free what they replace. The sweeps
   below crash at the k-th page write after [start] for k = 1, 2, ...
   (the merge's remaining output, its seal, and any merge interleaved
   with it) up to the first write after the install's commit, then at
   the k-th root commit (before the new manifest persists) up to the
   first one after the install's. Nothing durable happens between the
   commit and the retire, so a crash after the retire is the first page
   write after the commit. Each crash rebuilds the same state on a fresh
   store, then recovery must own exactly the committed extents and hold
   every acknowledged write. *)

type install_site = {
  start : unit -> unit;  (* runs before the puts that drive the install *)
  put : string -> string -> unit;
  installs : unit -> int;  (* committed installs of the merge under test *)
  recover :
    unit -> (string * Sstable.Sst_format.footer) list * Kv.Kv_intf.engine;
}

(* [setup store] builds the state: the site, the acknowledged writes and
   the index of the next key to write. [crash plan k] arms the k-th crash
   point of kind [point] after it. Returns how many crash points fell
   before the install's commit. *)
let sweep_crash_points ~label ~point ~crash setup =
  let rec sweep k inside =
    if k > 400 then Alcotest.failf "%s: no install in 400 %ss" label point;
    let store = mk_store () in
    let plan = Simdisk.Faults.create ~seed:k () in
    Pagestore.Store.set_faults store plan;
    let site, model, next = setup store in
    let model = ref model and i = ref next in
    let before = site.installs () in
    crash plan k;
    (match
       site.start ();
       while true do
         site.put (extent_key !i) (extent_value !i);
         model := SMap.add (extent_key !i) (extent_value !i) !model;
         incr i
       done
     with
    | () -> ()
    | exception Simdisk.Faults.Crash_point _ -> ());
    let committed = site.installs () > before in
    let footers, engine = site.recover () in
    let at = Printf.sprintf "%s, crash at %s %d" label point k in
    check_owned ~label:at store footers;
    SMap.iter
      (fun key v ->
        if engine.Kv.Kv_intf.get key <> Some v then Alcotest.failf "%s: %s lost" at key)
      !model;
    if engine.scan "" 100_000 <> SMap.bindings !model then
      Alcotest.failf "%s: scan disagrees with the model" at;
    if committed then inside else sweep (k + 1) (inside + 1)
  in
  sweep 1 0

let sweep_install ~label setup =
  let inside =
    sweep_crash_points ~label ~point:"page write" setup ~crash:(fun plan k ->
        Simdisk.Faults.schedule_crash_at_page_write ~torn:(k mod 2 = 0) plan ~after:k)
  in
  if inside < 3 then
    Alcotest.failf "%s: only %d page writes before the commit" label inside;
  let inside =
    sweep_crash_points ~label ~point:"root commit" setup ~crash:(fun plan k ->
        Simdisk.Faults.schedule_crash_at_root_commit plan ~after:k)
  in
  if inside < 1 then Alcotest.failf "%s: no root commit crashed before the install's" label

(* Put keys into a tree until [in_flight] holds with uncommitted output
   on the platter. *)
let tree_site ~config ~in_flight ~installs store =
  let t = ref (Blsm.Tree.create ~config store) in
  let model = ref SMap.empty and i = ref 0 in
  while
    not
      (in_flight !t
      && Pagestore.Store.stored_bytes store
         > committed_bytes store (Blsm.Tree.component_footers !t))
  do
    if !i > 20_000 then Alcotest.fail "merge never in flight";
    Blsm.Tree.put !t (extent_key !i) (extent_value !i);
    model := SMap.add (extent_key !i) (extent_value !i) !model;
    incr i
  done;
  ( {
      start = ignore;
      put = (fun k v -> Blsm.Tree.put !t k v);
      installs = (fun () -> installs (Blsm.Tree.merge_stats !t));
      recover =
        (fun () ->
          t := Blsm.Tree.crash_and_recover !t;
          (Blsm.Tree.component_footers !t, Blsm.Tree.engine !t));
    },
    !model,
    !i )

let test_install_merge1 () =
  sweep_install ~label:"merge1 install"
    (tree_site ~config:(small_config ())
       ~in_flight:(fun t ->
         (Blsm.Tree.merge_stats t).merge1_completions >= 2
         && Blsm.Tree.merge1_inprogress t > 0.0)
       ~installs:(fun ms -> ms.Blsm.Tree.merge1_completions))

let test_install_merge2 () =
  sweep_install ~label:"merge2 install"
    (tree_site ~config:(small_config ()) ~in_flight:merge2_mid
       ~installs:(fun ms -> ms.Blsm.Tree.merge2_completions))

(* A policy engine whose compactions run only when [start] asks: credit
   pacing earns nothing, and level 0 never reaches the stop threshold.
   Every root commit is an install's, so the one under test has
   committed once the store counts a root write past the setup's. *)
let policy_site ~policy ~n ~start store =
  let pconfig =
    {
      Blsm.Policy_tree.default_pconfig with
      pt_l0_trigger = 4;
      pt_l0_stop = 100;
      pt_file_bytes = 8 * 1024;
      pt_base_bytes = 4 * 1024 * 1024;
      pt_max_levels = 3;
      pt_pacing =
        Blsm.Policy_tree.Credit
          { credit_per_byte = 0.0; slowdown_at = 100; slowdown_us = 0.0 };
    }
  in
  let t =
    ref
      (Blsm.Policy_tree.create ~config:(small_config ()) ~pconfig
         ~policy:(List.assoc policy Blsm.Compaction_policy.named)
         store)
  in
  let model = ref SMap.empty in
  for i = 0 to n - 1 do
    Blsm.Policy_tree.put !t (extent_key i) (extent_value i);
    model := SMap.add (extent_key i) (extent_value i) !model
  done;
  Blsm.Policy_tree.flush !t;
  ( {
      start = (fun () -> start !t);
      put = (fun k v -> Blsm.Policy_tree.put !t k v);
      installs = (fun () -> Pagestore.Store.root_writes store);
      recover =
        (fun () ->
          t := Blsm.Policy_tree.crash_and_recover !t;
          (Blsm.Policy_tree.component_footers !t, Blsm.Policy_tree.engine ~name:policy !t));
    },
    !model,
    n )

(* The next memtable flush, driven by puts, over level-0 runs already
   committed. *)
let test_install_policy_flush () =
  sweep_install ~label:"policy flush install"
    (policy_site ~policy:"tiered" ~n:400 ~start:ignore)

(* A level-0 job of the partial policy writes 8 KiB splits, so most of
   the sweep lands with several splits sealed and not yet installed. *)
let test_install_policy_splits () =
  sweep_install ~label:"policy compaction install"
    (policy_site ~policy:"partial" ~n:1500 ~start:Blsm.Policy_tree.maintenance)

(* Recovery places each mounted run by manifest order, so every level's
   runs come back in the order they were committed in: crash at several
   points of a workload and compare each engine's (level, timestamp)
   list before and after. Between operations the live set is the
   committed set: merge outputs install at their manifest commit. *)

let layout footers =
  List.map (fun (lvl, (f : Sstable.Sst_format.footer)) -> (lvl, f.timestamp)) footers

let check_layouts ~label ~footers ~crash_recover ~put =
  let shapes = ref [] in
  for round = 1 to 8 do
    for i = (round - 1) * 250 to (round * 250) - 1 do
      put (extent_key i) (extent_value i)
    done;
    let before = layout (footers ()) in
    shapes := List.sort_uniq String.compare (List.map fst before) :: !shapes;
    crash_recover ();
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "%s: runs after crash %d" label round)
      before (layout (footers ()))
  done;
  (* the workload reached more than one level *)
  if not (List.exists (fun levels -> List.length levels >= 2) !shapes) then
    Alcotest.failf "%s: never more than one level" label

let test_layout_tree () =
  List.iter
    (fun (label, scheduler) ->
      let t = ref (Blsm.Tree.create ~config:(small_config ~scheduler ()) (mk_store ())) in
      check_layouts ~label
        ~footers:(fun () -> Blsm.Tree.component_footers !t)
        ~crash_recover:(fun () -> t := Blsm.Tree.crash_and_recover !t)
        ~put:(fun k v -> Blsm.Tree.put !t k v))
    [ ("spring", Blsm.Config.Spring); ("gear", Blsm.Config.Gear) ]

let test_layout_policies () =
  let pconfig =
    {
      Blsm.Policy_tree.default_pconfig with
      pt_l0_trigger = 3;
      pt_l0_stop = 6;
      pt_fanout = 3.0;
      pt_base_bytes = 32 * 1024;
      pt_file_bytes = 16 * 1024;
      pt_max_levels = 5;
    }
  in
  List.iter
    (fun (name, policy) ->
      let t =
        ref (Blsm.Policy_tree.create ~config:(small_config ()) ~pconfig ~policy (mk_store ()))
      in
      check_layouts ~label:name
        ~footers:(fun () -> Blsm.Policy_tree.component_footers !t)
        ~crash_recover:(fun () -> t := Blsm.Policy_tree.crash_and_recover !t)
        ~put:(fun k v -> Blsm.Policy_tree.put !t k v))
    Blsm.Compaction_policy.named

(* ------------------------------------------------------------------ *)
(* Binary keys and values through the whole stack *)

let arb_binary_key =
  (* keys with NULs, 0xFF, empty-ish, and long runs *)
  QCheck.Gen.(
    oneof
      [
        map (fun l -> String.concat "" l)
          (list_size (1 -- 12)
             (oneof
                [
                  return "\000";
                  return "\255";
                  return "\001";
                  map (String.make 1) (char_range 'a' 'z');
                ]));
        map Bytes.unsafe_to_string
          (map (fun l -> Bytes.of_string (String.concat "" (List.map (String.make 1) l)))
             (list_size (1 -- 30) (map Char.chr (0 -- 255))));
      ])

let prop_binary_keys =
  QCheck.Test.make ~name:"binary keys survive merges, scans, recovery" ~count:40
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 60) (pair arb_binary_key (string_size (0 -- 80)))))
    (fun pairs ->
      (* nonempty keys only: the tree treats keys as opaque but nonempty *)
      let pairs = List.filter (fun (k, _) -> k <> "") pairs in
      QCheck.assume (pairs <> []);
      let tree = Blsm.Tree.create ~config:(small_config ()) (mk_store ()) in
      let model =
        List.fold_left
          (fun m (k, v) ->
            Blsm.Tree.put tree k v;
            SMap.add k v m)
          SMap.empty pairs
      in
      Blsm.Tree.flush tree;
      let tree = Blsm.Tree.crash_and_recover tree in
      SMap.for_all (fun k v -> Blsm.Tree.get tree k = Some v) model
      && Blsm.Tree.scan tree "" 10_000 = SMap.bindings model)

let prop_binary_keys_sstable =
  QCheck.Test.make ~name:"sstable roundtrip with binary keys" ~count:60
    (QCheck.make
       QCheck.Gen.(list_size (1 -- 40) (pair arb_binary_key (string_size (0 -- 50)))))
    (fun pairs ->
      let pairs = List.filter (fun (k, _) -> k <> "") pairs in
      QCheck.assume (pairs <> []);
      let module M = Map.Make (String) in
      let m =
        List.fold_left (fun m (k, v) -> M.add k (Kv.Entry.Base v) m) M.empty pairs
      in
      let store = mk_store () in
      let b = Sstable.Builder.create ~extent_pages:4 store in
      M.iter (fun k e -> Sstable.Builder.add b k e) m;
      let footer = Sstable.Builder.finish b ~timestamp:1 in
      let sst =
        Sstable.Reader.open_in_ram store footer ~index:(Sstable.Builder.index_blob b)
      in
      M.for_all (fun k e -> Sstable.Reader.get sst k = Some e) m)

let () =
  Alcotest.run "crash"
    [
      ( "recovery",
        [
          QCheck_alcotest.to_alcotest prop_crash_anywhere;
          QCheck_alcotest.to_alcotest prop_crash_anywhere_gear;
          Alcotest.test_case "repeated crashes" `Quick test_repeated_crashes;
          Alcotest.test_case "crash before writes" `Quick test_crash_before_any_write;
          Alcotest.test_case "None_ durability prefix" `Quick test_none_durability_prefix_consistency;
          Alcotest.test_case "replay idempotent" `Quick test_wal_replay_idempotent_state;
        ] );
      ( "crash_points",
        [
          Alcotest.test_case "crash inside merge commit" `Quick
            test_crash_inside_merge_commit;
          Alcotest.test_case "crash inside memtable flush" `Quick
            test_crash_inside_memtable_flush;
        ] );
      ( "extents",
        [
          Alcotest.test_case "mid merge1, live C0" `Quick test_extents_merge1_live;
          Alcotest.test_case "mid merge1, frozen C0'" `Quick
            test_extents_merge1_frozen;
          Alcotest.test_case "mid merge2" `Quick test_extents_merge2;
          Alcotest.test_case "mid policy compaction, splits sealed" `Quick
            test_extents_policy_splits;
        ] );
      ( "install",
        [
          Alcotest.test_case "every crash point, merge1" `Quick test_install_merge1;
          Alcotest.test_case "every crash point, merge2" `Quick test_install_merge2;
          Alcotest.test_case "every crash point, policy flush" `Quick
            test_install_policy_flush;
          Alcotest.test_case "every crash point, policy compaction" `Quick
            test_install_policy_splits;
        ] );
      ( "placement",
        [
          Alcotest.test_case "tree runs as committed" `Quick test_layout_tree;
          Alcotest.test_case "policy runs as committed" `Quick test_layout_policies;
        ] );
      ( "binary_keys",
        [
          QCheck_alcotest.to_alcotest prop_binary_keys;
          QCheck_alcotest.to_alcotest prop_binary_keys_sstable;
        ] );
    ]
