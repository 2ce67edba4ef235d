(* §4.1 estimator properties: "an important, but subtle property of
   inprogress is that any merge activity increases it, and that, within a
   single merge, the cost (in bytes transferred) of increasing inprogress
   by a fixed amount will never vary by more than a small constant
   factor. We say that estimators with this property are smooth."

   These tests drive merge state machines with fixed-size quota steps and
   assert: monotone non-decreasing progress, strictly increasing while
   work remains, bounded per-step jumps, and [0,1] range for both
   inprogress and outprogress — including the paper's stuck-estimator
   trap: inputs with long non-overlapping runs or runs of deletions. *)

let mk_store () =
  Pagestore.Store.create
    ~config:
      { Pagestore.Store.cfg_page_size = 4096;
        cfg_buffer_pages = 128;
        cfg_durability = Pagestore.Wal.None_ }
    Simdisk.Profile.ssd_raid0

let config =
  {
    Blsm.Config.default with
    Blsm.Config.c0_bytes = 64 * 1024;
    extent_pages = 16;
    size_ratio = Blsm.Config.Fixed 4.0;
  }

let build_component store records =
  let b = Sstable.Builder.create ~extent_pages:16 store in
  List.iter (fun (k, e) -> Sstable.Builder.add b k e) records;
  let footer = Sstable.Builder.finish b ~timestamp:1 in
  let sst =
    Sstable.Reader.open_in_ram store footer ~index:(Sstable.Builder.index_blob b)
  in
  Blsm.Component.of_sst sst

let mem_of records =
  let mem = Memtable.create ~resolver:Kv.Entry.append_resolver () in
  List.iteri (fun i (k, e) -> Memtable.write mem ~lsn:(i + 1) k e) records;
  mem

(* Drive a merge to completion in [quota]-byte steps; return the
   inprogress trace (one sample per step). *)
let trace_merge ~store ~input ~bloom_items ~output ~quota =
  let m =
    Blsm.Merge_process.create ~config ~store ~label:"test" ~args:[] ~input
      ~bloom_items ~output ~stamp:(fun () -> 1)
  in
  let samples = ref [ Blsm.Merge_process.inprogress m ] in
  let rec go guard =
    if guard > 100_000 then failwith "merge did not finish";
    match Blsm.Merge_process.step m ~quota with
    | `More ->
        samples := Blsm.Merge_process.inprogress m :: !samples;
        go (guard + 1)
    | `Done ->
        samples := Blsm.Merge_process.inprogress m :: !samples;
        Blsm.Merge_process.abandon m;
        List.rev !samples
  in
  go 0

(* Drive a C0:C1 merge to completion in [quota]-byte steps; return the
   inprogress trace (one sample per step). *)
let trace_c0 ~store ~mem ~c1 ~quota =
  let input =
    Blsm.Merge_process.c0_input ~resolver:config.Blsm.Config.resolver
      ~source:(Blsm.Merge_process.Frozen mem) ~c1 ~run_cap:max_int
  in
  trace_merge ~store ~input ~bloom_items:1000 ~output:Blsm.Merge_process.Level
    ~quota

let check_smooth ~label ~quota ~total samples =
  (* monotone, in range *)
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        if b < a -. 1e-9 then
          Alcotest.failf "%s: progress decreased (%f -> %f)" label a b;
        pairs rest
    | _ -> ()
  in
  pairs samples;
  List.iter
    (fun v ->
      if v < -1e-9 || v > 1.0 +. 1e-9 then
        Alcotest.failf "%s: progress %f out of [0,1]" label v)
    samples;
  (* smooth: per-step delta close to quota/total, never a huge jump and
     never stuck at zero progress across many steps *)
  let expected = float_of_int quota /. float_of_int total in
  let rec deltas acc = function
    | a :: (b :: _ as rest) -> deltas ((b -. a) :: acc) rest
    | _ -> List.rev acc
  in
  let ds = deltas [] samples in
  let n_mid = max 0 (List.length ds - 2) in
  List.iteri
    (fun i d ->
      (* ignore the final partial step *)
      if i < n_mid then begin
        if d > 8.0 *. expected +. 1e-6 then
          Alcotest.failf "%s: jumpy step %d: delta %f >> expected %f" label i d
            expected;
        if d < expected /. 8.0 -. 1e-9 then
          Alcotest.failf "%s: stuck step %d: delta %f << expected %f" label i d
            expected
      end)
    ds

let records prefix n size =
  List.init n (fun i ->
      (Printf.sprintf "%s%06d" prefix i, Kv.Entry.Base (String.make size 'v')))

let test_smooth_overlapping () =
  let store = mk_store () in
  let recs = records "k" 400 100 in
  let c1 = build_component store recs in
  (* memtable interleaves with c1 keys *)
  let mem =
    mem_of
      (List.init 400 (fun i ->
           (Printf.sprintf "k%06dx" i, Kv.Entry.Base (String.make 100 'm'))))
  in
  let total = Memtable.bytes mem + Blsm.Component.data_bytes c1 in
  let quota = total / 40 in
  check_smooth ~label:"overlapping" ~quota ~total
    (trace_c0 ~store ~mem ~c1:(Some c1) ~quota)

let test_smooth_disjoint_ranges () =
  (* the paper's trap: estimators focused on large-tree I/O get "stuck"
     when input ranges do not overlap; ours must keep moving *)
  let store = mk_store () in
  let c1 = build_component store (records "zzz" 400 100) in
  let mem = mem_of (records "aaa" 400 100) in
  let total = Memtable.bytes mem + Blsm.Component.data_bytes c1 in
  let quota = total / 40 in
  check_smooth ~label:"disjoint" ~quota ~total
    (trace_c0 ~store ~mem ~c1:(Some c1) ~quota)

let test_smooth_deletion_runs () =
  (* long runs of tombstones in C0 *)
  let store = mk_store () in
  let c1 = build_component store (records "k" 400 100) in
  let mem =
    mem_of (List.init 400 (fun i -> (Printf.sprintf "k%06d" i, Kv.Entry.Tombstone)))
  in
  let total = Memtable.bytes mem + Blsm.Component.data_bytes c1 in
  let quota = total / 30 in
  (* tombstone records are tiny: allow wider jump bounds via larger quota *)
  check_smooth ~label:"deletions" ~quota ~total
    (trace_c0 ~store ~mem ~c1:(Some c1) ~quota)

(* A policy compaction job: runs merged freshest first through a
   Merge_iter into split output runs, as Policy_tree executes every
   job, metered in input bytes. *)
let trace_policy_job ~store ~runs ~drop_tombstones ~split ~quota =
  let pulls =
    List.map
      (fun c ->
        let it = Blsm.Component.iterator c in
        fun () -> Sstable.Reader.iter_next_full it)
      runs
  in
  let total = List.fold_left (fun a c -> a + Blsm.Component.data_bytes c) 0 runs in
  let input =
    Blsm.Merge_process.merge_input ~resolver:config.Blsm.Config.resolver
      ~drop_tombstones ~total pulls
  in
  (total, trace_merge ~store ~input ~bloom_items:16
            ~output:(Blsm.Merge_process.Runs split) ~quota)

let test_smooth_policy_job () =
  (* three overlapping level-0 runs over one older run: every key
     group folds several sources, the output splits every 8 KiB *)
  let store = mk_store () in
  let run r =
    build_component store
      (List.init 300 (fun j ->
           (Printf.sprintf "k%06d" ((j * 4) + r), Kv.Entry.Base (String.make 100 'n'))))
  in
  let runs = [ run 0; run 1; run 2; build_component store (records "k" 1200 100) ] in
  let total, samples =
    trace_policy_job ~store ~runs ~drop_tombstones:false ~split:(8 * 1024)
      ~quota:4096
  in
  check_smooth ~label:"policy job" ~quota:4096 ~total samples

let test_smooth_policy_bottom_tombstones () =
  (* a bottom job whose newer run deletes every key of the older one:
     nothing survives, yet progress must advance with the input read *)
  let store = mk_store () in
  let base = build_component store (records "k" 600 100) in
  let deletes =
    build_component store
      (List.init 600 (fun i -> (Printf.sprintf "k%06d" i, Kv.Entry.Tombstone)))
  in
  let total, samples =
    trace_policy_job ~store ~runs:[ deletes; base ] ~drop_tombstones:true
      ~split:(8 * 1024) ~quota:2048
  in
  check_smooth ~label:"policy bottom tombstones" ~quota:2048 ~total samples

let test_outprogress_range_and_monotonicity () =
  (* outprogress over a simulated fill: grows with both inprogress and
     component size, clamped to [0,1] *)
  let prev = ref 0.0 in
  for step = 0 to 100 do
    let inp = float_of_int (step mod 34) /. 34.0 in
    let ci = step * 3000 in
    let v =
      Blsm.Scheduler.outprogress ~inprogress:inp ~ci_bytes:ci ~ram_bytes:25_000
        ~r:4.0
    in
    if v < 0.0 || v > 1.0 then Alcotest.failf "outprogress %f out of range" v;
    (* monotone in the floor term: compare same-inprogress successive sizes *)
    if step > 0 && step mod 34 = 0 then prev := 0.0;
    ignore !prev;
    prev := v
  done

(* --- bounded quanta through elided records ------------------------ *)

(* Every [<name>] span in a JSONL trace, as (quota, consumed) input
   bytes. *)
let quanta trace name =
  let int_after line field =
    let pat = "\"" ^ field ^ "\":" in
    let rec find i =
      if i + String.length pat > String.length line then
        Alcotest.failf "no %s in %s" field line
      else if String.sub line i (String.length pat) = pat then
        i + String.length pat
      else find (i + 1)
    in
    let start = find 0 in
    let stop = ref start in
    while !stop < String.length line && line.[!stop] >= '0' && line.[!stop] <= '9' do
      incr stop
    done;
    int_of_string (String.sub line start (!stop - start))
  in
  let tag = "{\"name\":\"" ^ name ^ "\"" in
  String.split_on_char '\n' trace
  |> List.filter (fun l ->
         String.length l >= String.length tag
         && String.sub l 0 (String.length tag) = tag)
  |> List.map (fun l -> (int_after l "quota", int_after l "consumed"))

let long_key i = Printf.sprintf "%s%06d" (String.make 48 'k') i
let value_bytes = 100

(* One record's input bytes, rounded up: key, value and encoding. *)
let record_bound = String.length (long_key 0) + value_bytes + 16

let check_quanta ~label ~group qs =
  if qs = [] then Alcotest.failf "%s: no merge quanta traced" label;
  List.iter
    (fun (quota, consumed) ->
      if consumed > quota + group then
        Alcotest.failf "%s: a step read %d input bytes for quota %d (bound %d)"
          label consumed quota (quota + group))
    qs

(* Fill the engine, settle it, then delete every key with tracing on:
   the deletes reach the bottom as a long run of tombstones shadowing
   every bottom record, which the bottom merge elides. *)
let delete_all_traced ~store ~put ~delete ~settle n =
  for i = 0 to n - 1 do
    put (long_key i) (String.make value_bytes 'v')
  done;
  settle ();
  let finish =
    Obs.Trace.enable_buffer (Pagestore.Store.trace store) ~format:Obs.Trace.Jsonl
  in
  for i = 0 to n - 1 do
    delete (long_key i)
  done;
  settle ();
  finish ()

let test_tree_merge2_tombstone_run () =
  let store = mk_store () in
  let tree =
    Blsm.Tree.create
      ~config:{ config with Blsm.Config.c0_bytes = 16 * 1024; size_ratio = Blsm.Config.Fixed 2.0 }
      store
  in
  let trace =
    delete_all_traced ~store ~put:(Blsm.Tree.put tree)
      ~delete:(Blsm.Tree.delete tree)
      ~settle:(fun () -> Blsm.Tree.flush tree)
      2000
  in
  (* a C1':C2 key group is one tombstone over one base record *)
  check_quanta ~label:"tree merge2" ~group:(2 * record_bound)
    (quanta trace "merge2.quantum")

let test_policy_bottom_job_tombstone_run () =
  let store = mk_store () in
  let pconfig =
    {
      Blsm.Policy_tree.default_pconfig with
      pt_l0_trigger = 2;
      pt_l0_stop = 6;
      pt_max_levels = 2;
      pt_pacing = Blsm.Policy_tree.Spring;
    }
  in
  let t =
    Blsm.Policy_tree.create
      ~config:{ config with Blsm.Config.c0_bytes = 16 * 1024 }
      ~pconfig
      ~policy:(List.assoc "leveled" Blsm.Compaction_policy.named)
      store
  in
  let trace =
    delete_all_traced ~store ~put:(Blsm.Policy_tree.put t)
      ~delete:(Blsm.Policy_tree.delete t)
      ~settle:(fun () -> Blsm.Policy_tree.maintenance t)
      2000
  in
  (* two levels: every level-0 job consumes all of level 1, the bottom.
     A key group holds at most one record per level-0 run plus one. *)
  check_quanta ~label:"policy bottom job"
    ~group:((pconfig.pt_l0_stop + 1) * record_bound)
    (quanta trace "compact.quantum")

let () =
  Alcotest.run "smoothness"
    [
      ( "estimators",
        [
          Alcotest.test_case "overlapping inputs" `Quick test_smooth_overlapping;
          Alcotest.test_case "disjoint ranges" `Quick test_smooth_disjoint_ranges;
          Alcotest.test_case "deletion runs" `Quick test_smooth_deletion_runs;
          Alcotest.test_case "policy job" `Quick test_smooth_policy_job;
          Alcotest.test_case "policy job, bottom tombstones" `Quick
            test_smooth_policy_bottom_tombstones;
          Alcotest.test_case "outprogress range" `Quick test_outprogress_range_and_monotonicity;
        ] );
      ( "bounded quanta",
        [
          Alcotest.test_case "tree merge2 over a tombstone run" `Quick
            test_tree_merge2_tombstone_run;
          Alcotest.test_case "policy bottom job over a tombstone run" `Quick
            test_policy_bottom_job_tombstone_run;
        ] );
    ]
