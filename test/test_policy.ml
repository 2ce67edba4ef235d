(* Compaction-policy suite:
   - QCheck property per policy: after any seeded op sequence the level
     shape satisfies the policy's structural invariant (tiered: <= T
     runs per tier; leveled: one run per level within size bounds;
     partial: key-disjoint files per level), and get/scan agree with the
     DST sorted-map oracle;
   - differential test: the same seeded workload under all four
     policies plus the seed snowshovel (the spring-paced bLSM tree)
     yields identical logical contents, pinned at 3 seeds;
   - crash safety: recovery mid-sequence preserves oracle agreement, the
     structural invariant and a clean scrub, for every policy and for
     the LevelDB configuration;
   - pinned selection: the jobs each named point picks over a fixed
     stream of random views, digested. *)

let policies = List.map fst Blsm.Compaction_policy.named

let driver_names =
  "blsm" :: List.map (fun p -> "policy-" ^ p) policies

let gen_key prng = Printf.sprintf "key%03d" (Repro_util.Prng.int prng 200)

(* --- satellite 1: structural invariant + oracle agreement ---------- *)

(* Drive a Policy_tree directly (the driver surface hides
   [check_invariant]) against the DST oracle, with flushes and
   maintenance interleaved so runs actually pile up and merge. *)
let run_structural ~policy_name ~seed ~n =
  let store, _ = Dst.Driver.mk_store ~fault_seed:seed () in
  let policy = List.assoc policy_name Blsm.Compaction_policy.named in
  let t =
    Blsm.Policy_tree.create
      ~config:(Dst.Driver.small_config seed)
      ~pconfig:Dst.Driver.small_pconfig ~policy store
  in
  let oracle = Dst.Oracle.create () in
  let prng = Repro_util.Prng.of_int (seed lxor 0x9E37) in
  for i = 1 to n do
    let k = gen_key prng in
    (match Repro_util.Prng.int prng 10 with
    | 0 | 1 | 2 | 3 | 4 ->
        let v = Printf.sprintf "v%d-%s" i (String.make 24 'p') in
        Blsm.Policy_tree.put t k v;
        Dst.Oracle.put oracle k v
    | 5 ->
        Blsm.Policy_tree.delete t k;
        Dst.Oracle.delete oracle k
    | 6 ->
        let d = Printf.sprintf "+%d" i in
        Blsm.Policy_tree.apply_delta t k d;
        Dst.Oracle.delta oracle k d
    | 7 ->
        let f = Dst.Driver.append_rmw "r" in
        Blsm.Policy_tree.read_modify_write t k f;
        Dst.Oracle.read_modify_write oracle k f
    | 8 ->
        let got = Blsm.Policy_tree.get t k in
        let want = Dst.Oracle.get oracle k in
        if got <> want then
          Alcotest.failf "%s seed %d op %d: get %s = %s, oracle %s"
            policy_name seed i k
            (Option.value got ~default:"<none>")
            (Option.value want ~default:"<none>")
    | _ ->
        let len = 1 + Repro_util.Prng.int prng 8 in
        let got = Blsm.Policy_tree.scan t k len in
        let want = Dst.Oracle.scan oracle k len in
        if got <> want then
          Alcotest.failf "%s seed %d op %d: scan %s %d diverges (%d vs %d)"
            policy_name seed i k len (List.length got) (List.length want));
    if i mod 40 = 0 then Blsm.Policy_tree.flush t;
    if i mod 150 = 0 then begin
      Blsm.Policy_tree.maintenance t;
      match Blsm.Policy_tree.check_invariant t with
      | Some err ->
          Alcotest.failf "%s seed %d op %d: structural invariant: %s"
            policy_name seed i err
      | None -> ()
    end
  done;
  Blsm.Policy_tree.maintenance t;
  (match Blsm.Policy_tree.check_invariant t with
  | Some err ->
      Alcotest.failf "%s seed %d: final structural invariant: %s" policy_name
        seed err
  | None -> ());
  (* settled shape still serves every binding *)
  let final = Blsm.Policy_tree.scan t "" 10_000 in
  if final <> Dst.Oracle.bindings oracle then
    Alcotest.failf "%s seed %d: scan-all disagrees with oracle (%d vs %d)"
      policy_name seed (List.length final)
      (Dst.Oracle.cardinal oracle);
  for _ = 1 to 50 do
    let k = gen_key prng in
    if Blsm.Policy_tree.get t k <> Dst.Oracle.get oracle k then
      Alcotest.failf "%s seed %d: settled get %s diverges" policy_name seed k
  done

let prop_structural policy_name =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: structural invariant + oracle match" policy_name)
    ~count:6 QCheck.small_int (fun seed ->
      run_structural ~policy_name ~seed:(seed + 7000) ~n:500;
      true)

(* --- satellite 2: cross-policy differential at pinned seeds -------- *)

type op =
  | Put of string * string
  | Delete of string
  | Delta of string * string
  | Rmw of string
  | Ifabsent of string * string
  | Get of string
  | Scan of string * int
  | Batch of (string * Kv.Entry.t) list

let gen_ops seed n =
  let prng = Repro_util.Prng.of_int seed in
  List.init n (fun i ->
      let key = gen_key prng in
      match Repro_util.Prng.int prng 12 with
      | 0 | 1 | 2 | 3 -> Put (key, Printf.sprintf "v%d-%s" i (String.make 32 'q'))
      | 4 -> Delete key
      | 5 -> Delta (key, Printf.sprintf "+%d" i)
      | 6 -> Rmw key
      | 7 -> Ifabsent (key, Printf.sprintf "ia%d" i)
      | 8 -> Get key
      | 9 | 10 -> Scan (key, 1 + Repro_util.Prng.int prng 8)
      | _ ->
          Batch
            (List.init
               (1 + Repro_util.Prng.int prng 5)
               (fun j ->
                 let k = gen_key prng in
                 if Repro_util.Prng.int prng 5 = 0 then (k, Kv.Entry.Tombstone)
                 else (k, Kv.Entry.Base (Printf.sprintf "b%d.%d" i j)))))

let apply (d : Dst.Driver.t) = function
  | Put (k, v) ->
      d.Dst.Driver.put k v;
      ""
  | Delete k ->
      d.Dst.Driver.delete k;
      ""
  | Delta (k, dl) ->
      d.Dst.Driver.apply_delta k dl;
      ""
  | Rmw k ->
      d.Dst.Driver.rmw k "r";
      ""
  | Ifabsent (k, v) -> string_of_bool (d.Dst.Driver.insert_if_absent k v)
  | Get k -> Option.value (d.Dst.Driver.get k) ~default:"<none>"
  | Scan (k, n) ->
      d.Dst.Driver.scan k n
      |> List.map (fun (k, v) -> k ^ "=" ^ v)
      |> String.concat ";"
  | Batch entries ->
      d.Dst.Driver.write_batch entries;
      ""

let apply_oracle o = function
  | Put (k, v) ->
      Dst.Oracle.put o k v;
      ""
  | Delete k ->
      Dst.Oracle.delete o k;
      ""
  | Delta (k, dl) ->
      Dst.Oracle.delta o k dl;
      ""
  | Rmw k ->
      Dst.Oracle.read_modify_write o k (Dst.Driver.append_rmw "r");
      ""
  | Ifabsent (k, v) -> string_of_bool (Dst.Oracle.insert_if_absent o k v)
  | Get k -> Option.value (Dst.Oracle.get o k) ~default:"<none>"
  | Scan (k, n) ->
      Dst.Oracle.scan o k n
      |> List.map (fun (k, v) -> k ^ "=" ^ v)
      |> String.concat ";"
  | Batch entries ->
      List.iter (fun (k, e) -> Dst.Oracle.apply_entry o k e) entries;
      ""

(* Same workload through the seed snowshovel and all four policy trees:
   every per-op observation and the final scan-all must agree with the
   shared oracle (and therefore with each other). *)
let run_differential seed n =
  let ops = gen_ops seed n in
  let oracle = Dst.Oracle.create () in
  let expected = List.map (apply_oracle oracle) ops in
  List.iter
    (fun name ->
      let d = Dst.Driver.make_exn name ~seed () in
      List.iteri
        (fun i (op, want) ->
          let got = apply d op in
          if got <> want then
            Alcotest.failf "op %d on %s: engine=%S oracle=%S" i name got want)
        (List.combine ops expected);
      d.Dst.Driver.maintenance ();
      let final = d.Dst.Driver.scan "" 10_000 in
      if final <> Dst.Oracle.bindings oracle then
        Alcotest.failf
          "final contents on %s disagree with oracle (%d vs %d rows)" name
          (List.length final)
          (Dst.Oracle.cardinal oracle))
    driver_names

let test_diff_seed s () = run_differential s 1200

(* --- crash mid-sequence keeps the policies honest ------------------ *)

(* A fresh tree per crash input: each spring-paced policy, plus the
   2012 LevelDB configuration (credit pacing, no Bloom filters). *)
let crash_tree name ~seed store =
  if name = "leveldb" then
    Blsm.Policy_tree.create
      ~config:
        {
          (Dst.Driver.small_config seed) with
          Blsm.Config.bloom_bits_per_key = 0;
        }
      ~pconfig:
        {
          Blsm.Policy_tree.leveldb_pconfig with
          Blsm.Policy_tree.pt_file_bytes = 16 * 1024;
          pt_base_bytes = 64 * 1024;
        }
      ~policy:Blsm.Compaction_policy.leveldb_seed
      store
  else
    Blsm.Policy_tree.create
      ~config:(Dst.Driver.small_config seed)
      ~pconfig:Dst.Driver.small_pconfig
      ~policy:(List.assoc name Blsm.Compaction_policy.named)
      store

let test_crash_recovery policy_name () =
  let seed = 2024 in
  let store, _ = Dst.Driver.mk_store ~fault_seed:seed () in
  let t = ref (crash_tree policy_name ~seed store) in
  let oracle = Dst.Oracle.create () in
  let prng = Repro_util.Prng.of_int (seed lxor 0xC4A5) in
  for i = 1 to 600 do
    let k = gen_key prng in
    let v = Printf.sprintf "c%d" i in
    Blsm.Policy_tree.put !t k v;
    Dst.Oracle.put oracle k v;
    if i mod 97 = 0 then t := Blsm.Policy_tree.crash_and_recover ~verify:true !t
  done;
  Blsm.Policy_tree.maintenance !t;
  (match Blsm.Policy_tree.check_invariant !t with
  | Some err -> Alcotest.failf "%s: invariant after crashes: %s" policy_name err
  | None -> ());
  let final = Blsm.Policy_tree.scan !t "" 10_000 in
  Alcotest.(check int)
    (policy_name ^ ": rows survive crashes")
    (Dst.Oracle.cardinal oracle)
    (List.length final);
  if final <> Dst.Oracle.bindings oracle then
    Alcotest.failf "%s: contents diverge after crashes" policy_name;
  Alcotest.(check bool)
    (policy_name ^ ": recoveries counted")
    true
    ((Blsm.Policy_tree.engine_stats !t).Blsm.Policy_tree.recoveries >= 6);
  Alcotest.(check bool)
    (policy_name ^ ": scrub clean after crashes")
    true
    (Blsm.Policy_tree.scrub !t).Blsm.Lsm_shell.scrub_clean

(* --- pinned selection ---------------------------------------------- *)

module P = Blsm.Compaction_policy

(* A fixed-seed stream of random views: every level from 0 to
   [v_max_levels - 1], random run counts and sizes, key-disjoint and
   overlapping levels, random knobs. Run ids are unique; each level is
   in the host's storage order (level 0 newest first, deeper levels by
   min key). *)
let gen_view prng =
  let int = Repro_util.Prng.int prng in
  let max_levels = 2 + int 6 in
  let fanout = 1.0 +. (float_of_int (int 100) /. 10.0) in
  let base = 1024 * (1 + int 64) in
  let l0_trigger = 1 + int 6 in
  let file_bytes = 1024 * (1 + int 32) in
  let next_id = ref 0 in
  let level lvl =
    let n = int (if Repro_util.Prng.bool prng then 4 else 13) in
    let target =
      if lvl = 0 then base
      else int_of_float (float_of_int base *. (fanout ** float_of_int (lvl - 1)))
    in
    (* a quarter of the levels sit within a byte of their target *)
    let sizes = List.init n (fun _ -> 1 + int (max 1 (2 * target / max 1 n))) in
    let sizes =
      match sizes with
      | _ :: rest when int 4 = 0 ->
          max 1 (target - List.fold_left ( + ) 0 rest + int 3 - 1) :: rest
      | _ -> sizes
    in
    let key k = Printf.sprintf "k%04d" k in
    let disjoint = Repro_util.Prng.bool prng in
    let pos = ref (int 50) in
    let runs =
      List.map
        (fun bytes ->
          incr next_id;
          let lo, hi =
            if disjoint then begin
              let lo = !pos + 1 + int 30 in
              let hi = lo + int 30 in
              pos := hi;
              (lo, hi)
            end
            else
              let lo = int 1000 in
              (lo, lo + int 300)
          in
          {
            P.run_id = !next_id;
            run_bytes = bytes;
            run_min_key = key lo;
            run_max_key = key hi;
          })
        sizes
    in
    if lvl = 0 then List.rev runs
    else
      List.stable_sort
        (fun a b -> String.compare a.P.run_min_key b.P.run_min_key)
        runs
  in
  {
    P.v_levels = Array.init max_levels level;
    v_l0_trigger = l0_trigger;
    v_fanout = fanout;
    v_base_bytes = base;
    v_file_bytes = file_bytes;
    v_max_levels = max_levels;
  }

let views =
  lazy
    (let prng = Repro_util.Prng.of_int 0x5E1EC7 in
     List.init 2500 (fun _ -> gen_view prng))

let show_job = function
  | None -> "-"
  | Some (j : P.job) ->
      let ids l = String.concat "," (List.map string_of_int l) in
      Printf.sprintf "%d[%s]+[%s]->%d/%d" j.P.j_level (ids j.P.j_inputs)
        (ids j.P.j_overlaps) j.P.j_target j.P.j_split_bytes

(* The host's cursor rule: a job that moves one run records that run's
   min key for its level. *)
let advance cursor (v : P.view) (j : P.job) =
  match j.P.j_inputs with
  | [ id ] ->
      let r = List.find (fun r -> r.P.run_id = id) v.P.v_levels.(j.P.j_level) in
      cursor.(j.P.j_level) <- r.P.run_min_key
  | _ -> ()

(* One line per view: the pick (the cursor advanced as the host does),
   the level-0 job, the check verdict. *)
let selection_digest p =
  let cursor = Array.make 8 "" in
  let b = Buffer.create 65536 in
  List.iter
    (fun v ->
      let job = P.pick p ~cursor v in
      Option.iter (advance cursor v) job;
      Printf.bprintf b "%s %s %s\n" (show_job job) (show_job (P.l0_job p v))
        (if P.check p v = None then "ok" else "bad"))
    (Lazy.force views);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Generated with the five hand-written policy factories this selector
   replaced; a change here is a change in which runs a policy merges. *)
let pinned_selection =
  [
    ("tiered", "49cffb67146b7493a7102f0175bde6d3");
    ("leveled", "0388f11465c98a6825e2c6c624b5f38d");
    ("lazy-leveled", "d264a527f74e8fb70607daafc4df304b");
    ("partial", "7464738f31dcddc261631f6a8159b858");
    ("leveldb-seed", "fb763535b0fbd82e0d1df56a56ed5f09");
  ]

let test_pinned_selection () =
  List.iter
    (fun (name, p) ->
      Alcotest.(check string) name (List.assoc name pinned_selection)
        (selection_digest p))
    (P.named @ [ ("leveldb-seed", P.leveldb_seed) ])

let () =
  Alcotest.run "policy"
    [
      ( "structural",
        List.map (fun p -> QCheck_alcotest.to_alcotest (prop_structural p))
          policies );
      ( "differential",
        [
          Alcotest.test_case "seed 11" `Quick (test_diff_seed 11);
          Alcotest.test_case "seed 23" `Quick (test_diff_seed 23);
          Alcotest.test_case "seed 47" `Quick (test_diff_seed 47);
        ] );
      ( "crash",
        List.map
          (fun p ->
            Alcotest.test_case (p ^ " recovery") `Quick (test_crash_recovery p))
          (policies @ [ "leveldb" ]) );
      ( "selection",
        [
          Alcotest.test_case "pinned digests, five named points" `Quick
            test_pinned_selection;
        ] );
    ]
