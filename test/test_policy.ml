(* Compaction-policy suite (ISSUE 9):
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
     the LevelDB configuration. *)

let policies = [ "tiered"; "leveled"; "lazy-leveled"; "partial" ]

let driver_names =
  "blsm" :: List.map (fun p -> "policy-" ^ p) policies

let gen_key prng = Printf.sprintf "key%03d" (Repro_util.Prng.int prng 200)

(* --- satellite 1: structural invariant + oracle agreement ---------- *)

(* Drive a Policy_tree directly (the driver surface hides
   [check_invariant]) against the DST oracle, with flushes and
   maintenance interleaved so runs actually pile up and merge. *)
let run_structural ~policy_name ~seed ~n =
  let store, _ = Dst.Driver.mk_store ~fault_seed:seed () in
  let policy = Option.get (Blsm.Compaction_policy.of_name policy_name) in
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
      ~policy:(Blsm.Compaction_policy.leveldb_seed ())
      store
  else
    Blsm.Policy_tree.create
      ~config:(Dst.Driver.small_config seed)
      ~pconfig:Dst.Driver.small_pconfig
      ~policy:(Option.get (Blsm.Compaction_policy.of_name name))
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
    ]
