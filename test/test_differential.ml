(* Differential testing: the same operation sequence driven through every
   engine (bLSM spring/gear/naive, partitioned bLSM, B-Tree, LevelDB) must
   produce identical results. The reference implementation is the DST
   harness's in-memory oracle ({!Dst.Oracle}) — the same model the
   simulation interpreter checks against — so a disagreement pinpoints
   the lying engine directly instead of only flagging a pair mismatch.

   Engines are driven through {!Dst.Driver}, which exposes the full
   surface uniformly: point ops, deltas, RMW, range scans, and
   write_batch (atomic where the engine supports it, emulated per-item
   where it does not — the result must agree either way). *)

let driver_names = [ "blsm"; "blsm-gear"; "partitioned"; "btree"; "leveldb" ]

type op =
  | Put of string * string
  | Delete of string
  | Delta of string * string
  | Rmw of string
  | Ifabsent of string * string
  | Get of string
  | Scan of string * int
  | Batch of Dst.Plan.batch_item list

(* Boundary-adjacent keys get extra traffic so partitioned routing and
   cross-partition scans/batches are exercised on every seed. *)
let gen_key prng =
  if Repro_util.Prng.int prng 8 = 0 then
    [| "key099"; "key100"; "key101"; "key199"; "key200"; "key201" |].(Repro_util.Prng.int prng 6)
  else Printf.sprintf "key%03d" (Repro_util.Prng.int prng 300)

let gen_ops seed n =
  let prng = Repro_util.Prng.of_int seed in
  List.init n (fun i ->
      let key = gen_key prng in
      match Repro_util.Prng.int prng 13 with
      | 0 | 1 | 2 | 3 -> Put (key, Printf.sprintf "v%d-%s" i (String.make 40 'd'))
      | 4 -> Delete key
      | 5 -> Delta (key, Printf.sprintf "+%d" i)
      | 6 -> Rmw key
      | 7 -> Ifabsent (key, Printf.sprintf "ia%d" i)
      | 8 | 9 -> Get key
      | 10 | 11 -> Scan (key, 1 + Repro_util.Prng.int prng 8)
      | _ ->
          Batch
            (List.init
               (1 + Repro_util.Prng.int prng 5)
               (fun j ->
                 let k = gen_key prng in
                 if Repro_util.Prng.int prng 5 = 0 then Dst.Plan.B_del k
                 else Dst.Plan.B_put (k, Printf.sprintf "b%d.%d" i j))))

let entry_of_item = function
  | Dst.Plan.B_put (k, v) -> (k, Kv.Entry.Base v)
  | Dst.Plan.B_del k -> (k, Kv.Entry.Tombstone)

(* Apply one op to a driver; return an observation string for diffing. *)
let apply (d : Dst.Driver.t) op =
  match op with
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
      d.Dst.Driver.rmw k "!";
      ""
  | Ifabsent (k, v) -> string_of_bool (d.Dst.Driver.insert_if_absent k v)
  | Get k -> Option.value (d.Dst.Driver.get k) ~default:"<none>"
  | Scan (k, n) ->
      d.Dst.Driver.scan k n
      |> List.map (fun (k, v) -> k ^ "=" ^ v)
      |> String.concat ";"
  | Batch items ->
      let entries = List.map entry_of_item items in
      if d.Dst.Driver.caps.Dst.Plan.c_lsm then
        d.Dst.Driver.write_batch entries
      else
        List.iter
          (fun (k, e) ->
            match e with
            | Kv.Entry.Base v -> d.Dst.Driver.put k v
            | Kv.Entry.Tombstone -> d.Dst.Driver.delete k
            | Kv.Entry.Delta ds -> List.iter (d.Dst.Driver.apply_delta k) ds)
        entries;
      ""

(* Apply the same op to the oracle; return the matching observation. *)
let apply_oracle o op =
  match op with
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
      Dst.Oracle.read_modify_write o k (fun v ->
          Option.value v ~default:"" ^ "!");
      ""
  | Ifabsent (k, v) -> string_of_bool (Dst.Oracle.insert_if_absent o k v)
  | Get k -> Option.value (Dst.Oracle.get o k) ~default:"<none>"
  | Scan (k, n) ->
      Dst.Oracle.scan o k n
      |> List.map (fun (k, v) -> k ^ "=" ^ v)
      |> String.concat ";"
  | Batch items ->
      List.iter
        (fun it ->
          let k, e = entry_of_item it in
          Dst.Oracle.apply_entry o k e)
        items;
      ""

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
        Alcotest.failf "final scan disagrees with oracle on %s (%d vs %d rows)"
          name (List.length final)
          (Dst.Oracle.cardinal oracle))
    driver_names

let test_seed s () = run_differential s 1500

let prop_differential =
  QCheck.Test.make ~name:"engines agree with the DST oracle" ~count:8
    QCheck.small_int (fun seed ->
      run_differential (seed + 1000) 600;
      true)

(* Focused property: batches (atomic or emulated) land identically, with
   a range scan after every batch so partial application would show. *)
let prop_write_batch =
  QCheck.Test.make ~name:"write_batch agrees across engines and oracle"
    ~count:8 QCheck.small_int (fun seed ->
      let prng = Repro_util.Prng.of_int (seed lxor 0xBA7C4) in
      let ops =
        List.concat
          (List.init 60 (fun i ->
               [
                 Batch
                   (List.init
                      (1 + Repro_util.Prng.int prng 6)
                      (fun j ->
                        let k = gen_key prng in
                        if Repro_util.Prng.int prng 4 = 0 then Dst.Plan.B_del k
                        else Dst.Plan.B_put (k, Printf.sprintf "b%d.%d" i j)));
                 Scan (gen_key prng, 1 + Repro_util.Prng.int prng 10);
               ]))
      in
      let oracle = Dst.Oracle.create () in
      let expected = List.map (apply_oracle oracle) ops in
      List.iter
        (fun name ->
          let d = Dst.Driver.make_exn name ~seed () in
          List.iteri
            (fun i (op, want) ->
              let got = apply d op in
              if got <> want then
                Alcotest.failf "batch op %d on %s: engine=%S oracle=%S" i name
                  got want)
            (List.combine ops expected))
        driver_names;
      true)

(* Focused property: scans from random (often mid-range, often boundary)
   starting points agree with the oracle at every prefix length. *)
let prop_range_scans =
  QCheck.Test.make ~name:"range scans agree with the DST oracle" ~count:8
    QCheck.small_int (fun seed ->
      let prng = Repro_util.Prng.of_int (seed lxor 0x5CA9) in
      let oracle = Dst.Oracle.create () in
      let keys = List.init 120 (fun _ -> gen_key prng) in
      let drivers =
        List.map (fun n -> (n, Dst.Driver.make_exn n ~seed ())) driver_names
      in
      List.iteri
        (fun i k ->
          let v = Printf.sprintf "s%d" i in
          Dst.Oracle.put oracle k v;
          List.iter (fun (_, d) -> d.Dst.Driver.put k v) drivers)
        keys;
      for _ = 1 to 40 do
        let start = gen_key prng in
        let n = 1 + Repro_util.Prng.int prng 15 in
        let want = Dst.Oracle.scan oracle start n in
        List.iter
          (fun (name, d) ->
            let got = d.Dst.Driver.scan start n in
            if got <> want then
              Alcotest.failf "scan %S %d on %s: %d rows vs oracle %d" start n
                name (List.length got) (List.length want))
          drivers
      done;
      true)

let () =
  Alcotest.run "differential"
    [
      ( "engines",
        [
          Alcotest.test_case "seed 1" `Quick (test_seed 1);
          Alcotest.test_case "seed 2" `Quick (test_seed 2);
          Alcotest.test_case "seed 3" `Quick (test_seed 3);
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_write_batch;
          QCheck_alcotest.to_alcotest prop_range_scans;
        ] );
    ]
