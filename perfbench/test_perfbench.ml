(* The benchmark's own arithmetic: percentile support, amplification
   ratios, and the answer oracle. *)

let check_opt = Alcotest.(check (option int))

let test_percentile_support () =
  let sorted n = Array.init n (fun i -> i + 1) in
  (* p99.9 needs 10 samples beyond it: 10_000 samples is the minimum *)
  check_opt "p99.9 of 10000" (Some 9990) (Measure.percentile (sorted 10_000) 99.9);
  check_opt "p99.9 of 9999" None (Measure.percentile (sorted 9_999) 99.9);
  check_opt "p99 of 1000" (Some 990) (Measure.percentile (sorted 1_000) 99.0);
  check_opt "p99 of 999" None (Measure.percentile (sorted 999) 99.0);
  check_opt "p50 of 20" (Some 10) (Measure.percentile (sorted 20) 50.0);
  check_opt "p50 of 19" None (Measure.percentile (sorted 19) 50.0);
  check_opt "empty" None (Measure.percentile [||] 50.0)

let test_hist_percentile_support () =
  let h = Repro_util.Histogram.create () in
  for i = 1 to 1_000 do
    Repro_util.Histogram.add h i
  done;
  Alcotest.(check bool) "p99 of 1000 reported" true
    (Option.is_some (Measure.hist_percentile h 99.0));
  check_opt "p99.9 of 1000 refused" None (Measure.hist_percentile h 99.9)

let test_loghist () =
  let h = Measure.Loghist.create () in
  for i = 1 to 999 do
    Measure.Loghist.add h (float_of_int (i * 1000))
  done;
  Alcotest.(check bool) "p99 of 999 refused" true
    (Option.is_none (Measure.Loghist.percentile h 99.0));
  Measure.Loghist.add h 1_000_000.0;
  let near what want =
    match Measure.Loghist.percentile h (if want > 900_000.0 then 99.0 else 50.0) with
    | Some got -> Alcotest.(check bool) what true (Float.abs (got -. want) /. want < 0.001)
    | None -> Alcotest.fail (what ^ ": refused")
  in
  near "p50 within a bucket" 500_000.0;
  near "p99 within a bucket" 990_000.0

let test_speed_probe () =
  (* fails if the timed pass allocates *)
  for _ = 1 to 3 do
    Alcotest.(check bool) "positive" true (Speed.probe () > 0.0)
  done

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Measure.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Measure.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_amplification () =
  let io =
    {
      Simdisk.Disk.at_us = 0.0;
      seeks = 7;
      random_writes = 2;
      seq_read_bytes = 50_000;
      seq_write_bytes = 30_000;
      random_read_bytes = 8_192;
      random_write_bytes = 10_000;
    }
  in
  (* reads never count as written bytes; random write-backs do *)
  Alcotest.(check (float 1e-12)) "write_amp" 2.0 (Measure.write_amp io ~user_bytes:20_000);
  Alcotest.(check (float 1e-12)) "space_amp" 1.5
    (Measure.space_amp ~stored_bytes:30_000 ~live_bytes:20_000)

(* An in-memory engine whose answers can be corrupted on purpose. *)
let fake_engine ?(bad_get = fun _ v -> v) ?(bad_scan = Fun.id) () =
  let tbl = Hashtbl.create 16 in
  let unused _ = invalid_arg "unused" in
  {
    Kv.Kv_intf.name = "fake";
    disk = Simdisk.Disk.create Simdisk.Profile.ssd_raid0;
    get = (fun k -> bad_get k (Hashtbl.find_opt tbl k));
    put = (fun k v -> if String.equal k "boom" then failwith "boom" else Hashtbl.replace tbl k v);
    delete = unused;
    apply_delta = (fun _ -> unused);
    read_modify_write = (fun _ -> unused);
    insert_if_absent = (fun _ -> unused);
    scan =
      (fun start n ->
        Hashtbl.to_seq tbl |> List.of_seq
        |> List.filter (fun (k, _) -> String.compare k start >= 0)
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
        |> List.filteri (fun i _ -> i < n)
        |> bad_scan);
    maintenance = ignore;
  }

let run_against engine =
  let oracle = Oracle.create () in
  let timer = Timed.create oracle engine.Kv.Kv_intf.disk in
  let e = Timed.wrap timer engine in
  List.iter (fun k -> e.put k ("v" ^ k)) [ "a"; "b"; "c"; "d" ];
  ignore (e.get "b");
  ignore (e.get "zz");
  ignore (e.scan "b" 2);
  (oracle, timer)

let test_oracle_clean () =
  let oracle, timer = run_against (fake_engine ()) in
  Alcotest.(check int) "checked" 3 oracle.checked;
  Alcotest.(check int) "wrong" 0 oracle.wrong;
  Alcotest.(check int) "exceptions" 0 timer.exceptions;
  Alcotest.(check int) "live bytes" 12 oracle.live_bytes

let test_oracle_wrong_value () =
  let bad_get k v = if String.equal k "b" then Some "stale" else v in
  let oracle, _ = run_against (fake_engine ~bad_get ()) in
  Alcotest.(check int) "wrong" 1 oracle.wrong;
  Alcotest.(check (option string)) "which" (Some "get \"b\"") oracle.first_wrong

let test_oracle_skipped_key () =
  let bad_scan = List.filter (fun (k, _) -> not (String.equal k "c")) in
  let oracle, _ = run_against (fake_engine ~bad_scan ()) in
  Alcotest.(check int) "wrong" 1 oracle.wrong

let test_exception_counted () =
  let oracle = Oracle.create () in
  let engine = fake_engine () in
  let timer = Timed.create oracle engine.disk in
  let e = Timed.wrap timer engine in
  e.put "boom" "x";
  Alcotest.(check int) "exceptions" 1 timer.exceptions;
  Alcotest.(check int) "not in the model" 0 oracle.live_bytes

let () =
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "percentile support" `Quick test_percentile_support;
          Alcotest.test_case "histogram percentile support" `Quick test_hist_percentile_support;
          Alcotest.test_case "log histogram percentiles" `Quick test_loghist;
          Alcotest.test_case "speed probe allocates nothing" `Quick test_speed_probe;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "write and space amplification" `Quick test_amplification;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean engine" `Quick test_oracle_clean;
          Alcotest.test_case "wrong value caught" `Quick test_oracle_wrong_value;
          Alcotest.test_case "skipped scan key caught" `Quick test_oracle_skipped_key;
          Alcotest.test_case "exception counted" `Quick test_exception_counted;
        ] );
    ]
