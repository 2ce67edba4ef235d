(* Unit and property tests for lib/util: PRNG, varint, CRC32C, histogram,
   timeseries, keygen. *)

open Repro_util

let check = Alcotest.check

(* -------------------------------------------------------------------- *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.of_int 7 and b = Prng.of_int 7 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.bits a) (Prng.bits b)
  done

let test_prng_bounds () =
  let p = Prng.of_int 1 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_prng_float_range () =
  let p = Prng.of_int 2 in
  for _ = 1 to 10_000 do
    let f = Prng.float p in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_prng_split_independent () =
  let p = Prng.of_int 3 in
  let q = Prng.split p in
  let a = Prng.bits p and b = Prng.bits q in
  if a = b then Alcotest.fail "split streams identical"

let test_prng_int_rough_uniformity () =
  let p = Prng.of_int 4 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int p 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      if frac < 0.08 || frac > 0.12 then
        Alcotest.failf "bucket fraction %f far from 0.1" frac)
    counts

let test_shuffle_permutation () =
  let p = Prng.of_int 5 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "permutation" (Array.init 100 Fun.id) sorted

(* -------------------------------------------------------------------- *)
(* Varint *)

let varint_roundtrip n =
  let buf = Buffer.create 10 in
  Varint.write buf n;
  let s = Buffer.contents buf in
  let v, pos = Varint.read s 0 in
  v = n && pos = String.length s && Varint.size n = String.length s

let test_varint_cases () =
  List.iter
    (fun n ->
      if not (varint_roundtrip n) then Alcotest.failf "roundtrip failed: %d" n)
    [ 0; 1; 127; 128; 255; 300; 16384; 1 lsl 30; max_int ]

let test_varint_negative_rejected () =
  let buf = Buffer.create 4 in
  Alcotest.check_raises "negative" (Invalid_argument "Varint.write: negative")
    (fun () -> Varint.write buf (-1))

let test_varint_truncated () =
  (match Varint.read "\x80" 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure on truncated varint")

let prop_varint =
  QCheck.Test.make ~name:"varint roundtrip" ~count:1000
    QCheck.(map abs small_int)
    varint_roundtrip

(* -------------------------------------------------------------------- *)
(* Crc32c *)

let test_crc_known_vector () =
  (* CRC32C("123456789") = 0xE3069283 *)
  check Alcotest.int "check vector" 0xE3069283 (Crc32c.string "123456789")

let test_crc_empty () = check Alcotest.int "empty" 0 (Crc32c.string "")

let test_crc_sensitivity () =
  if Crc32c.string "hello world" = Crc32c.string "hello worle" then
    Alcotest.fail "CRC collision on 1-byte change"

let test_crc_bytes_slice () =
  let s = "abcdefgh" in
  check Alcotest.int "slice"
    (Crc32c.string "cdef")
    (Crc32c.bytes (Bytes.of_string s) 2 4)

(* Both C kernels — the dispatching [update] (the SSE4.2 [crc32]
   instruction on hosts that have it) and the portable slice-by-8 table
   loop — are checked against an independent bit-at-a-time CRC32C. Each
   folds 8-byte blocks and then a bytewise tail, so every length from 0
   to a few hundred at every start offset modulo 8 reaches each regime
   at each alignment. *)
let crc_reference s =
  let poly = 0x82F63B78 in
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        if !crc land 1 = 1 then crc := (!crc lsr 1) lxor poly
        else crc := !crc lsr 1
      done)
    s;
  !crc lxor 0xFFFFFFFF

let crc_kernels =
  [ ("dispatch", Crc32c.update); ("slice8", Crc32c.update_slice8) ]

let crc_with update s pos len = update 0xFFFFFFFF s pos len lxor 0xFFFFFFFF

let test_crc_matches_bitwise_reference () =
  let prng = Prng.of_int 99 in
  let buf = String.init 320 (fun _ -> Char.chr (Prng.int prng 256)) in
  List.iter
    (fun (kname, update) ->
      for off = 0 to 7 do
        for len = 0 to 300 do
          if crc_with update buf off len <> crc_reference (String.sub buf off len)
          then Alcotest.failf "%s: off %d len %d" kname off len
        done
      done)
    crc_kernels

let test_crc_incremental_compose () =
  (* update must be splittable at any point, including mid-block, and
     the two kernels must share the running-state convention. *)
  let prng = Prng.of_int 7 in
  let s = String.init 257 (fun _ -> Char.chr (Prng.int prng 256)) in
  let whole = Crc32c.string s in
  let n = String.length s in
  List.iter
    (fun (k1, u1) ->
      List.iter
        (fun (k2, u2) ->
          for cut = 0 to n do
            let c = u1 0xFFFFFFFF s 0 cut in
            let c = u2 c s cut (n - cut) in
            if c lxor 0xFFFFFFFF <> whole then
              Alcotest.failf "%s then %s: cut %d" k1 k2 cut
          done)
        crc_kernels)
    crc_kernels

let test_crc_standard_vectors () =
  (* RFC 3720 §B.4 test patterns, plus the CRC catalogue check value. *)
  let iscsi_read_pdu =
    "\x01\xc0\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\
     \x14\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x14\x00\x00\x00\x18\
     \x28\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00"
  in
  let vectors =
    [
      ("32 zeros", String.make 32 '\x00', 0x8A9136AA);
      ("32 ones", String.make 32 '\xff', 0x62A8AB43);
      ("ascending", String.init 32 Char.chr, 0x46DD794E);
      ("descending", String.init 32 (fun i -> Char.chr (31 - i)), 0x113FDB5C);
      ("iSCSI read PDU", iscsi_read_pdu, 0xD9963A56);
      ("check", "123456789", 0xE3069283);
    ]
  in
  List.iter
    (fun (kname, update) ->
      List.iter
        (fun (vname, s, expect) ->
          check Alcotest.int (kname ^ " " ^ vname) expect
            (crc_with update s 0 (String.length s)))
        vectors)
    crc_kernels

let test_crc_kernel_name () =
  check Alcotest.bool "known kernel" true
    (List.mem (Crc32c.kernel ()) [ "sse4.2"; "slice8" ])

(* With the C kernel, the OCaml bounds check is the only guard before
   raw memory reads: every out-of-range slice must be refused. *)
let test_crc_out_of_range () =
  let s = "0123456789" in
  let b = Bytes.of_string s in
  let bad =
    [ (-1, 1); (0, -1); (0, 11); (5, 6); (11, 0); (1, max_int); (max_int, 1) ]
  in
  List.iter
    (fun (pos, len) ->
      let expect name f =
        match f () with
        | _ -> Alcotest.failf "%s pos %d len %d accepted" name pos len
        | exception Invalid_argument _ -> ()
      in
      expect "update" (fun () -> Crc32c.update 0xFFFFFFFF s pos len);
      expect "update_slice8" (fun () -> Crc32c.update_slice8 0xFFFFFFFF s pos len);
      expect "bytes" (fun () -> Crc32c.bytes b pos len))
    bad;
  (* the edges themselves are legal *)
  check Alcotest.int "empty at end" 0 (Crc32c.bytes b 10 0);
  check Alcotest.int "whole" (Crc32c.string s) (Crc32c.bytes b 0 10)

(* -------------------------------------------------------------------- *)
(* Histogram *)

let test_histogram_empty () =
  let h = Histogram.create () in
  check Alcotest.int "count" 0 (Histogram.count h);
  check Alcotest.int "p99" 0 (Histogram.percentile h 99.0)

let test_histogram_exact_small () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  check Alcotest.int "p50" 5 (Histogram.percentile h 50.0);
  check Alcotest.int "max" 10 (Histogram.max_value h);
  check Alcotest.int "min" 1 (Histogram.min_value h);
  check (Alcotest.float 0.01) "mean" 5.5 (Histogram.mean h)

let test_histogram_percentile_bounds () =
  let h = Histogram.create () in
  for i = 1 to 10_000 do
    Histogram.add h i
  done;
  let p99 = Histogram.percentile h 99.0 in
  (* log-bucketed: within ~3.2% of 9900 *)
  if p99 < 9500 || p99 > 10_000 then Alcotest.failf "p99=%d out of range" p99

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 10;
  Histogram.add b 1000;
  Histogram.merge ~into:a b;
  check Alcotest.int "count" 2 (Histogram.count a);
  check Alcotest.int "max" 1000 (Histogram.max_value a)

let prop_histogram_max =
  QCheck.Test.make ~name:"histogram max/min/count" ~count:300
    QCheck.(list_of_size Gen.(1 -- 50) (map abs small_int))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      Histogram.count h = List.length values
      && Histogram.max_value h = List.fold_left max 0 values
      && Histogram.min_value h = List.fold_left min max_int values)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (map abs small_int))
    (fun values ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      let p25 = Histogram.percentile h 25.0 in
      let p50 = Histogram.percentile h 50.0 in
      let p99 = Histogram.percentile h 99.0 in
      p25 <= p50 && p50 <= p99)

(* Edge cases (ISSUE 3 satellite): empty, p=100 boundary, a single
   sample, and values sitting exactly on bucket edges. *)

let test_histogram_empty_queries () =
  let h = Histogram.create () in
  check Alcotest.int "max of empty" 0 (Histogram.max_value h);
  check Alcotest.int "min of empty" 0 (Histogram.min_value h);
  check (Alcotest.float 0.0) "mean of empty" 0.0 (Histogram.mean h);
  check Alcotest.int "p50 of empty" 0 (Histogram.percentile h 50.0);
  check Alcotest.int "p100 of empty" 0 (Histogram.percentile h 100.0)

let test_histogram_p100_boundary () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 3; 17; 4096; 123_456 ];
  (* p=100 must return exactly the recorded maximum, never a bucket edge
     above it *)
  check Alcotest.int "p100 = max" (Histogram.max_value h)
    (Histogram.percentile h 100.0);
  check Alcotest.int "p100 value" 123_456 (Histogram.percentile h 100.0)

let test_histogram_single_sample () =
  let h = Histogram.create () in
  Histogram.add h 777;
  check Alcotest.int "count" 1 (Histogram.count h);
  check Alcotest.int "max" 777 (Histogram.max_value h);
  check Alcotest.int "min" 777 (Histogram.min_value h);
  check (Alcotest.float 0.0) "mean" 777.0 (Histogram.mean h);
  (* every percentile of a single sample lands in its bucket; the edge
     is clamped to the recorded max *)
  List.iter
    (fun p -> check Alcotest.int "percentile" 777 (Histogram.percentile h p))
    [ 0.001; 1.0; 50.0; 99.9; 100.0 ]

let test_histogram_bucket_edges () =
  (* values on exact power-of-two bucket edges must round-trip through
     index_of/value_of exactly: the percentile of a pile of identical
     edge values is that value *)
  List.iter
    (fun v ->
      let h = Histogram.create () in
      for _ = 1 to 10 do
        Histogram.add h v
      done;
      check Alcotest.int
        (Printf.sprintf "edge %d" v)
        v (Histogram.percentile h 50.0))
    [ 0; 1; 31; 32; 33; 63; 64; 1024; 1 lsl 20 ]

let test_histogram_negative_clamped () =
  let h = Histogram.create () in
  Histogram.add h (-5);
  check Alcotest.int "clamped to 0" 0 (Histogram.max_value h);
  check Alcotest.int "counted" 1 (Histogram.count h)

(* Merge edge cases (PR 8 satellite): windows with no samples flow
   through cross-shard rollup without inventing data. *)

let test_histogram_merge_empty_src () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 42;
  Histogram.merge ~into:a b;
  check Alcotest.int "count unchanged" 1 (Histogram.count a);
  check Alcotest.int "max unchanged" 42 (Histogram.max_value a);
  check (Alcotest.float 0.0) "mean unchanged" 42.0 (Histogram.mean a)

let test_histogram_merge_into_empty () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add b) [ 5; 10; 15 ];
  Histogram.merge ~into:a b;
  check Alcotest.int "count" 3 (Histogram.count a);
  check Alcotest.int "min" 5 (Histogram.min_value a);
  check Alcotest.int "max" 15 (Histogram.max_value a);
  check Alcotest.int "p50" 10 (Histogram.percentile a 50.0);
  (* src must be untouched *)
  check Alcotest.int "src count" 3 (Histogram.count b)

let test_histogram_merge_both_empty () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.merge ~into:a b;
  check Alcotest.int "count" 0 (Histogram.count a);
  check Alcotest.int "p99" 0 (Histogram.percentile a 99.0)

let test_histogram_merge_single_samples () =
  let a = Histogram.create () and b = Histogram.create () in
  Histogram.add a 1;
  Histogram.add b 1_000_000;
  Histogram.merge ~into:a b;
  check Alcotest.int "count" 2 (Histogram.count a);
  check Alcotest.int "min" 1 (Histogram.min_value a);
  check Alcotest.int "max" 1_000_000 (Histogram.max_value a);
  check Alcotest.int "p100 exact" 1_000_000 (Histogram.percentile a 100.0)

(* A merged quantile cannot escape the envelope of its shards' quantiles
   by more than one bucket: for any p,
   min_shard q(p) <= q_merged(p) <= max_shard q(p) up to the histogram's
   1/32 (sub_bucket_bits = 5) bucket resolution. The slack is real, not
   defensive: a 1-sample shard reports its exact value (rank = total
   clamps to max), while the merged histogram may answer with the lower
   edge of that value's bucket — shards [65] and [67] merge to a p50 of
   64. This bound is what makes cross-shard p99 rollups honest. *)
let prop_histogram_merge_brackets =
  QCheck.Test.make ~name:"merged quantiles bracket shard quantiles"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 10)
           (list_of_size Gen.(1 -- 40) (map abs small_int)))
        (float_range 0.1 100.0))
    (fun (shards, p) ->
      QCheck.assume (shards <> []);
      let hs =
        List.map
          (fun values ->
            let h = Histogram.create () in
            List.iter (Histogram.add h) values;
            h)
          shards
      in
      let merged = Histogram.create () in
      List.iter (fun h -> Histogram.merge ~into:merged h) hs;
      let qs = List.map (fun h -> Histogram.percentile h p) hs in
      let q = float_of_int (Histogram.percentile merged p) in
      let lo = float_of_int (List.fold_left min max_int qs) in
      let hi = float_of_int (List.fold_left max 0 qs) in
      let res = 1.0 /. 32.0 in
      q >= (lo *. (1.0 -. res)) -. 1.0 && q <= (hi *. (1.0 +. res)) +. 1.0)

(* percentile is monotone in p itself, over arbitrary (p1, p2) pairs —
   stronger than the fixed 25/50/99 triple above *)
let prop_histogram_monotone_in_p =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(1 -- 60) (map abs small_int))
        (float_bound_exclusive 100.0) (float_bound_exclusive 100.0))
    (fun (values, a, b) ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) values;
      let lo = Float.min a b +. 0.001 and hi = Float.max a b +. 0.001 in
      Histogram.percentile h lo <= Histogram.percentile h hi)

(* -------------------------------------------------------------------- *)
(* Timeseries *)

let test_timeseries_buckets () =
  let ts = Timeseries.create ~width_us:1_000_000 in
  Timeseries.record ts ~time_us:100 ~latency_us:5;
  Timeseries.record ts ~time_us:200 ~latency_us:10;
  Timeseries.record ts ~time_us:2_500_000 ~latency_us:20;
  let rows = Timeseries.rows ts in
  check Alcotest.int "3 buckets incl. empty middle" 3 (List.length rows);
  let first = List.hd rows in
  check (Alcotest.float 0.01) "ops/sec" 2.0 first.Timeseries.ops_per_sec;
  let middle = List.nth rows 1 in
  check (Alcotest.float 0.01) "stalled bucket" 0.0 middle.Timeseries.ops_per_sec

let test_timeseries_empty () =
  let ts = Timeseries.create ~width_us:1000 in
  check Alcotest.int "no rows" 0 (List.length (Timeseries.rows ts))

let test_timeseries_single_record () =
  let ts = Timeseries.create ~width_us:500_000 in
  Timeseries.record ts ~time_us:1_250_000 ~latency_us:4_000;
  match Timeseries.rows ts with
  | [ r ] ->
      check (Alcotest.float 0.001) "bucket start" 1.0 r.Timeseries.t_sec;
      check (Alcotest.float 0.01) "ops/sec" 2.0 r.Timeseries.ops_per_sec;
      check (Alcotest.float 0.01) "mean ms" 4.0 r.Timeseries.mean_latency_ms;
      check (Alcotest.float 0.01) "max ms" 4.0 r.Timeseries.max_latency_ms
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_timeseries_latency_aggregation () =
  let ts = Timeseries.create ~width_us:1_000_000 in
  (* 100 ops in one bucket: latencies 1..100 ms *)
  for i = 1 to 100 do
    Timeseries.record ts ~time_us:(i * 1000) ~latency_us:(i * 1000)
  done;
  match Timeseries.rows ts with
  | [ r ] ->
      check (Alcotest.float 0.01) "ops/sec" 100.0 r.Timeseries.ops_per_sec;
      check (Alcotest.float 0.6) "mean ms" 50.5 r.Timeseries.mean_latency_ms;
      check (Alcotest.float 0.01) "max ms" 100.0 r.Timeseries.max_latency_ms;
      if r.Timeseries.p99_latency_ms < 95.0 || r.Timeseries.p99_latency_ms > 100.0
      then Alcotest.failf "p99 %.1f out of range" r.Timeseries.p99_latency_ms
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows)

let test_timeseries_window_boundary () =
  (* an op stamped exactly on a bucket boundary belongs to the bucket it
     opens, not the one it closes *)
  let ts = Timeseries.create ~width_us:1_000_000 in
  Timeseries.record ts ~time_us:999_999 ~latency_us:1;
  Timeseries.record ts ~time_us:1_000_000 ~latency_us:9;
  match Timeseries.rows ts with
  | [ r0; r1 ] ->
      check (Alcotest.float 0.001) "bucket 0" 0.0 r0.Timeseries.t_sec;
      check (Alcotest.float 0.01) "one op in bucket 0" 1.0
        r0.Timeseries.ops_per_sec;
      check (Alcotest.float 0.001) "bucket 1" 1.0 r1.Timeseries.t_sec;
      check (Alcotest.float 0.01) "boundary op in bucket 1" 1.0
        r1.Timeseries.ops_per_sec;
      check (Alcotest.float 0.001) "boundary op's latency too" 0.009
        r1.Timeseries.max_latency_ms
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

let test_timeseries_leading_stall_not_padded () =
  (* buckets before the first recorded op are not emitted: rows start at
     the first active bucket, empties only appear *between* active ones *)
  let ts = Timeseries.create ~width_us:1_000_000 in
  Timeseries.record ts ~time_us:5_500_000 ~latency_us:10;
  let rows = Timeseries.rows ts in
  check Alcotest.int "one row" 1 (List.length rows);
  check (Alcotest.float 0.001) "starts at 5s" 5.0
    (List.hd rows).Timeseries.t_sec

(* -------------------------------------------------------------------- *)
(* Keygen *)

let test_keygen_deterministic () =
  check Alcotest.string "stable" (Keygen.key_of_id 42) (Keygen.key_of_id 42)

let test_keygen_distinct () =
  let seen = Hashtbl.create 1000 in
  for i = 0 to 9999 do
    let k = Keygen.key_of_id i in
    if Hashtbl.mem seen k then Alcotest.failf "duplicate key for id %d" i;
    Hashtbl.add seen k ()
  done

let test_keygen_unordered () =
  (* hashed keys must not be in id order (that's the point) *)
  let ordered = ref true in
  for i = 0 to 99 do
    if String.compare (Keygen.key_of_id i) (Keygen.key_of_id (i + 1)) > 0 then
      ordered := false
  done;
  if !ordered then Alcotest.fail "hashed keys unexpectedly sorted"

let test_keygen_ordered_variant () =
  for i = 0 to 99 do
    if
      String.compare (Keygen.ordered_key_of_id i) (Keygen.ordered_key_of_id (i + 1))
      >= 0
    then Alcotest.fail "ordered keys must sort by id"
  done

let test_keygen_value_length () =
  let p = Prng.of_int 9 in
  check Alcotest.int "value len" 1000 (String.length (Keygen.value p 1000))

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "uniformity" `Quick test_prng_int_rough_uniformity;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
        ] );
      ( "varint",
        [
          Alcotest.test_case "cases" `Quick test_varint_cases;
          Alcotest.test_case "negative" `Quick test_varint_negative_rejected;
          Alcotest.test_case "truncated" `Quick test_varint_truncated;
          QCheck_alcotest.to_alcotest prop_varint;
        ] );
      ( "crc32c",
        [
          Alcotest.test_case "vector" `Quick test_crc_known_vector;
          Alcotest.test_case "empty" `Quick test_crc_empty;
          Alcotest.test_case "sensitivity" `Quick test_crc_sensitivity;
          Alcotest.test_case "slice" `Quick test_crc_bytes_slice;
          Alcotest.test_case "bitwise reference" `Quick
            test_crc_matches_bitwise_reference;
          Alcotest.test_case "incremental compose" `Quick
            test_crc_incremental_compose;
          Alcotest.test_case "standard vectors" `Quick test_crc_standard_vectors;
          Alcotest.test_case "kernel name" `Quick test_crc_kernel_name;
          Alcotest.test_case "out-of-range slices" `Quick test_crc_out_of_range;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "exact small" `Quick test_histogram_exact_small;
          Alcotest.test_case "p99 bounds" `Quick test_histogram_percentile_bounds;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "empty queries" `Quick
            test_histogram_empty_queries;
          Alcotest.test_case "p100 boundary" `Quick test_histogram_p100_boundary;
          Alcotest.test_case "single sample" `Quick test_histogram_single_sample;
          Alcotest.test_case "bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "negative clamped" `Quick
            test_histogram_negative_clamped;
          Alcotest.test_case "merge empty src" `Quick
            test_histogram_merge_empty_src;
          Alcotest.test_case "merge into empty" `Quick
            test_histogram_merge_into_empty;
          Alcotest.test_case "merge both empty" `Quick
            test_histogram_merge_both_empty;
          Alcotest.test_case "merge single samples" `Quick
            test_histogram_merge_single_samples;
          QCheck_alcotest.to_alcotest prop_histogram_merge_brackets;
          QCheck_alcotest.to_alcotest prop_histogram_max;
          QCheck_alcotest.to_alcotest prop_histogram_percentile_monotone;
          QCheck_alcotest.to_alcotest prop_histogram_monotone_in_p;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "buckets" `Quick test_timeseries_buckets;
          Alcotest.test_case "empty" `Quick test_timeseries_empty;
          Alcotest.test_case "single record" `Quick
            test_timeseries_single_record;
          Alcotest.test_case "latency aggregation" `Quick
            test_timeseries_latency_aggregation;
          Alcotest.test_case "window boundary" `Quick
            test_timeseries_window_boundary;
          Alcotest.test_case "no leading padding" `Quick
            test_timeseries_leading_stall_not_padded;
        ] );
      ( "keygen",
        [
          Alcotest.test_case "deterministic" `Quick test_keygen_deterministic;
          Alcotest.test_case "distinct" `Quick test_keygen_distinct;
          Alcotest.test_case "unordered" `Quick test_keygen_unordered;
          Alcotest.test_case "ordered variant" `Quick test_keygen_ordered_variant;
          Alcotest.test_case "value length" `Quick test_keygen_value_length;
        ] );
    ]
