(* Bloom filter tests: the no-false-negative guarantee (property), the <1%
   false-positive target at 10 bits/item (§3.1), sizing, serialization. *)

let check = Alcotest.check

let decode s =
  match Bloom.of_string s with Ok b -> b | Error why -> Alcotest.fail why

let test_empty_contains_nothing () =
  let b = Bloom.create ~expected_items:100 () in
  for i = 0 to 99 do
    if Bloom.mem b (string_of_int i) then Alcotest.fail "empty filter claims membership"
  done

let test_added_keys_found () =
  let b = Bloom.create ~expected_items:1000 () in
  for i = 0 to 999 do
    Bloom.add b (Printf.sprintf "key%06d" i)
  done;
  for i = 0 to 999 do
    if not (Bloom.mem b (Printf.sprintf "key%06d" i)) then
      Alcotest.failf "false negative for key%06d" i
  done

let test_fp_rate_below_target () =
  let n = 20_000 in
  let b = Bloom.create ~expected_items:n () in
  for i = 0 to n - 1 do
    Bloom.add b (Printf.sprintf "present%08d" i)
  done;
  let fps = ref 0 in
  let probes = 50_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem b (Printf.sprintf "absent%08d" i) then incr fps
  done;
  let rate = float_of_int !fps /. float_of_int probes in
  (* paper target: 1% at 10 bits/item; allow 1.5% slack for hash variance *)
  if rate > 0.015 then Alcotest.failf "false positive rate %.4f > 0.015" rate;
  if Bloom.expected_fp_rate b > 0.012 then
    Alcotest.failf "model fp rate %.4f > 0.012" (Bloom.expected_fp_rate b)

let test_sizing () =
  let b = Bloom.create ~expected_items:1000 ~bits_per_item:10 () in
  (* 10 bits/item = 1.25 bytes/item, the paper's memory overhead figure *)
  check Alcotest.int "bytes" 1250 (Bloom.size_bytes b)

let test_serialization_roundtrip () =
  let b = Bloom.create ~expected_items:500 () in
  for i = 0 to 499 do
    Bloom.add b (string_of_int i)
  done;
  let b' = decode (Bloom.to_string b) in
  check Alcotest.int "inserted preserved" 500 (Bloom.inserted b');
  for i = 0 to 499 do
    if not (Bloom.mem b' (string_of_int i)) then Alcotest.fail "lost key"
  done

(* ------------------------------------------------------------------ *)
(* Blocked (cache-line) layout *)

let test_blocked_membership () =
  let b = Bloom.create ~kind:Bloom.Blocked ~expected_items:1000 () in
  check Alcotest.bool "kind" true (Bloom.kind b = Bloom.Blocked);
  for i = 0 to 999 do
    Bloom.add b (Printf.sprintf "key%06d" i)
  done;
  for i = 0 to 999 do
    if not (Bloom.mem b (Printf.sprintf "key%06d" i)) then
      Alcotest.failf "blocked false negative for key%06d" i
  done

let test_blocked_sizing_block_multiple () =
  let b = Bloom.create ~kind:Bloom.Blocked ~expected_items:1000 ~bits_per_item:10 () in
  let bits = Bloom.size_bytes b * 8 in
  check Alcotest.int "whole blocks" 0 (bits mod Bloom.block_bits);
  if bits < 10 * 1000 then Alcotest.fail "blocked filter under-sized"

let test_blocked_fp_within_2x_standard () =
  (* Same keys, same bits-per-key budget: the blocked layout pays only a
     block-load-variance penalty, bounded well under 2x the standard
     filter's measured false-positive count. Hashing is deterministic, so
     these counts are exact, not statistical. *)
  let n = 20_000 and probes = 50_000 in
  let std = Bloom.create ~expected_items:n () in
  let blk = Bloom.create ~kind:Bloom.Blocked ~expected_items:n () in
  for i = 0 to n - 1 do
    let k = Printf.sprintf "present%08d" i in
    Bloom.add std k;
    Bloom.add blk k
  done;
  let count b =
    let fps = ref 0 in
    for i = 0 to probes - 1 do
      if Bloom.mem b (Printf.sprintf "absent%08d" i) then incr fps
    done;
    !fps
  in
  let std_fps = count std and blk_fps = count blk in
  if blk_fps > 2 * std_fps then
    Alcotest.failf "blocked fp count %d > 2x standard %d" blk_fps std_fps;
  (* and it is still a working filter: below the paper's 1.5%% slack *)
  let rate = float_of_int blk_fps /. float_of_int probes in
  if rate > 0.015 then Alcotest.failf "blocked fp rate %.4f > 0.015" rate

let test_blocked_serialization_roundtrip () =
  let b = Bloom.create ~kind:Bloom.Blocked ~expected_items:500 () in
  for i = 0 to 499 do
    Bloom.add b (string_of_int i)
  done;
  let s = Bloom.to_string b in
  check Alcotest.char "blocked marker" '\000' s.[0];
  let b' = decode s in
  check Alcotest.bool "kind preserved" true (Bloom.kind b' = Bloom.Blocked);
  check Alcotest.int "inserted preserved" 500 (Bloom.inserted b');
  for i = 0 to 499 do
    if not (Bloom.mem b' (string_of_int i)) then Alcotest.fail "lost key"
  done;
  (* standard serialization stays marker-free (seed byte-compat) *)
  let std = Bloom.create ~expected_items:500 () in
  Bloom.add std "k";
  if (Bloom.to_string std).[0] = '\000' then
    Alcotest.fail "standard encoding gained a marker byte"

let prop_blocked_no_false_negatives =
  QCheck.Test.make ~name:"blocked: no false negatives" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) string_small)
    (fun keys ->
      let b =
        Bloom.create ~kind:Bloom.Blocked ~expected_items:(List.length keys) ()
      in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

let prop_blocked_fp_bounded =
  (* At equal bits/key over varying key populations, the blocked filter's
     measured false-positive count stays within 2x of the standard one
     (small additive slack absorbs tiny-count quantization). *)
  QCheck.Test.make ~name:"blocked: fp within 2x of standard" ~count:10
    QCheck.(int_range 0 1000)
    (fun salt ->
      let n = 5000 and probes = 10_000 in
      let std = Bloom.create ~expected_items:n () in
      let blk = Bloom.create ~kind:Bloom.Blocked ~expected_items:n () in
      for i = 0 to n - 1 do
        let k = Printf.sprintf "s%d-%06d" salt i in
        Bloom.add std k;
        Bloom.add blk k
      done;
      let count b =
        let fps = ref 0 in
        for i = 0 to probes - 1 do
          if Bloom.mem b (Printf.sprintf "a%d-%06d" salt i) then incr fps
        done;
        !fps
      in
      count blk <= (2 * count std) + 20)

(* ------------------------------------------------------------------ *)
(* Bit identity with the seed's probe arithmetic, and zero allocation *)

let pinned_keys = Array.init 10_000 (Printf.sprintf "key%06d")
let pinned_probes = Array.init 10_000 (Printf.sprintf "probe%06d")

let pinned_filter kind =
  let b = Bloom.create ~kind ~expected_items:(Array.length pinned_keys) () in
  Array.iter (Bloom.add b) pinned_keys;
  b

let test_pinned_filter_bytes () =
  (* The CRC32C of each layout's serialized filter over a fixed key set,
     as the seed's hashing and probe arithmetic produced it. A change to
     the hash, the probe walk or the encoding moves it. *)
  List.iter
    (fun (name, kind, crc) ->
      check Alcotest.int name crc
        (Repro_util.Crc32c.string (Bloom.to_string (pinned_filter kind))))
    [ ("standard", Bloom.Standard, 0xAFC16723); ("blocked", Bloom.Blocked, 0x812FBFE0) ]

(* The seed's probes, written as it wrote them: an FNV-1a fold through
   [String.iter], a modulo per Standard probe, and the Blocked walk. *)
module Seed = struct
  let fnv1a s =
    let h = ref 0xCBF29CE484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h 0x100000001B3L)
      s;
    !h

  let mix h =
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xFF51AFD7ED558CCDL in
    Int64.logxor h (Int64.shift_right_logical h 29)

  let hash_pair key =
    let h = fnv1a key in
    let h1 = Int64.to_int (Int64.logand h 0x3FFFFFFFFFFFFFFFL) in
    let h2 = Int64.to_int (Int64.logand (mix h) 0x3FFFFFFFFFFFFFFFL) in
    (h1, h2 lor 1)

  let standard_positions ~nbits ~hashes key =
    let h1, h2 = hash_pair key in
    let h1 = h1 mod nbits in
    let h2 = match h2 mod nbits with 0 -> 1 | h -> h in
    List.init hashes (fun i -> (h1 + (i * h2)) mod nbits)

  let blocked_positions ~nbits ~hashes key =
    let h1, h2 = hash_pair key in
    let base = h1 mod (nbits / 512) * 512 in
    let g = ref h2 in
    List.concat
      (List.init ((hashes + 1) / 2) (fun i ->
           g := !g * 0x2545F4914F6CDD1D land max_int;
           let v = !g lsr 38 in
           base + (v land 511)
           :: (if (2 * i) + 1 < hashes then [ base + (v lsr 9 land 511) ] else [])))
end

(* Membership read straight off the serialized bits. *)
let seed_mem blob key =
  let kind, start = if blob.[0] = '\000' then (Bloom.Blocked, 1) else (Bloom.Standard, 0) in
  let nbits, pos = Repro_util.Varint.read blob start in
  let hashes, pos = Repro_util.Varint.read blob pos in
  let _inserted, pos = Repro_util.Varint.read blob pos in
  let positions =
    match kind with
    | Bloom.Standard -> Seed.standard_positions ~nbits ~hashes key
    | Bloom.Blocked -> Seed.blocked_positions ~nbits ~hashes key
  in
  List.for_all
    (fun b -> Char.code blob.[pos + (b lsr 3)] land (1 lsl (b land 7)) <> 0)
    positions

let test_mem_matches_seed_formula () =
  List.iter
    (fun kind ->
      let b = pinned_filter kind in
      let blob = Bloom.to_string b in
      let positives = ref 0 in
      Array.iter
        (fun key ->
          let expect = seed_mem blob key in
          if expect then incr positives;
          if Bloom.mem b key <> expect then Alcotest.failf "mem %S" key)
        (Array.append pinned_probes (Array.sub pinned_keys 0 100));
      (* absent probes do hit set bits sometimes: the comparison covers
         both answers *)
      if !positives <= 100 then Alcotest.fail "no false positive to compare")
    [ Bloom.Standard; Bloom.Blocked ]

(* Loops, not [Array.iter] closures: the count must be the probes' own. *)
let test_probes_allocate_nothing () =
  let minor_words () = int_of_float (Gc.minor_words ()) in
  let extra = Array.init 1000 (Printf.sprintf "extra%06d") in
  List.iter
    (fun (name, kind) ->
      let b = pinned_filter kind in
      let w0 = minor_words () in
      for i = 0 to Array.length pinned_probes - 1 do
        ignore (Sys.opaque_identity (Bloom.mem b pinned_probes.(i)))
      done;
      let mem_words = minor_words () - w0 in
      let w0 = minor_words () in
      for i = 0 to Array.length extra - 1 do
        Bloom.add b extra.(i)
      done;
      let add_words = minor_words () - w0 in
      check Alcotest.int (name ^ " mem words") 0 mem_words;
      check Alcotest.int (name ^ " add words") 0 add_words)
    [ ("standard", Bloom.Standard); ("blocked", Bloom.Blocked) ]

(* ------------------------------------------------------------------ *)
(* Malformed persisted blobs *)

let blob ?(blocked = false) ~nbits ~hashes ~bytes () =
  let buf = Buffer.create 16 in
  if blocked then Buffer.add_char buf '\000';
  Repro_util.Varint.write buf nbits;
  Repro_util.Varint.write buf hashes;
  Repro_util.Varint.write buf 0;
  Buffer.add_string buf (String.make bytes '\255');
  Buffer.contents buf

let test_malformed_blobs_rejected () =
  let good = Bloom.to_string (pinned_filter Bloom.Blocked) in
  let bad =
    [
      ("blocked 64 bits", blob ~blocked:true ~nbits:64 ~hashes:7 ~bytes:8 ());
      ("blocked 700 bits", blob ~blocked:true ~nbits:700 ~hashes:7 ~bytes:88 ());
      ("under 64 bits", blob ~nbits:32 ~hashes:7 ~bytes:4 ());
      ("no hashes", blob ~nbits:64 ~hashes:0 ~bytes:8 ());
      ("short bit array", blob ~nbits:640 ~hashes:7 ~bytes:79 ());
      ("trailing bytes", good ^ "x");
      ("truncated bits", String.sub good 0 (String.length good - 1));
      ("truncated header", String.sub good 0 2);
      ("empty", "");
    ]
  in
  List.iter
    (fun (name, s) ->
      match Bloom.of_string s with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error _ -> ())
    bad;
  (* the smallest well-formed blobs of each layout still decode *)
  ignore (decode (blob ~nbits:64 ~hashes:1 ~bytes:8 ()));
  ignore (decode (blob ~blocked:true ~nbits:512 ~hashes:7 ~bytes:64 ()))

let prop_no_false_negatives =
  QCheck.Test.make ~name:"no false negatives" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) string_small)
    (fun keys ->
      let b = Bloom.create ~expected_items:(List.length keys) () in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

let prop_monotone_under_more_adds =
  (* adding more keys never removes membership: bits only go 0 -> 1 *)
  QCheck.Test.make ~name:"monotone membership" ~count:100
    QCheck.(pair (list_of_size Gen.(1 -- 50) string_small) (list_of_size Gen.(1 -- 50) string_small))
    (fun (first, second) ->
      let b = Bloom.create ~expected_items:100 () in
      List.iter (Bloom.add b) first;
      let ok_before = List.for_all (Bloom.mem b) first in
      List.iter (Bloom.add b) second;
      ok_before && List.for_all (Bloom.mem b) first)

let () =
  Alcotest.run "bloom"
    [
      ( "bloom",
        [
          Alcotest.test_case "empty" `Quick test_empty_contains_nothing;
          Alcotest.test_case "membership" `Quick test_added_keys_found;
          Alcotest.test_case "fp rate" `Quick test_fp_rate_below_target;
          Alcotest.test_case "sizing" `Quick test_sizing;
          Alcotest.test_case "serialization" `Quick test_serialization_roundtrip;
          QCheck_alcotest.to_alcotest prop_no_false_negatives;
          QCheck_alcotest.to_alcotest prop_monotone_under_more_adds;
        ] );
      ( "blocked",
        [
          Alcotest.test_case "membership" `Quick test_blocked_membership;
          Alcotest.test_case "sizing" `Quick test_blocked_sizing_block_multiple;
          Alcotest.test_case "fp within 2x" `Quick test_blocked_fp_within_2x_standard;
          Alcotest.test_case "serialization" `Quick test_blocked_serialization_roundtrip;
          QCheck_alcotest.to_alcotest prop_blocked_no_false_negatives;
          QCheck_alcotest.to_alcotest prop_blocked_fp_bounded;
        ] );
      ( "identity",
        [
          Alcotest.test_case "pinned filter bytes" `Quick test_pinned_filter_bytes;
          Alcotest.test_case "mem matches seed formula" `Quick
            test_mem_matches_seed_formula;
          Alcotest.test_case "probes allocate nothing" `Quick
            test_probes_allocate_nothing;
        ] );
      ( "of_string",
        [ Alcotest.test_case "malformed blobs rejected" `Quick test_malformed_blobs_rejected ] );
    ]
