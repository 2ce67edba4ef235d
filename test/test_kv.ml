(* Tests for the shared entry type: wire format, merge/shadowing semantics,
   delta resolution. *)

open Kv

let check = Alcotest.check

let entry_testable = Alcotest.testable Entry.pp Entry.equal

let encode e =
  let b = Bytes.create (Entry.encoded_size e) in
  let stop = Entry.write b 0 e in
  assert (stop = Bytes.length b);
  Bytes.to_string b

let roundtrip e =
  let s = encode e in
  let decoded, pos = Entry.decode s 0 in
  Entry.equal e decoded && pos = String.length s && Entry.encoded_size e = pos

let test_encode_cases () =
  List.iter
    (fun e -> if not (roundtrip e) then Alcotest.fail "roundtrip failed")
    [
      Entry.Base "";
      Entry.Base "hello";
      Entry.Base (String.make 10_000 'x');
      Entry.Tombstone;
      Entry.Delta [ "a" ];
      Entry.Delta [ "a"; "bb"; "ccc" ];
      Entry.Delta [ "" ];
    ]

let gen_entry =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun s -> Entry.Base s) string_small);
        (1, return Entry.Tombstone);
        (2, map (fun ds -> Entry.Delta ds) (list_size (1 -- 4) string_small));
      ])

let arb_entry = QCheck.make ~print:(Fmt.to_to_string Entry.pp) gen_entry

let prop_roundtrip =
  QCheck.Test.make ~name:"entry wire roundtrip" ~count:500 arb_entry roundtrip

(* [check_exact] is [decode_exact] without the strings: over an entry's
   encoding with one byte appended, and every frame end a cut or an
   overrun puts in reach, both accept or both reject. *)
let prop_check_exact_agrees =
  QCheck.Test.make ~name:"check_exact agrees with decode_exact" ~count:300
    QCheck.(pair arb_entry (int_bound 255))
    (fun (e, extra) ->
      let s = encode e ^ String.make 1 (Char.chr extra) in
      let ok f = match f () with _ -> true | exception Invalid_argument _ -> false in
      List.for_all
        (fun stop ->
          ok (fun () -> ignore (Entry.decode_exact s 0 ~stop))
          = ok (fun () -> Entry.check_exact s 0 ~stop))
        (List.init (String.length s + 1) Fun.id))

let r = Entry.append_resolver

let test_merge_base_shadows () =
  check entry_testable "newer base wins" (Entry.Base "new")
    (Entry.merge r ~newer:(Entry.Base "new") ~older:(Entry.Base "old"));
  check entry_testable "tombstone shadows" Entry.Tombstone
    (Entry.merge r ~newer:Entry.Tombstone ~older:(Entry.Base "old"))

let test_merge_delta_applies_to_base () =
  check entry_testable "delta applied" (Entry.Base "old+d1+d2")
    (Entry.merge r ~newer:(Entry.Delta [ "+d1"; "+d2" ]) ~older:(Entry.Base "old"))

let test_merge_delta_composes () =
  check entry_testable "delta chain oldest-first"
    (Entry.Delta [ "a"; "b"; "c" ])
    (Entry.merge r ~newer:(Entry.Delta [ "c" ]) ~older:(Entry.Delta [ "a"; "b" ]))

let test_merge_delta_over_tombstone () =
  (* delta against a deleted record recreates it from nothing *)
  check entry_testable "delta resurrects" (Entry.Base "d")
    (Entry.merge r ~newer:(Entry.Delta [ "d" ]) ~older:Entry.Tombstone)

let test_resolve_chain () =
  check
    (Alcotest.option Alcotest.string)
    "chain" (Some "base.x.y")
    (Entry.resolve r ~base:(Some "base") [ ".x"; ".y" ]);
  check
    (Alcotest.option Alcotest.string)
    "no deltas" (Some "base")
    (Entry.resolve r ~base:(Some "base") []);
  check (Alcotest.option Alcotest.string) "empty" None (Entry.resolve r ~base:None [])

let prop_merge_associative =
  (* merging (c over b) over a == c over (b over a): required for multi-level
     trees, where composition order depends on merge timing *)
  QCheck.Test.make ~name:"merge associativity" ~count:500
    QCheck.(triple arb_entry arb_entry arb_entry)
    (fun (oldest, mid, newest) ->
      let left =
        Entry.merge r ~newer:(Entry.merge r ~newer:newest ~older:mid) ~older:oldest
      in
      let right =
        Entry.merge r ~newer:newest ~older:(Entry.merge r ~newer:mid ~older:oldest)
      in
      Entry.equal left right)

let prop_base_absorbs =
  QCheck.Test.make ~name:"base/tombstone absorb older state" ~count:300
    QCheck.(pair arb_entry arb_entry)
    (fun (newer, older) ->
      match newer with
      | Entry.Base _ | Entry.Tombstone ->
          Entry.equal (Entry.merge r ~newer ~older) newer
      | Entry.Delta _ -> true)

let test_payload_bytes () =
  check Alcotest.int "base" 5 (Entry.payload_bytes (Entry.Base "hello"));
  check Alcotest.int "tombstone" 0 (Entry.payload_bytes Entry.Tombstone);
  check Alcotest.int "delta" 3 (Entry.payload_bytes (Entry.Delta [ "a"; "bb" ]))

let () =
  Alcotest.run "kv"
    [
      ( "wire",
        [
          Alcotest.test_case "cases" `Quick test_encode_cases;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_check_exact_agrees;
        ] );
      ( "merge",
        [
          Alcotest.test_case "base shadows" `Quick test_merge_base_shadows;
          Alcotest.test_case "delta->base" `Quick test_merge_delta_applies_to_base;
          Alcotest.test_case "delta compose" `Quick test_merge_delta_composes;
          Alcotest.test_case "delta over tombstone" `Quick test_merge_delta_over_tombstone;
          Alcotest.test_case "resolve chain" `Quick test_resolve_chain;
          Alcotest.test_case "payload bytes" `Quick test_payload_bytes;
          QCheck_alcotest.to_alcotest prop_merge_associative;
          QCheck_alcotest.to_alcotest prop_base_absorbs;
        ] );
    ]
