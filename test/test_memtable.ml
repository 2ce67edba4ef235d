(* Skip list and memtable (C0) tests: model-based checks against Stdlib.Map,
   ordered iteration, successor queries, snowshovel consumption, byte
   accounting and LSN tracking. *)

let check = Alcotest.check

module SMap = Map.Make (String)
module Skiplist = Memtable.Skiplist

(* -------------------------------------------------------------------- *)
(* Skiplist *)

let test_skiplist_basic () =
  let sl = Skiplist.create () in
  Skiplist.set sl "b" 2;
  Skiplist.set sl "a" 1;
  Skiplist.set sl "c" 3;
  check (Alcotest.option Alcotest.int) "find a" (Some 1) (Skiplist.find sl "a");
  check (Alcotest.option Alcotest.int) "find missing" None (Skiplist.find sl "zz");
  check Alcotest.int "length" 3 (Skiplist.length sl);
  Skiplist.set sl "a" 10;
  check (Alcotest.option Alcotest.int) "overwrite" (Some 10) (Skiplist.find sl "a");
  check Alcotest.int "length unchanged" 3 (Skiplist.length sl)

let skiplist_bindings sl =
  List.rev (Skiplist.fold sl [] (fun acc k v -> (k, v) :: acc))

let test_skiplist_ordered_iteration () =
  let sl = Skiplist.create () in
  List.iter (fun k -> Skiplist.set sl k ()) [ "d"; "a"; "c"; "b"; "e" ];
  let keys = List.map fst (skiplist_bindings sl) in
  check (Alcotest.list Alcotest.string) "sorted" [ "a"; "b"; "c"; "d"; "e" ] keys

let test_skiplist_remove () =
  let sl = Skiplist.create () in
  List.iter (fun k -> Skiplist.set sl k k) [ "a"; "b"; "c" ];
  let succ = Alcotest.(option (pair string string)) in
  check succ "successor of removed" (Some ("c", "c")) (Skiplist.remove_succ sl "b");
  check (Alcotest.option Alcotest.string) "gone" None (Skiplist.find sl "b");
  check succ "remove missing" (Some ("c", "c")) (Skiplist.remove_succ sl "b");
  check Alcotest.int "length" 2 (Skiplist.length sl);
  check succ "remove last" None (Skiplist.remove_succ sl "c");
  check (Alcotest.list Alcotest.string) "left" [ "a" ]
    (List.map fst (skiplist_bindings sl))

let test_skiplist_succ_geq () =
  let sl = Skiplist.create () in
  List.iter (fun k -> Skiplist.set sl k ()) [ "b"; "d"; "f" ];
  let key_of = Option.map fst in
  check (Alcotest.option Alcotest.string) "exact" (Some "b")
    (key_of (Skiplist.succ_geq sl "b"));
  check (Alcotest.option Alcotest.string) "between" (Some "d")
    (key_of (Skiplist.succ_geq sl "c"));
  check (Alcotest.option Alcotest.string) "before all" (Some "b")
    (key_of (Skiplist.succ_geq sl "a"));
  check (Alcotest.option Alcotest.string) "past end" None
    (key_of (Skiplist.succ_geq sl "g"))

let test_skiplist_succ_gt () =
  (* an ordered walk resuming strictly past the last key it returned *)
  let sl = Skiplist.create () in
  List.iter (fun k -> Skiplist.set sl k ()) [ "a"; "b"; "c"; "d" ];
  let rec walk acc k =
    match Skiplist.succ_gt sl k with
    | Some (k', ()) when k' <= "c" -> walk (k' :: acc) k'
    | Some _ | None -> List.rev acc
  in
  check (Alcotest.list Alcotest.string) "range" [ "b"; "c" ] (walk [] "a");
  check (Alcotest.option Alcotest.string) "between" (Some "c")
    (Option.map fst (Skiplist.succ_gt sl "bb"));
  check (Alcotest.option Alcotest.string) "past end" None
    (Option.map fst (Skiplist.succ_gt sl "d"))

(* Model-based property: a random op sequence applied to both the skiplist
   and Map yields identical contents. *)
let prop_skiplist_model =
  let op_gen =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> `Set (string_of_int k)) (0 -- 50);
          map (fun k -> `Remove (string_of_int k)) (0 -- 50);
          map (fun k -> `Find (string_of_int k)) (0 -- 50);
        ])
  in
  QCheck.Test.make ~name:"skiplist vs Map model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (1 -- 200) op_gen))
    (fun ops ->
      let sl = Skiplist.create () in
      let m = ref SMap.empty in
      let ok = ref true in
      List.iter
        (function
          | `Set k ->
              Skiplist.set sl k k;
              m := SMap.add k k !m
          | `Remove k ->
              m := SMap.remove k !m;
              let a = Skiplist.remove_succ sl k in
              let b = SMap.find_first_opt (fun k' -> k' > k) !m in
              if a <> b then ok := false
          | `Find k -> if Skiplist.find sl k <> SMap.find_opt k !m then ok := false)
        ops;
      !ok
      && skiplist_bindings sl = SMap.bindings !m
      && Skiplist.length sl = SMap.cardinal !m)

let prop_skiplist_succ_matches_model =
  QCheck.Test.make ~name:"succ_geq vs Map model" ~count:200
    QCheck.(pair (list_of_size Gen.(0 -- 60) (int_range 0 99)) (int_range 0 99))
    (fun (keys, probe) ->
      let sl = Skiplist.create () in
      let m =
        List.fold_left
          (fun m k ->
            let s = Printf.sprintf "%02d" k in
            Skiplist.set sl s ();
            SMap.add s () m)
          SMap.empty keys
      in
      let probe = Printf.sprintf "%02d" probe in
      let expected = SMap.find_first_opt (fun k -> k >= probe) m in
      let actual = Skiplist.succ_geq sl probe in
      Option.map fst expected = Option.map fst actual)

(* -------------------------------------------------------------------- *)
(* Memtable *)

let resolver = Kv.Entry.append_resolver

let mk () = Memtable.create ~resolver ()

let entry_testable = Alcotest.testable Kv.Entry.pp Kv.Entry.equal

let test_memtable_write_get () =
  let t = mk () in
  Memtable.write t ~lsn:1 "k" (Kv.Entry.Base "v");
  check (Alcotest.option entry_testable) "get" (Some (Kv.Entry.Base "v"))
    (Memtable.get t "k");
  check (Alcotest.option entry_testable) "missing" None (Memtable.get t "nope")

let test_memtable_delta_composes_in_c0 () =
  let t = mk () in
  Memtable.write t ~lsn:1 "k" (Kv.Entry.Base "v");
  Memtable.write t ~lsn:2 "k" (Kv.Entry.Delta [ "+d" ]);
  check (Alcotest.option entry_testable) "composed" (Some (Kv.Entry.Base "v+d"))
    (Memtable.get t "k");
  (* delta with no base stays a delta *)
  Memtable.write t ~lsn:3 "j" (Kv.Entry.Delta [ "x" ]);
  Memtable.write t ~lsn:4 "j" (Kv.Entry.Delta [ "y" ]);
  check (Alcotest.option entry_testable) "delta chain"
    (Some (Kv.Entry.Delta [ "x"; "y" ]))
    (Memtable.get t "j")

let test_memtable_tombstone () =
  let t = mk () in
  Memtable.write t ~lsn:1 "k" (Kv.Entry.Base "v");
  Memtable.write t ~lsn:2 "k" Kv.Entry.Tombstone;
  check (Alcotest.option entry_testable) "tombstone visible"
    (Some Kv.Entry.Tombstone) (Memtable.get t "k")

let test_memtable_bytes_accounting () =
  let t = mk () in
  check Alcotest.int "empty" 0 (Memtable.bytes t);
  Memtable.write t ~lsn:1 "key" (Kv.Entry.Base (String.make 100 'v'));
  let b1 = Memtable.bytes t in
  if b1 < 100 then Alcotest.fail "bytes below payload";
  (* overwriting with a smaller value shrinks usage *)
  Memtable.write t ~lsn:2 "key" (Kv.Entry.Base "v");
  if Memtable.bytes t >= b1 then Alcotest.fail "overwrite did not shrink";
  ignore (Memtable.consume_geq_lsn t "key");
  check Alcotest.int "empty after consume" 0 (Memtable.bytes t)

let key_of = Option.map (fun (k, _, _) -> k)

let test_memtable_consume_geq () =
  let t = mk () in
  List.iter
    (fun k -> Memtable.write t ~lsn:1 k (Kv.Entry.Base k))
    [ "b"; "d"; "f" ];
  check (Alcotest.option Alcotest.string) "consume d" (Some "d")
    (key_of (Memtable.consume_geq_lsn t "c"));
  check (Alcotest.option entry_testable) "d consumed" None (Memtable.get t "d");
  check Alcotest.int "two left" 2 (Memtable.count t);
  (* wrap: nothing >= g *)
  check (Alcotest.option Alcotest.string) "wrap" None
    (key_of (Memtable.consume_geq_lsn t "g"));
  (* pop_next is strictly past its cursor *)
  check (Alcotest.option Alcotest.string) "pop past b" (Some "f")
    (key_of (Memtable.pop_next t "b"));
  check (Alcotest.option Alcotest.string) "pop from start" (Some "b")
    (key_of (Memtable.consume_geq_lsn t ""));
  check Alcotest.bool "drained" true (Memtable.is_empty t)

let test_memtable_oldest_lsn () =
  let t = mk () in
  check (Alcotest.option Alcotest.int) "empty" None (Memtable.oldest_lsn t);
  Memtable.write t ~lsn:5 "a" (Kv.Entry.Base "1");
  Memtable.write t ~lsn:9 "b" (Kv.Entry.Base "2");
  check (Alcotest.option Alcotest.int) "min" (Some 5) (Memtable.oldest_lsn t);
  (* a delta keeps depending on the older lsn *)
  Memtable.write t ~lsn:12 "a" (Kv.Entry.Delta [ "+d" ]);
  check (Alcotest.option Alcotest.int) "delta keeps old lsn" (Some 5)
    (Memtable.oldest_lsn t);
  (* a base write supersedes the dependency *)
  Memtable.write t ~lsn:15 "a" (Kv.Entry.Base "fresh");
  check (Alcotest.option Alcotest.int) "base refreshes" (Some 9)
    (Memtable.oldest_lsn t);
  ignore (Memtable.consume_geq_lsn t "");
  ignore (Memtable.consume_geq_lsn t "");
  check (Alcotest.option Alcotest.int) "empty again" None (Memtable.oldest_lsn t)

let prop_memtable_snowshovel_drains_sorted =
  (* consuming with a moving cursor yields sorted output per run, and the
     union of runs equals the input key set *)
  QCheck.Test.make ~name:"snowshovel drains everything in sorted runs" ~count:100
    QCheck.(list_of_size Gen.(1 -- 80) (int_range 0 999))
    (fun keys ->
      let t = mk () in
      List.iter
        (fun k ->
          Memtable.write t ~lsn:1 (Printf.sprintf "%03d" k) (Kv.Entry.Base "v"))
        keys;
      let expected = Memtable.count t in
      let drained = ref [] in
      let cursor = ref None in
      let runs = ref 1 in
      while not (Memtable.is_empty t) do
        let next =
          match !cursor with
          | None -> Memtable.consume_geq_lsn t ""
          | Some c -> Memtable.pop_next t c
        in
        match next with
        | Some (k, _, _) ->
            (match !cursor with
            | Some c when k <= c -> failwith "run out of order"
            | Some _ | None -> ());
            drained := k :: !drained;
            cursor := Some k
        | None ->
            cursor := None;
            incr runs;
            if !runs > 1000 then failwith "livelock"
      done;
      List.length !drained = expected)

(* C0 record size as the memtable accounts it. [node_overhead] (64) is
   pinned here: C0 fill, pacing, merge timing and every simulated-clock
   number depend on it. *)
let entry_bytes k e = String.length k + Kv.Entry.encoded_size e + 64

(* Model-based property: random writes, peeks and pops applied to a
   memtable and to a Map of (entry, oldest lsn, newest lsn). After every
   op, the index (a [get] of every key) and the skip list (ordered
   contents, each key's newest LSN, [count], [oldest_lsn]) must both
   agree with the model, and so with each other; [bytes] must match the model's
   sum. A pop returns exactly what a peek at the same cursor returned
   before it. *)
let prop_memtable_model =
  let key = QCheck.Gen.(map (Printf.sprintf "k%02d") (0 -- 24)) in
  let entry =
    QCheck.Gen.(
      oneof
        [
          map (fun n -> Kv.Entry.Base (String.make n 'v')) (0 -- 40);
          map (fun n -> Kv.Entry.Delta [ String.make n 'd' ]) (1 -- 5);
          return Kv.Entry.Tombstone;
        ])
  in
  let cursor = QCheck.Gen.(oneof [ return ""; key; map (fun k -> k ^ "5") key ]) in
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun k e -> `Write (k, e)) key entry);
          (2, map2 (fun c peek -> `Pop (c, peek)) cursor bool);
          (1, map (fun c -> `Consume c) cursor);
          (1, map (fun c -> `Peek c) cursor);
          (2, map (fun n -> `Shovel n) (1 -- 6));
        ])
  in
  QCheck.Test.make ~name:"indexed memtable vs Map model" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 150) op_gen))
    (fun ops ->
      let t = mk () in
      let m = ref SMap.empty in
      let lsn = ref 0 in
      let last_popped = ref "" in
      let fail fmt = Printf.ksprintf failwith fmt in
      let model_rec (k, (e, _, newest)) = (k, e, newest) in
      let gt c = Option.map model_rec (SMap.find_first_opt (fun k -> k > c) !m) in
      let geq c = Option.map model_rec (SMap.find_first_opt (fun k -> k >= c) !m) in
      let popped what expect got =
        if got <> expect then
          fail "%s: popped %s" what (Option.value ~default:"-" (key_of got));
        match got with
        | Some (k, _, _) ->
            m := SMap.remove k !m;
            last_popped := k
        | None -> ()
      in
      (* Ordered contents through the uncached [peek_geq_lsn], so the
         check never disturbs the remembered successor under test. *)
      let contents () =
        let rec go acc c =
          match Memtable.peek_geq_lsn t c with
          | Some ((k, _, _) as r) -> go (r :: acc) (k ^ "\000")
          | None -> List.rev acc
        in
        go [] ""
      in
      let agree () =
        if contents () <> List.map model_rec (SMap.bindings !m) then fail "contents";
        if Memtable.count t <> SMap.cardinal !m then fail "count";
        let bytes = SMap.fold (fun k (e, _, _) b -> b + entry_bytes k e) !m 0 in
        if Memtable.bytes t <> bytes then fail "bytes %d <> %d" (Memtable.bytes t) bytes;
        let oldest = SMap.fold (fun _ (_, o, _) acc -> min o acc) !m max_int in
        if Memtable.oldest_lsn t <> (if SMap.is_empty !m then None else Some oldest)
        then fail "oldest lsn";
        for i = 0 to 24 do
          let k = Printf.sprintf "k%02d" i in
          let want = SMap.find_opt k !m in
          if Memtable.get t k <> Option.map (fun (e, _, _) -> e) want then fail "get %s" k;
          let newest =
            match Memtable.peek_geq_lsn t k with
            | Some (k', _, n) when k' = k -> Some n
            | _ -> None
          in
          if newest <> Option.map (fun (_, _, n) -> n) want then fail "newest lsn %s" k
        done
      in
      List.iter
        (fun op ->
          (match op with
          | `Write (k, e) ->
              incr lsn;
              let l = !lsn in
              Memtable.write t ~lsn:l k e;
              m :=
                SMap.update k
                  (function
                    | None -> Some (e, l, l)
                    | Some (old, oldest, newest) ->
                        let oldest = match e with Kv.Entry.Delta _ -> oldest | _ -> l in
                        let merged = Kv.Entry.merge resolver ~newer:e ~older:old in
                        Some (merged, oldest, max newest l))
                  !m
          | `Peek c -> if Memtable.peek_gt_lsn t c <> gt c then fail "peek_gt %S" c
          | `Pop (c, peek_first) ->
              let expect = gt c in
              if peek_first && Memtable.peek_gt_lsn t c <> expect then
                fail "peek before pop %S" c;
              popped "pop_next" expect (Memtable.pop_next t c)
          | `Consume c -> popped "consume_geq_lsn" (geq c) (Memtable.consume_geq_lsn t c)
          | `Shovel n ->
              (* a snowshovel burst: peek then pop at the last popped key *)
              for _ = 1 to n do
                let c = !last_popped in
                let expect = gt c in
                if Memtable.peek_gt_lsn t c <> expect then fail "shovel peek %S" c;
                popped "shovel" expect (Memtable.pop_next t c)
              done);
          agree ())
        ops;
      true)

(* -------------------------------------------------------------------- *)
(* The snowshovel shadow *)

module Shadow = Blsm.Merge_process.Shadow

let shadow_of keys =
  let s = Shadow.create ~capacity:2 in
  List.iteri (fun i k -> Shadow.append s (k, Kv.Entry.Base k, i)) keys;
  s

let drain pull =
  let rec go acc = match pull () with Some r -> go (r :: acc) | None -> List.rev acc in
  go []

(* [find] and [pull_from] against a Map model for arbitrary probes; a
   pull opened mid-run sees the records appended after it opened, and
   only those at or past its start. *)
let prop_shadow_model =
  QCheck.Test.make ~name:"shadow vs Map model" ~count:300
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 60) (int_range 0 199))
        (list_of_size Gen.(1 -- 10) (int_range 0 199))
        (int_range 0 60))
    (fun (keys, probes, split) ->
      let keys = List.sort_uniq compare keys |> List.map (Printf.sprintf "%03d") in
      let model =
        List.fold_left (fun m (i, k) -> SMap.add k (k, Kv.Entry.Base k, i) m) SMap.empty
          (List.mapi (fun i k -> (i, k)) keys)
      in
      let from_model p =
        SMap.filter (fun k _ -> k >= p) model |> SMap.bindings |> List.map snd
      in
      let split = Printf.sprintf "%03d" (split * 3) in
      let first, rest = List.partition (fun k -> k < split) keys in
      let s = shadow_of first in
      let probes = List.map (Printf.sprintf "%03d") probes @ [ ""; "5" ] in
      let pulls = List.map (fun p -> (p, Shadow.pull_from s ~from:p)) probes in
      List.iter (fun k -> Shadow.append s (SMap.find k model)) rest;
      List.for_all
        (fun p ->
          Shadow.find s p = SMap.find_opt p model
          && drain (Shadow.pull_from s ~from:p) = from_model p)
        probes
      && List.for_all (fun (p, pull) -> drain pull = from_model p) pulls)

let test_shadow_rejects_non_increasing () =
  let s = shadow_of [ "b"; "d" ] in
  List.iter
    (fun k ->
      match Shadow.append s (k, Kv.Entry.Tombstone, 0) with
      | () -> Alcotest.failf "append %S after \"d\" accepted" k
      | exception Invalid_argument _ -> ())
    [ "d"; "c"; "" ];
  Shadow.append s ("e", Kv.Entry.Tombstone, 0);
  check (Alcotest.list Alcotest.string) "order kept" [ "b"; "d"; "e" ]
    (List.map (fun (k, _, _) -> k) (drain (Shadow.pull_from s ~from:"")))

(* -------------------------------------------------------------------- *)
(* Allocation budgets *)

let loaded_memtable n =
  let t = mk () in
  let keys = Array.init n (Printf.sprintf "key%06d") in
  Array.iteri (fun i k -> Memtable.write t ~lsn:(i + 1) k (Kv.Entry.Base "v")) keys;
  (t, keys)

let test_get_alloc_budget () =
  (* A C0 hit is one index probe and the returned [Some entry], nothing
     else: the probe raises on a miss instead of boxing its slot. *)
  let t, keys = loaded_memtable 1000 in
  let per_op = Alloc.per_op 10_000 (fun i -> ignore (Memtable.get t keys.(i mod 1000))) in
  if per_op > 2 then Alcotest.failf "Memtable.get hit: %d words, budget 2" per_op

let test_overwrite_alloc_budget () =
  (* A Base overwrite of a key already in C0 is applied in place: no
     descent, no update closure, no ref. *)
  let t, keys = loaded_memtable 1000 in
  let value = Kv.Entry.Base "w" in
  let per_op =
    Alloc.per_op 10_000 (fun i -> Memtable.write t ~lsn:(2000 + i) keys.(i mod 1000) value)
  in
  if per_op > 4 then Alcotest.failf "Memtable.write overwrite: %d words, budget 4" per_op

let test_snowshovel_alloc_budget () =
  (* Snowshoveling one C0 record: the peeked record and its [Some] (6
     words), the skip list's successor binding (5), the popped record
     (6) and the [Record] group handed to the executor (4). The shadow
     append stores the peeked tuple and allocates nothing. *)
  let n = 2000 in
  let mem, _ = loaded_memtable n in
  let input =
    Blsm.Merge_process.c0_input ~resolver
      ~source:(Blsm.Merge_process.Live { mem; shadow = Shadow.create ~capacity:n })
      ~c1:None ~run_cap:max_int
  in
  let pull _ =
    match input.Blsm.Merge_process.pull ~output_bytes:0 with
    | Blsm.Merge_process.Record _ -> ()
    | Blsm.Merge_process.(Framed _ | Elided | End) -> Alcotest.fail "C0 ran dry"
  in
  pull 0;
  let per_record = Alloc.per_op (n - 1) pull in
  let budget = 21 in
  if per_record > budget then
    Alcotest.failf "snowshovel pull: %d words/record, budget %d" per_record budget;
  check Alcotest.bool "C0 drained" true (Memtable.is_empty mem)

let () =
  Alcotest.run "memtable"
    [
      ( "skiplist",
        [
          Alcotest.test_case "basic" `Quick test_skiplist_basic;
          Alcotest.test_case "ordered" `Quick test_skiplist_ordered_iteration;
          Alcotest.test_case "remove" `Quick test_skiplist_remove;
          Alcotest.test_case "succ_geq" `Quick test_skiplist_succ_geq;
          Alcotest.test_case "succ_gt" `Quick test_skiplist_succ_gt;
          QCheck_alcotest.to_alcotest prop_skiplist_model;
          QCheck_alcotest.to_alcotest prop_skiplist_succ_matches_model;
        ] );
      ( "memtable",
        [
          Alcotest.test_case "write/get" `Quick test_memtable_write_get;
          Alcotest.test_case "delta composition" `Quick test_memtable_delta_composes_in_c0;
          Alcotest.test_case "tombstone" `Quick test_memtable_tombstone;
          Alcotest.test_case "bytes accounting" `Quick test_memtable_bytes_accounting;
          Alcotest.test_case "consume_geq" `Quick test_memtable_consume_geq;
          Alcotest.test_case "oldest lsn" `Quick test_memtable_oldest_lsn;
          QCheck_alcotest.to_alcotest prop_memtable_snowshovel_drains_sorted;
          QCheck_alcotest.to_alcotest prop_memtable_model;
        ] );
      ( "shadow",
        [
          QCheck_alcotest.to_alcotest prop_shadow_model;
          Alcotest.test_case "non-increasing append" `Quick test_shadow_rejects_non_increasing;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "get hit budget" `Quick test_get_alloc_budget;
          Alcotest.test_case "overwrite budget" `Quick test_overwrite_alloc_budget;
          Alcotest.test_case "snowshovel pull budget" `Quick test_snowshovel_alloc_budget;
        ] );
    ]
