(* Order index and memtable (C0) tests: model-based checks against
   Stdlib.Map, ordered iteration, successor queries, snowshovel
   consumption, byte accounting and LSN tracking. *)

let check = Alcotest.check

module SMap = Map.Make (String)
module Order = Memtable.Order_index

(* The order index's answers as options, built on its finger and cursors
   the way Memtable uses them. [find] reads through a cursor of its own,
   so it leaves the finger alone. *)
module Opt = struct
  let binding t = (Order.key t, Order.value t)

  let find t key =
    let c = Order.cursor () in
    if Order.cursor_seek_geq t c key && Order.cursor_key c = key then
      Some (Order.cursor_value t c)
    else None

  let succ_geq t key = if Order.seek_geq t key then Some (binding t) else None
  let succ_gt t key = if Order.seek_gt t key then Some (binding t) else None

  (* Deletes [key]'s binding, if any, and returns the smallest binding
     past [key]. *)
  let remove_succ t key =
    if not (Order.seek_geq t key) then None
    else if Order.key t <> key then Some (binding t)
    else if Order.pop t then Some (binding t)
    else None
end

(* -------------------------------------------------------------------- *)
(* The order index. The group and its cases keep the names they had when
   C0's order was a skip list, so their results stay comparable across
   that change. *)

let test_skiplist_basic () =
  let sl = Order.create () in
  Order.set sl "b" 2;
  Order.set sl "a" 1;
  Order.set sl "c" 3;
  check (Alcotest.option Alcotest.int) "find a" (Some 1) (Opt.find sl "a");
  check (Alcotest.option Alcotest.int) "find missing" None (Opt.find sl "zz");
  check Alcotest.int "length" 3 (Order.length sl);
  Order.set sl "a" 10;
  check (Alcotest.option Alcotest.int) "overwrite" (Some 10) (Opt.find sl "a");
  check Alcotest.int "length unchanged" 3 (Order.length sl)

let order_bindings sl =
  List.rev (Order.fold sl [] (fun acc k v -> (k, v) :: acc))

let test_skiplist_ordered_iteration () =
  let sl = Order.create () in
  List.iter (fun k -> Order.set sl k ()) [ "d"; "a"; "c"; "b"; "e" ];
  let keys = List.map fst (order_bindings sl) in
  check (Alcotest.list Alcotest.string) "sorted" [ "a"; "b"; "c"; "d"; "e" ] keys

let test_skiplist_remove () =
  let sl = Order.create () in
  List.iter (fun k -> Order.set sl k k) [ "a"; "b"; "c" ];
  let succ = Alcotest.(option (pair string string)) in
  check succ "successor of removed" (Some ("c", "c")) (Opt.remove_succ sl "b");
  check (Alcotest.option Alcotest.string) "gone" None (Opt.find sl "b");
  check succ "remove missing" (Some ("c", "c")) (Opt.remove_succ sl "b");
  check Alcotest.int "length" 2 (Order.length sl);
  check succ "remove last" None (Opt.remove_succ sl "c");
  check (Alcotest.list Alcotest.string) "left" [ "a" ]
    (List.map fst (order_bindings sl))

let test_skiplist_succ_geq () =
  let sl = Order.create () in
  List.iter (fun k -> Order.set sl k ()) [ "b"; "d"; "f" ];
  let key_of = Option.map fst in
  check (Alcotest.option Alcotest.string) "exact" (Some "b")
    (key_of (Opt.succ_geq sl "b"));
  check (Alcotest.option Alcotest.string) "between" (Some "d")
    (key_of (Opt.succ_geq sl "c"));
  check (Alcotest.option Alcotest.string) "before all" (Some "b")
    (key_of (Opt.succ_geq sl "a"));
  check (Alcotest.option Alcotest.string) "past end" None
    (key_of (Opt.succ_geq sl "g"))

let test_skiplist_succ_gt () =
  (* an ordered walk resuming strictly past the last key it returned *)
  let sl = Order.create () in
  List.iter (fun k -> Order.set sl k ()) [ "a"; "b"; "c"; "d" ];
  (* at most four steps, so a [succ_gt] that answers its own probe
     fails the case instead of looping *)
  let rec walk acc k =
    if List.length acc > 4 then List.rev acc
    else
      match Opt.succ_gt sl k with
      | Some (k', ()) when k' <= "c" -> walk (k' :: acc) k'
      | Some _ | None -> List.rev acc
  in
  check (Alcotest.list Alcotest.string) "range" [ "b"; "c" ] (walk [] "a");
  check (Alcotest.option Alcotest.string) "between" (Some "c")
    (Option.map fst (Opt.succ_gt sl "bb"));
  check (Alcotest.option Alcotest.string) "past end" None
    (Option.map fst (Opt.succ_gt sl "d"))

(* Model-based property: a random op sequence applied to both the order
   index and Map yields identical contents. *)
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
      let sl = Order.create () in
      let m = ref SMap.empty in
      let ok = ref true in
      List.iter
        (function
          | `Set k ->
              Order.set sl k k;
              m := SMap.add k k !m
          | `Remove k ->
              m := SMap.remove k !m;
              let a = Opt.remove_succ sl k in
              let b = SMap.find_first_opt (fun k' -> k' > k) !m in
              if a <> b then ok := false
          | `Find k -> if Opt.find sl k <> SMap.find_opt k !m then ok := false)
        ops;
      !ok
      && order_bindings sl = SMap.bindings !m
      && Order.length sl = SMap.cardinal !m)

let prop_skiplist_succ_matches_model =
  QCheck.Test.make ~name:"succ_geq vs Map model" ~count:200
    QCheck.(pair (list_of_size Gen.(0 -- 60) (int_range 0 99)) (int_range 0 99))
    (fun (keys, probe) ->
      let sl = Order.create () in
      let m =
        List.fold_left
          (fun m k ->
            let s = Printf.sprintf "%02d" k in
            Order.set sl s ();
            SMap.add s () m)
          SMap.empty keys
      in
      let probe = Printf.sprintf "%02d" probe in
      let expected = SMap.find_first_opt (fun k -> k >= probe) m in
      let actual = Opt.succ_geq sl probe in
      Option.map fst expected = Option.map fst actual)


(* Keys over the full byte alphabet: [\000] and [\255] bytes, keys that
   are prefixes of one another, ties past the 7-byte integer prefix. The
   early keys share the prefix "pp"; the late ones (the empty key among
   them) shrink the common prefix of a large index. *)
let key_body =
  QCheck.Gen.(string_size ~gen:(oneof [ return '\000'; return '\255'; return 'a'; char ]) (0 -- 10))

let early_key =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun b -> "pp" ^ b) key_body);
        (6, map2 (fun n b -> Printf.sprintf "pp%07d%s" n b) (0 -- 9_999) key_body);
        (1, map (fun b -> "pp0000000\000\000\000\000\000\000\000" ^ b) key_body);
      ])

let late_key =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        (2, map (fun b -> "p" ^ b) key_body);
        (2, map (fun b -> "\001" ^ b) key_body);
        (4, early_key);
      ])

(* Over 5,000+ keys, enough to split leaves and grow their run: inserts,
   finds, successor queries and an ordered consumer at a moving cursor
   (peek past the cursor, sometimes walk on without taking, remove what
   it peeked, move the cursor onto it) interleaved with inserts on both
   sides of that cursor. Every answer
   must match a Map; the consumer exercises the finger, and the inserts
   around it its staleness. *)
let prop_order_index_large =
  QCheck.Test.make ~name:"order index vs Map model, 5,000+ keys" ~count:6
    (QCheck.make
       QCheck.Gen.(
         triple (list_repeat 5_000 early_key) (list_repeat 1_500 late_key)
           (list_repeat 1_500 key_body)))
    (fun (early, late, suffixes) ->
      let t = Order.create () in
      let m = ref SMap.empty in
      let fail fmt = Printf.ksprintf failwith fmt in
      let show = function Some (k, _) -> Printf.sprintf "%S" k | None -> "-" in
      let set k =
        let v = String.length k in
        Order.set t k v;
        m := SMap.add k v !m
      in
      let gt c = SMap.find_first_opt (fun k -> k > c) !m in
      let geq c = SMap.find_first_opt (fun k -> k >= c) !m in
      let cursor = ref "" in
      let succ_gt c =
        let got = Opt.succ_gt t c in
        if got <> gt c then fail "succ_gt %S: %s, want %s" c (show got) (show (gt c));
        got
      in
      (* one consumer step: peek past the cursor, walk [ahead] records
         further without taking them (as a merge from a frozen C0 does),
         then take the peeked record as [Memtable.pop_next] does: seek
         past the cursor again and pop what the finger found *)
      let consume ?(ahead = 0) () =
        match succ_gt !cursor with
        | None -> cursor := ""
        | Some (k, _) ->
            let w = ref k in
            for _ = 1 to ahead do
              match succ_gt !w with Some (k', _) -> w := k' | None -> ()
            done;
            if not (Order.seek_gt t !cursor && Order.key t = k) then
              fail "seek_gt %S: lost %S" !cursor k;
            m := SMap.remove k !m;
            let got = if Order.pop t then Some (Opt.binding t) else None in
            if got <> gt k then fail "pop %S: %s, want %s" k (show got) (show (gt k));
            cursor := k
      in
      let probe k =
        if Opt.find t k <> SMap.find_opt k !m then fail "find %S" k;
        if Opt.succ_geq t k <> geq k then fail "succ_geq %S" k;
        if Opt.succ_gt t k <> gt k then fail "succ_gt %S" k
      in
      List.iteri
        (fun i k ->
          set k;
          if i mod 5 = 0 then probe k;
          if i >= 3_000 && i mod 3 = 0 then consume ())
        early;
      (* between consumer steps: keys anywhere, keys just past the cursor
         (the finger's gap) and keys around it, mostly just below *)
      List.iteri
        (fun i (k, sfx) ->
          let c = !cursor in
          let k =
            match i mod 4 with
            | 1 -> c ^ sfx
            | 3 when c <> "" -> String.sub c 0 (String.length c - 1) ^ sfx
            | _ -> k
          in
          set k;
          if i mod 2 = 1 then consume ~ahead:(i mod 3) ();
          if i mod 7 = 0 then probe k)
        (List.combine late suffixes);
      for _ = 1 to 2_000 do
        consume ()
      done;
      order_bindings t = SMap.bindings !m && Order.length t = SMap.cardinal !m)

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
   op, the index (a [get] of every key) and the order index (ordered
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
      (* Ordered contents through [peek_geq_lsn], which reads with its
         own cursor, so the check never moves the finger under test. *)
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
     words), the popped record (6) and the [Record] group handed to the
     executor (4). The order index's finger answers both the peek and
     the pop in place, and the shadow append stores the peeked tuple:
     neither allocates. *)
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
  let budget = 16 in
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
          QCheck_alcotest.to_alcotest prop_order_index_large;
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
