(* Quickstart: open a bLSM tree, write, read, scan, delete, recover.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A store = simulated device + pages + buffer pool + logs. Profiles
     model the paper's two RAID-0 arrays; costs accrue on a simulated
     clock so every run is deterministic. *)
  let store =
    Pagestore.Store.create
      ~config:
        {
          Pagestore.Store.cfg_page_size = 4096;
          cfg_buffer_pages = 2048;
          cfg_durability = Pagestore.Wal.Full;
        }
      Simdisk.Profile.ssd_raid0
  in
  let config =
    { Blsm.Config.default with Blsm.Config.c0_bytes = 1024 * 1024 }
  in
  let tree = Blsm.Tree.create ~config store in

  (* Blind writes: zero seeks, insert-or-overwrite. *)
  Blsm.Tree.put tree "user:alice" "alice@example.com";
  Blsm.Tree.put tree "user:bob" "bob@example.com";
  Blsm.Tree.put tree "user:carol" "carol@example.com";

  (* Point reads stop at the first base record (early termination). *)
  (match Blsm.Tree.get tree "user:bob" with
  | Some v -> Printf.printf "get user:bob -> %s\n" v
  | None -> print_endline "user:bob missing?!");

  (* Deltas are zero-seek patches, resolved lazily by reads and merges. *)
  Blsm.Tree.apply_delta tree "user:alice" " (verified)";
  Printf.printf "after delta    -> %s\n"
    (Option.value (Blsm.Tree.get tree "user:alice") ~default:"<none>");

  (* Insert-if-not-exists: the Bloom filters answer the existence check
     without touching disk. *)
  let inserted = Blsm.Tree.insert_if_absent tree "user:bob" "imposter" in
  Printf.printf "insert_if_absent user:bob -> %b (original kept)\n" inserted;

  (* Ordered scans merge all tree components. *)
  print_endline "scan user: ..";
  List.iter
    (fun (k, v) -> Printf.printf "  %-12s %s\n" k v)
    (Blsm.Tree.scan tree "user:" 10);

  Blsm.Tree.delete tree "user:carol";
  Printf.printf "after delete, carol = %s\n"
    (Option.value (Blsm.Tree.get tree "user:carol") ~default:"<gone>");

  (* Atomic multi-key batch: one log record, all-or-nothing at crash. *)
  Blsm.Tree.write_batch tree
    [
      ("acct:alice", Kv.Entry.Base "90");
      ("acct:bob", Kv.Entry.Base "110");
      ("ledger", Kv.Entry.Delta [ ";alice->bob:10" ]);
    ];
  Printf.printf "after batch transfer: alice=%s bob=%s\n"
    (Option.value (Blsm.Tree.get tree "acct:alice") ~default:"?")
    (Option.value (Blsm.Tree.get tree "acct:bob") ~default:"?");

  (* Write enough to push data through the merge pipeline. *)
  for i = 0 to 5_000 do
    Blsm.Tree.put tree
      (Printf.sprintf "bulk:%06d" i)
      (String.make 200 (Char.chr (97 + (i mod 26))))
  done;
  Blsm.Tree.flush tree;
  let s = Blsm.Tree.stats tree and ms = Blsm.Tree.merge_stats tree in
  Printf.printf "stats: %d puts, %d merges (C0:C1), %d merges (C1':C2)\n"
    s.Blsm.Tree.puts ms.Blsm.Tree.merge1_completions ms.Blsm.Tree.merge2_completions;
  print_endline "tree levels after 5k bulk writes (flushed):";
  List.iter
    (fun l ->
      Printf.printf "  %-4s %8d records %10d bytes\n" l.Blsm.Tree.level
        l.Blsm.Tree.records l.Blsm.Tree.bytes)
    (Blsm.Tree.levels tree);

  (* Crash and recover: committed components + WAL replay. *)
  let tree = Blsm.Tree.crash_and_recover tree in
  Printf.printf "after crash+recovery: alice = %s, bulk:004999 intact = %b\n"
    (Option.value (Blsm.Tree.get tree "user:alice") ~default:"<lost!>")
    (Blsm.Tree.get tree "bulk:004999" <> None);

  Printf.printf "simulated time elapsed: %.2f ms\n"
    (Pagestore.Store.now_us store /. 1000.)
