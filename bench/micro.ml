(** Bechamel micro-benchmarks: the CPU-side kernels each experiment leans
    on, one [Test.make] per table/figure ingredient. Reported as ns/run
    via OLS against the monotonic clock. *)

open Bechamel
open Toolkit

let mk_store () =
  Pagestore.Store.create
    ~config:
      { Pagestore.Store.cfg_page_size = 4096;
        cfg_buffer_pages = 1024;
        cfg_durability = Pagestore.Wal.None_ }
    Simdisk.Profile.ssd_raid0

(* C0's snowshovel steady state over [n] keys (§4.2): each op inserts a
   fresh key and pops the next key in order past the cursor, wrapping to
   the smallest at the end, so the order index keeps [n] keys. It seeks
   past the key it last took and pops what it found, as
   [Memtable.pop_next] does. Keys are "user" and 19 digits of an odd
   multiple of the op's number modulo 2^30 (a bijection, so no key
   repeats), formatted without [Printf]. *)
let c0_insert_pop n =
  let module O = Memtable.Order_index in
  let ix = O.create () in
  let key i =
    let b = Bytes.of_string "user0000000000000000000" in
    let v = ref ((i * 0x9E3779B1) land 0x3FFFFFFF) and j = ref 22 in
    while !v > 0 do
      Bytes.unsafe_set b !j (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10;
      decr j
    done;
    Bytes.unsafe_to_string b
  in
  for i = 0 to n - 1 do
    O.set ix (key i) i
  done;
  let last = ref "" and i = ref n in
  fun () ->
    O.set ix (key !i) !i;
    incr i;
    if O.seek_gt ix !last || O.seek_geq ix "" then begin
      last := O.key ix;
      ignore (O.pop ix : bool)
    end

let test_insert_pop n =
  Test.make
    ~name:(Printf.sprintf "order.insert+pop %d keys (C0 snowshovel path)" n)
    (Staged.stage (c0_insert_pop n))

let test_memtable_write =
  let mem = Memtable.create ~resolver:Kv.Entry.append_resolver () in
  let i = ref 0 in
  Test.make ~name:"memtable.write (fig7 insert path)"
    (Staged.stage (fun () ->
         incr i;
         Memtable.write mem ~lsn:!i
           (Repro_util.Keygen.key_of_id (!i mod 10_000))
           (Kv.Entry.Base "value")))

let test_bloom =
  let b = Bloom.create ~expected_items:100_000 () in
  let i = ref 0 in
  Test.make ~name:"bloom.add+mem (table1 lookup path)"
    (Staged.stage (fun () ->
         incr i;
         let k = Repro_util.Keygen.key_of_id !i in
         Bloom.add b k;
         ignore (Bloom.mem b k)))

let test_crc =
  let payload = String.make 4096 'x' in
  Test.make ~name:"crc32c.4KiB (wal/page integrity)"
    (Staged.stage (fun () -> ignore (Repro_util.Crc32c.string payload)))

let test_entry_codec =
  let e = Kv.Entry.Base (String.make 1000 'v') in
  Test.make ~name:"entry.encode+decode (sstable record)"
    (Staged.stage (fun () ->
         let b = Bytes.create (Kv.Entry.encoded_size e) in
         ignore (Kv.Entry.write b 0 e);
         ignore (Kv.Entry.decode (Bytes.unsafe_to_string b) 0)))

let test_sstable_get =
  let store = mk_store () in
  let b = Sstable.Builder.create ~extent_pages:256 store in
  for i = 0 to 9_999 do
    Sstable.Builder.add b
      (Printf.sprintf "key%08d" i)
      (Kv.Entry.Base (String.make 100 'v'))
  done;
  let footer = Sstable.Builder.finish b ~timestamp:1 in
  let sst =
    Sstable.Reader.open_in_ram store footer ~index:(Sstable.Builder.index_blob b)
  in
  let i = ref 0 in
  Test.make ~name:"sstable.get (fig8 read path)"
    (Staged.stage (fun () ->
         incr i;
         ignore (Sstable.Reader.get sst (Printf.sprintf "key%08d" (!i * 7919 mod 10_000)))))

let test_zipfian =
  let g = Ycsb.Generator.zipfian ~seed:1 ~n:1_000_000 () in
  Test.make ~name:"ycsb.zipfian draw (fig9 workload)"
    (Staged.stage (fun () -> ignore (Ycsb.Generator.next g ~record_count:1_000_000)))

let test_histogram =
  let h = Repro_util.Histogram.create () in
  let i = ref 0 in
  Test.make ~name:"histogram.add (latency capture)"
    (Staged.stage (fun () ->
         incr i;
         Repro_util.Histogram.add h (!i * 13 mod 100_000)))

let test_blsm_put =
  let store = mk_store () in
  let config =
    { Blsm.Config.default with Blsm.Config.c0_bytes = 4 * 1024 * 1024 }
  in
  let tree = Blsm.Tree.create ~config store in
  let i = ref 0 in
  Test.make ~name:"blsm.put end-to-end (fig7/fig8 write)"
    (Staged.stage (fun () ->
         incr i;
         Blsm.Tree.put tree (Repro_util.Keygen.key_of_id !i) (String.make 100 'v')))

(* Built when run: the 10^6-key index is not set up on every start. *)
let tests () =
  [
    test_insert_pop 3_300;
    test_insert_pop 1_000_000;
    test_memtable_write;
    test_bloom;
    test_crc;
    test_entry_codec;
    test_sstable_get;
    test_zipfian;
    test_histogram;
    test_blsm_put;
  ]

(** [collect ()] runs every kernel and returns [(name, ns/run)] pairs —
    the perf harness folds these into its JSON trajectory. A kernel whose
    OLS fit fails reports [nan]. *)
let collect ?(quota = 0.5) () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  List.concat_map
    (fun test ->
      let raw = Benchmark.all cfg [ instance ] test in
      let results = Analyze.all ols instance raw in
      (* bechamel keys its results table by test name; sort so the hash
         order cannot leak into the report. *)
      (Hashtbl.fold [@lint.allow "D002"])
        (fun name ols_result acc ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> est
            | _ -> nan
          in
          (name, est) :: acc)
        results []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))
    (tests ())

let run () =
  Scale.section "Bechamel micro-benchmarks (ns/run, OLS vs monotonic clock)";
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then Printf.printf "%-44s %12s\n" name "n/a"
      else Printf.printf "%-44s %12.1f ns/run\n" name est)
    (collect ())
