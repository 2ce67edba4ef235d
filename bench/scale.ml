(** Experiment scale and engine construction.

    The paper's setup (§5.1): 50 GB of 1000-byte values; 10 GB of cache for
    InnoDB and LevelDB; bLSM splits its 10 GB as 8 GB C0 + 2 GB buffer
    cache; InnoDB uses 16 KB pages, the LSMs 4 KB. We preserve those
    *ratios* at a size that runs in seconds: data:C0 = 6.25:1,
    cache = 20% of data. All knobs are CLI-tunable. *)

type t = {
  records : int;
  value_bytes : int;
  ops : int;  (** per measured phase *)
  seed : int;
}

let default = { records = 40_000; value_bytes = 1000; ops = 8_000; seed = 42 }

let data_bytes s = s.records * (s.value_bytes + 24)

(* cache sizing, as a fraction of the data set *)
let cache_fraction = 0.20
let blsm_c0_fraction = 0.16
let blsm_cache_fraction = 0.04

let pages bytes ~page_size = max 64 (bytes / page_size)

let store ?(page_size = 4096) ?durability ~cache_bytes profile =
  let cfg =
    {
      Pagestore.Store.cfg_page_size = page_size;
      cfg_buffer_pages = pages cache_bytes ~page_size;
      cfg_durability = Option.value durability ~default:Pagestore.Wal.Full;
    }
  in
  Pagestore.Store.create ~config:cfg profile

(** bLSM with the paper's default configuration (spring-and-gear,
    snowshovel, Bloom filters, early termination). *)
let blsm ?(config_tweak = Fun.id) s profile =
  let cache = int_of_float (blsm_cache_fraction *. float_of_int (data_bytes s)) in
  let c0 = int_of_float (blsm_c0_fraction *. float_of_int (data_bytes s)) in
  let config =
    config_tweak
      {
        Blsm.Config.default with
        Blsm.Config.c0_bytes = c0;
        seed = s.seed;
        extent_pages = 1024;
      }
  in
  let st = store ~cache_bytes:cache profile in
  Blsm.Tree.create ~config st

let blsm_engine ?config_tweak ?name s profile =
  Blsm.Tree.engine ?name (blsm ?config_tweak s profile)

(** InnoDB stand-in: 16 KB pages, 20% cache. *)
let btree s profile =
  let cache = int_of_float (cache_fraction *. float_of_int (data_bytes s)) in
  let st = store ~page_size:(16 * 1024) ~cache_bytes:cache profile in
  Btree_baseline.Btree.create st

let btree_engine ?name s profile = Btree_baseline.Btree.engine ?name (btree s profile)

(** LevelDB 2012 ({!Blsm.Policy_tree.leveldb_pconfig}): small memtable
    (1/8 of bLSM's C0), level ratio 10, no Bloom filters, 20% cache. *)
let leveldb s profile =
  let cache = int_of_float (cache_fraction *. float_of_int (data_bytes s)) in
  let c0 = int_of_float (blsm_c0_fraction *. float_of_int (data_bytes s)) in
  let config =
    {
      Blsm.Config.default with
      Blsm.Config.c0_bytes = max (64 * 1024) (c0 / 8);
      bloom_bits_per_key = 0;
      extent_pages = 256;
      seed = s.seed;
    }
  in
  let pconfig =
    {
      Blsm.Policy_tree.leveldb_pconfig with
      Blsm.Policy_tree.pt_file_bytes = max (64 * 1024) (c0 / 4);
      pt_base_bytes = max (256 * 1024) (c0 / 2);
    }
  in
  let st = store ~cache_bytes:cache profile in
  Blsm.Policy_tree.create ~config ~pconfig
    ~policy:Blsm.Compaction_policy.leveldb_seed
    st

let leveldb_engine ?(name = "LevelDB") s profile =
  Blsm.Policy_tree.engine ~name (leveldb s profile)

(** Load [s.records] fresh records and settle the store. *)
let loaded_engine s (engine : Kv.Kv_intf.engine) =
  let ks = Ycsb.Runner.keyspace ~records:0 ~value_bytes:s.value_bytes in
  let r = Ycsb.Runner.load engine ks ~n:s.records ~seed:s.seed () in
  engine.Kv.Kv_intf.maintenance ();
  (ks, r)

let hline width = String.make width '-'

let section title =
  Printf.printf "\n%s\n%s\n" title (hline (String.length title))
