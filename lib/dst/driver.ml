(** Engine drivers: the uniform record the DST interpreter executes
    plans against.

    A driver wraps one engine instance — bLSM {!Blsm.Tree} under any
    scheduler, {!Blsm.Partitioned}, the compaction-policy trees and the
    B-Tree and LevelDB baselines — behind first-class fields for the
    whole exercised surface, with optional hooks ([option] fields) for
    capabilities that vary by engine: crash/recovery, scrubbing,
    op-counter introspection, stall attribution.

    Constructors are [unit -> t] factories: the shrinker builds a fresh
    engine per candidate plan, and determinism comes from everything —
    store, tree config, fault PRNG — being seeded from the plan seed. *)

type t = {
  name : string;
  caps : Plan.caps;
  get : string -> string option;
  put : string -> string -> unit;
  delete : string -> unit;
  apply_delta : string -> string -> unit;
  rmw : string -> string -> unit;  (** append suffix *)
  insert_if_absent : string -> string -> bool;
  scan : string -> int -> (string * string) list;
  write_batch : (string * Kv.Entry.t) list -> unit;
      (** atomic iff [caps.c_lsm]; emulated per-item otherwise *)
  maintenance : unit -> unit;
  flush : (unit -> unit) option;
  crash_recover : (unit -> unit) option;
      (** power-fail the store and recover in place *)
  scrub : (unit -> Blsm.Lsm_shell.scrub_report list) option;
      (** one report per engine shell (partitions scrub separately) *)
  counts : (unit -> Blsm.Lsm_shell.stats list) option;
      (** the engine shells' live op counters (one per partition),
          compared against the interpreter's mirror *)
  mask_scans : bool;
      (** scans counter moves outside the op stream (chained partition
          scans); skip it in the counter check *)
  last_stall : (unit -> Blsm.Lsm_shell.stall_breakdown) option;
  metrics_dump : unit -> string;
      (** deterministic registry dump for the byte-identity check *)
  faults : Simdisk.Faults.t;  (** the store's fault plan *)
}

(* ------------------------------------------------------------------ *)
(* Shared construction *)

let mk_store ~fault_seed () =
  let store =
    Pagestore.Store.create
      ~config:
        {
          Pagestore.Store.cfg_page_size = 4096;
          cfg_buffer_pages = 128;
          cfg_durability = Pagestore.Wal.Full;
        }
      Simdisk.Profile.ssd_raid0
  in
  let faults = Simdisk.Faults.create ~seed:fault_seed () in
  Pagestore.Store.set_faults store faults;
  (store, faults)

(* The crash-test tree shape: a C0 small enough that short plans push
   data through both merge levels. Pages and Bloom filters are the one
   on-disk format every engine and benchmark writes, so the oracle and
   fault battery check the same bytes the benchmarks time. *)
let small_config ?(scheduler = Blsm.Config.Spring) seed =
  {
    Blsm.Config.default with
    Blsm.Config.c0_bytes = 24 * 1024;
    size_ratio = Blsm.Config.Fixed 3.0;
    extent_pages = 8;
    scheduler;
    max_quota_per_write = 128 * 1024;
    seed;
  }

let append_rmw suffix = fun v -> Option.value v ~default:"" ^ suffix

(* ------------------------------------------------------------------ *)
(* Capability table (static: generation needs caps before any engine
   instance exists) *)

let caps_lsm = { Plan.c_lsm = true }

let caps_baseline = { Plan.c_lsm = false }

(* ------------------------------------------------------------------ *)
(* Constructors *)

(* A driver over one bLSM tree; [tree] follows recoveries. *)
let blsm ?(scheduler = Blsm.Config.Spring) ~name ~seed () =
  let store, faults = mk_store ~fault_seed:seed () in
  let tree =
    ref (Blsm.Tree.create ~config:(small_config ~scheduler seed) store)
  in
  {
    name;
    caps = caps_lsm;
    get = (fun k -> Blsm.Tree.get !tree k);
    put = (fun k v -> Blsm.Tree.put !tree k v);
    delete = (fun k -> Blsm.Tree.delete !tree k);
    apply_delta = (fun k d -> Blsm.Tree.apply_delta !tree k d);
    rmw = (fun k s -> Blsm.Tree.read_modify_write !tree k (append_rmw s));
    insert_if_absent = (fun k v -> Blsm.Tree.insert_if_absent !tree k v);
    scan = (fun start n -> Blsm.Tree.scan !tree start n);
    write_batch = (fun ops -> Blsm.Tree.write_batch !tree ops);
    maintenance = (fun () -> Blsm.Tree.maintenance !tree);
    flush = Some (fun () -> Blsm.Tree.flush !tree);
    crash_recover =
      Some (fun () -> tree := Blsm.Tree.crash_and_recover ~verify:true !tree);
    scrub = Some (fun () -> [ Blsm.Tree.scrub !tree ]);
    counts = Some (fun () -> [ Blsm.Tree.stats !tree ]);
    mask_scans = false;
    last_stall = Some (fun () -> Blsm.Tree.last_stall !tree);
    metrics_dump = (fun () -> Obs.Metrics.dump (Blsm.Tree.metrics !tree));
    faults;
  }

let partitioned ~seed () =
  let store, faults = mk_store ~fault_seed:seed () in
  (* 3 partitions sharing one store; boundaries sit inside the generated
     key space so batches and scans straddle them *)
  let config =
    { (small_config seed) with Blsm.Config.c0_bytes = 48 * 1024 }
  in
  let pt =
    ref (Blsm.Partitioned.create ~config ~boundaries:[ "key100"; "key200" ] store)
  in
  {
    name = "partitioned";
    caps = caps_lsm;
    get = (fun k -> Blsm.Partitioned.get !pt k);
    put = (fun k v -> Blsm.Partitioned.put !pt k v);
    delete = (fun k -> Blsm.Partitioned.delete !pt k);
    apply_delta = (fun k d -> Blsm.Partitioned.apply_delta !pt k d);
    rmw =
      (fun k s -> Blsm.Partitioned.read_modify_write !pt k (append_rmw s));
    insert_if_absent = (fun k v -> Blsm.Partitioned.insert_if_absent !pt k v);
    scan = (fun start n -> Blsm.Partitioned.scan !pt start n);
    write_batch = (fun ops -> Blsm.Partitioned.write_batch !pt ops);
    maintenance = (fun () -> Blsm.Partitioned.maintenance !pt);
    flush = Some (fun () -> Blsm.Partitioned.flush !pt);
    crash_recover =
      Some (fun () -> pt := Blsm.Partitioned.crash_and_recover !pt);
    scrub = Some (fun () -> Blsm.Partitioned.scrub !pt);
    counts =
      Some (fun () -> Array.to_list (Blsm.Partitioned.partition_stats !pt));
    mask_scans = true;
    last_stall = None;
    metrics_dump = (fun () -> Obs.Metrics.dump (Blsm.Partitioned.metrics !pt));
    faults;
  }

let btree ~seed () =
  let store, faults = mk_store ~fault_seed:seed () in
  let bt = Btree_baseline.Btree.create store in
  {
    name = "btree";
    caps = caps_baseline;
    get = (fun k -> Btree_baseline.Btree.get bt k);
    put = (fun k v -> Btree_baseline.Btree.put bt k v);
    delete = (fun k -> Btree_baseline.Btree.delete bt k);
    apply_delta =
      (fun k d ->
        (* B-Trees have no delta primitive: emulate as RMW-append *)
        Btree_baseline.Btree.read_modify_write bt k (fun v ->
            match v with Some b -> b ^ d | None -> d));
    rmw =
      (fun k s -> Btree_baseline.Btree.read_modify_write bt k (append_rmw s));
    insert_if_absent = (fun k v -> Btree_baseline.Btree.insert_if_absent bt k v);
    scan = (fun start n -> Btree_baseline.Btree.scan bt start n);
    write_batch = (fun _ -> invalid_arg "btree driver: batch is emulated");
    maintenance =
      (fun () ->
        Pagestore.Buffer_manager.flush_all
          (Pagestore.Store.buffer (Btree_baseline.Btree.store bt)));
    flush = None;
    crash_recover = None;
    scrub = None;
    counts = None;
    mask_scans = true;
    last_stall = None;
    metrics_dump = (fun () -> "");
    faults;
  }

(* The policy-tree shape: small thresholds and file sizes so short
   plans drive every policy through flushes, multi-level compactions
   and the level-0 stop threshold, with room below [max_levels] for
   cascades. Shares [small_config]'s store-side knobs (extent size,
   Bloom budget, spring watermarks) so the policies inherit the same
   read stack and pacing as the bLSM drivers. *)
let small_pconfig =
  {
    Blsm.Policy_tree.pt_l0_trigger = 3;
    pt_l0_stop = 6;
    pt_fanout = 3.0;
    pt_base_bytes = 32 * 1024;
    pt_file_bytes = 16 * 1024;
    pt_max_levels = 5;
    pt_pacing = Blsm.Policy_tree.Spring;
  }

let ptree_driver ~name ~config ~pconfig ~policy ~seed () =
  let store, faults = mk_store ~fault_seed:seed () in
  let pt = ref (Blsm.Policy_tree.create ~config ~pconfig ~policy store) in
  {
    name;
    caps = caps_lsm;
    get = (fun k -> Blsm.Policy_tree.get !pt k);
    put = (fun k v -> Blsm.Policy_tree.put !pt k v);
    delete = (fun k -> Blsm.Policy_tree.delete !pt k);
    apply_delta = (fun k d -> Blsm.Policy_tree.apply_delta !pt k d);
    rmw =
      (fun k s -> Blsm.Policy_tree.read_modify_write !pt k (append_rmw s));
    insert_if_absent = (fun k v -> Blsm.Policy_tree.insert_if_absent !pt k v);
    scan = (fun start n -> Blsm.Policy_tree.scan !pt start n);
    write_batch = (fun ops -> Blsm.Policy_tree.write_batch !pt ops);
    maintenance = (fun () -> Blsm.Policy_tree.maintenance !pt);
    flush = Some (fun () -> Blsm.Policy_tree.flush !pt);
    crash_recover =
      Some
        (fun () -> pt := Blsm.Policy_tree.crash_and_recover ~verify:true !pt);
    scrub = Some (fun () -> [ Blsm.Policy_tree.scrub !pt ]);
    counts = Some (fun () -> [ Blsm.Policy_tree.stats !pt ]);
    mask_scans = false;
    last_stall = Some (fun () -> Blsm.Policy_tree.last_stall !pt);
    metrics_dump = (fun () -> Obs.Metrics.dump (Blsm.Policy_tree.metrics !pt));
    faults;
  }

let policy_tree ~policy_name ~seed () =
  let policy =
    match List.assoc_opt policy_name Blsm.Compaction_policy.named with
    | Some p -> p
    | None -> invalid_arg ("Dst.Driver.policy_tree: unknown policy " ^ policy_name)
  in
  ptree_driver ~name:("policy-" ^ policy_name) ~config:(small_config seed)
    ~pconfig:small_pconfig ~policy ~seed ()

(* The 2012 LevelDB configuration at DST scale: 16 KiB memtable and
   files, 64 KiB level 1, no Bloom filters, credit pacing. *)
let leveldb ~seed () =
  ptree_driver ~name:"leveldb"
    ~config:
      {
        Blsm.Config.default with
        Blsm.Config.c0_bytes = 16 * 1024;
        bloom_bits_per_key = 0;
        extent_pages = 8;
        seed;
      }
    ~pconfig:
      {
        Blsm.Policy_tree.leveldb_pconfig with
        Blsm.Policy_tree.pt_file_bytes = 16 * 1024;
        pt_base_bytes = 64 * 1024;
      }
    ~policy:Blsm.Compaction_policy.leveldb_seed
    ~seed ()

(* ------------------------------------------------------------------ *)
(* Factory *)

let policy_names =
  List.map (fun (name, _) -> "policy-" ^ name) Blsm.Compaction_policy.named

let all_names =
  [ "blsm"; "blsm-gear"; "blsm-naive"; "partitioned"; "btree"; "leveldb" ]
  @ policy_names

let caps_of_name name =
  if name = "btree" then Some caps_baseline
  else if List.mem name all_names then Some caps_lsm
  else None

(** [make name ~seed] is a fresh-engine factory, or [None] for an
    unknown driver name. *)
let make name ~seed =
  match name with
  | "blsm" -> Some (fun () -> blsm ~name ~seed ())
  | "blsm-gear" ->
      Some (fun () -> blsm ~scheduler:Blsm.Config.Gear ~name ~seed ())
  | "blsm-naive" ->
      Some (fun () -> blsm ~scheduler:Blsm.Config.Naive ~name ~seed ())
  | "partitioned" -> Some (partitioned ~seed)
  | "btree" -> Some (btree ~seed)
  | "leveldb" -> Some (leveldb ~seed)
  | _ when List.mem name policy_names ->
      let policy_name =
        String.sub name 7 (String.length name - 7) (* strip "policy-" *)
      in
      Some (policy_tree ~policy_name ~seed)
  | _ -> None

let make_exn name ~seed =
  match make name ~seed with
  | Some f -> f
  | None ->
      invalid_arg
        (Printf.sprintf "Dst.Driver: unknown driver %S (known: %s)" name
           (String.concat ", " all_names))
