(** Engine drivers: the uniform record the DST interpreter executes
    plans against.

    A driver wraps one engine instance — bLSM {!Blsm.Tree} under any
    scheduler, {!Blsm.Partitioned}, the B-Tree and LevelDB baselines, or
    a replication primary/follower pair — behind first-class fields for
    the whole exercised surface, with optional hooks ([option] fields)
    for capabilities that vary by engine: crash/recovery, OCC
    transactions, replication catch-up, scrubbing, op-counter
    introspection, stall attribution.

    Constructors are [unit -> t] factories: the shrinker builds a fresh
    engine per candidate plan, and determinism comes from everything —
    store, tree config, fault PRNG — being seeded from the plan seed. *)

(** Handle for one open OCC transaction. *)
type txn_handle = {
  tx_get : string -> string option;
  tx_put : string -> string -> unit;
  tx_delete : string -> unit;
  tx_rmw : string -> string -> unit;  (** append suffix *)
  tx_commit : unit -> [ `Committed | `Conflict ];
}

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
      (** atomic iff [caps.c_batch_atomic]; emulated per-item otherwise *)
  maintenance : unit -> unit;
  flush : (unit -> unit) option;
  crash_recover : (unit -> unit) option;
      (** power-fail the (primary) store and recover in place *)
  begin_txn : (unit -> txn_handle) option;
  catch_up : (unit -> [ `Applied of int | `Resynced | `Unreachable ]) option;
      (** [`Unreachable]: the supervisor's retry budget ran dry (e.g.
          partitioned link) — converge again after the fault heals *)
  failover : (unit -> unit) option;
      (** promote the follower to primary; demote the deposed primary
          to follower at its old epoch *)
  follower_scan : (unit -> (string * string) list) option;
      (** full logical state of the follower (position key excluded);
          harness-side omniscient view, bypasses staleness shedding *)
  follower_get : (string -> [ `Ok of string option | `Too_stale ]) option;
      (** client-facing bounded-staleness read on the follower *)
  follower_stale : (unit -> bool) option;
      (** would the follower shed reads right now? *)
  fenced_rejects : (unit -> int) option;
      (** primary-side count of stale-epoch requests refused *)
  crash_follower : (unit -> unit) option;
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
  faults : Simdisk.Faults.t;  (** (primary) store's fault plan *)
  follower_faults : Simdisk.Faults.t option;
  net : (Simnet.t * string * string) option;
      (** the simulated network and the two node names, for arming
          link faults and advancing simulated time *)
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
    snowshovel = scheduler <> Blsm.Config.Gear;
    max_quota_per_write = 128 * 1024;
    seed;
  }

let append_rmw suffix = fun v -> Option.value v ~default:"" ^ suffix

let tree_txn tree () =
  let tx = Blsm.Txn.begin_txn tree in
  {
    tx_get = (fun k -> Blsm.Txn.get tx k);
    tx_put = (fun k v -> Blsm.Txn.put tx k v);
    tx_delete = (fun k -> Blsm.Txn.delete tx k);
    tx_rmw =
      (fun k s -> Blsm.Txn.read_modify_write tx k (append_rmw s));
    tx_commit =
      (fun () ->
        match Blsm.Txn.commit tx with
        | `Committed -> `Committed
        | `Conflict _ -> `Conflict);
  }

(* ------------------------------------------------------------------ *)
(* Capability table (static: generation needs caps before any engine
   instance exists) *)

let caps_tree =
  {
    Plan.c_crash = true;
    c_txn = true;
    c_follower = false;
    c_scrub = true;
    c_batch_atomic = true;
  }

let caps_partitioned = { caps_tree with Plan.c_txn = false }
let caps_replicated = { caps_tree with Plan.c_follower = true }
let caps_policy = { caps_tree with Plan.c_txn = false }

let caps_baseline =
  {
    Plan.c_crash = false;
    c_txn = false;
    c_follower = false;
    c_scrub = false;
    c_batch_atomic = false;
  }

(* ------------------------------------------------------------------ *)
(* Constructors *)

(* A driver over one bLSM tree; [tree] follows recoveries (and, for the
   replication pair, failovers). *)
let tree_driver ~name ~caps ~faults tree =
  {
    name;
    caps;
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
    begin_txn = Some (fun () -> tree_txn !tree ());
    catch_up = None;
    failover = None;
    follower_scan = None;
    follower_get = None;
    follower_stale = None;
    fenced_rejects = None;
    crash_follower = None;
    scrub = Some (fun () -> [ Blsm.Tree.scrub !tree ]);
    counts = Some (fun () -> [ Blsm.Tree.stats !tree ]);
    mask_scans = false;
    last_stall = Some (fun () -> Blsm.Tree.last_stall !tree);
    metrics_dump = (fun () -> Obs.Metrics.dump (Blsm.Tree.metrics !tree));
    faults;
    follower_faults = None;
    net = None;
  }

let blsm ?(scheduler = Blsm.Config.Spring) ~name ~seed () =
  let store, faults = mk_store ~fault_seed:seed () in
  tree_driver ~name ~caps:caps_tree ~faults
    (ref (Blsm.Tree.create ~config:(small_config ~scheduler seed) store))

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
    caps = caps_partitioned;
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
    begin_txn = None;
    catch_up = None;
    failover = None;
    follower_scan = None;
    follower_get = None;
    follower_stale = None;
    fenced_rejects = None;
    crash_follower = None;
    scrub = Some (fun () -> Blsm.Partitioned.scrub !pt);
    counts =
      Some (fun () -> Array.to_list (Blsm.Partitioned.partition_stats !pt));
    mask_scans = true;
    last_stall = None;
    metrics_dump = (fun () -> Obs.Metrics.dump (Blsm.Partitioned.metrics !pt));
    faults;
    follower_faults = None;
    net = None;
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
    begin_txn = None;
    catch_up = None;
    failover = None;
    follower_scan = None;
    follower_get = None;
    follower_stale = None;
    fenced_rejects = None;
    crash_follower = None;
    scrub = None;
    counts = None;
    mask_scans = true;
    last_stall = None;
    metrics_dump = (fun () -> "");
    faults;
    follower_faults = None;
    net = None;
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
    caps = caps_policy;
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
    begin_txn = None;
    catch_up = None;
    failover = None;
    follower_scan = None;
    follower_get = None;
    follower_stale = None;
    fenced_rejects = None;
    crash_follower = None;
    scrub = Some (fun () -> [ Blsm.Policy_tree.scrub !pt ]);
    counts = Some (fun () -> [ Blsm.Policy_tree.stats !pt ]);
    mask_scans = false;
    last_stall = Some (fun () -> Blsm.Policy_tree.last_stall !pt);
    metrics_dump = (fun () -> Obs.Metrics.dump (Blsm.Policy_tree.metrics !pt));
    faults;
    follower_faults = None;
    net = None;
  }

let policy_tree ~policy_name ~seed () =
  let policy =
    match Blsm.Compaction_policy.of_name policy_name with
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
    ~policy:(Blsm.Compaction_policy.leveldb_seed ())
    ~seed ()

(* DST shape for the replication supervisor: timeouts and backoff small
   against the per-step clock tick, staleness bound tight enough that a
   partitioned follower goes stale within a plan. *)
let small_repl =
  {
    Blsm.Config.req_timeout_us = 5_000;
    backoff_base_us = 1_000;
    backoff_cap_us = 8_000;
    backoff_jitter = 0.25;
    max_attempts = 6;
    batch_records = 16;
    chunk_rows = 64;
    max_lag_records = 48;
    staleness_lease_us = 50_000;
  }

let replicated ~seed () =
  let pstore, faults = mk_store ~fault_seed:seed () in
  let fstore, follower_faults = mk_store ~fault_seed:(seed + 7919) () in
  let config = { (small_config seed) with Blsm.Config.repl = small_repl } in
  let net =
    Simnet.create ~seed:(seed + 104729) ~base_latency_us:100 ~jitter_us:50 ()
  in
  let node_a = "node-a" and node_b = "node-b" in
  (* [ptree]/[fol] track the current primary tree / follower, wherever
     they live; [a_is_primary] says which node holds which role. Disk
     fault plans stay per-node: [faults] is node A's store,
     [follower_faults] node B's. *)
  let ptree = ref (Blsm.Tree.create ~config pstore) in
  let server = Blsm.Repl_server.create !ptree in
  Blsm.Repl_server.attach server (Simnet.endpoint net node_a);
  let fol =
    ref (Blsm.Replication.follower ~config ~net ~name:node_b ~peer:node_a fstore)
  in
  let a_is_primary = ref true in
  let recover_primary () =
    ptree := Blsm.Tree.crash_and_recover ~verify:true !ptree;
    Blsm.Repl_server.set_tree server !ptree
  in
  let failover () =
    let deposed_epoch = Blsm.Repl_server.epoch server in
    let old_primary = !ptree in
    let old_name = if !a_is_primary then node_a else node_b in
    let new_name = if !a_is_primary then node_b else node_a in
    let new_epoch = Blsm.Replication.epoch !fol + 1 in
    ptree := Blsm.Replication.promote !fol;
    Simnet.clear_handler (Simnet.endpoint net old_name);
    Blsm.Repl_server.set_tree server !ptree;
    Blsm.Repl_server.set_epoch server new_epoch;
    Blsm.Repl_server.attach server (Simnet.endpoint net new_name);
    fol :=
      Blsm.Replication.demote ~config ~net ~name:old_name ~peer:new_name
        ~epoch:deposed_epoch old_primary;
    a_is_primary := not !a_is_primary
  in
  (* One metrics registry for the pair's network-visible state; thunked
     reads survive follower/tree replacement. *)
  let netreg = Obs.Metrics.create () in
  Simnet.register_metrics netreg net;
  Blsm.Repl_server.register_metrics netreg server;
  Blsm.Replication.register_metrics netreg (fun () -> !fol);
  {
    (tree_driver ~name:"replicated" ~caps:caps_replicated ~faults ptree) with
    scan =
      (* clamp to "\001": a promoted primary's tree carries its
         follower-era "\000…" bookkeeping keys, which must never
         surface in user scans *)
      (fun start n ->
        let from =
          if String.compare start "\001" < 0 then "\001" else start
        in
        Blsm.Tree.scan !ptree from n);
    (* Crash_recover always power-fails node A, whatever its current
       role (its store owns [faults], so injected crash points land
       there); Crash_follower is node B, symmetrically. *)
    crash_recover =
      Some
        (fun () ->
          if !a_is_primary then recover_primary ()
          else fol := Blsm.Replication.crash_and_recover !fol);
    catch_up = Some (fun () -> Blsm.Replication.sync !fol);
    failover = Some failover;
    follower_scan =
      (* from "\001": skips the reserved "\000…" bookkeeping keys *)
      Some
        (fun () ->
          Blsm.Tree.scan (Blsm.Replication.tree !fol) "\001" 1_000_000);
    follower_get = Some (fun k -> Blsm.Replication.read !fol k);
    follower_stale = Some (fun () -> Blsm.Replication.is_stale !fol);
    fenced_rejects =
      Some (fun () -> (Blsm.Repl_server.counters server).fenced_rejects);
    crash_follower =
      Some
        (fun () ->
          if !a_is_primary then fol := Blsm.Replication.crash_and_recover !fol
          else recover_primary ());
    (* resync scans the primary through a cursor; a follower crash midway
       leaves that bump untracked, so the scans counter is unreliable *)
    mask_scans = true;
    metrics_dump =
      (fun () ->
        Obs.Metrics.dump (Blsm.Tree.metrics !ptree) ^ Obs.Metrics.dump netreg);
    follower_faults = Some follower_faults;
    net = Some (net, node_a, node_b);
  }

(* ------------------------------------------------------------------ *)
(* Factory *)

let policy_names =
  [ "policy-tiered"; "policy-leveled"; "policy-lazy-leveled"; "policy-partial" ]

let all_names =
  [ "blsm"; "blsm-gear"; "blsm-naive"; "partitioned"; "btree"; "leveldb";
    "replicated" ]
  @ policy_names

let caps_of_name name =
  match name with
  | "blsm" | "blsm-gear" | "blsm-naive" -> Some caps_tree
  | "partitioned" -> Some caps_partitioned
  | "btree" -> Some caps_baseline
  | "replicated" -> Some caps_replicated
  | _ ->
      if name = "leveldb" || List.mem name policy_names then Some caps_policy
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
  | "replicated" -> Some (replicated ~seed)
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
