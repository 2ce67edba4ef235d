type access_rule = {
  restricted : string list;
  allowed_dirs : string list;
  why : string;
}

type boundary = {
  bd_func : string;
  bd_allowed : string list;
  bd_why : string;
}

type t = {
  scan_dirs : string list;
  access_matrix : access_rule list;
  mli_required_dirs : string list;
  mli_exempt_suffixes : string list;
  mli_exempt_modules : string list;
  (* --- interprocedural effect analysis (v2) --- *)
  nondet_sources : (string * string) list;
  io_sources : string list;
  stall_sources : string list;
  library_wrappers : (string * string) list;
  engine_surface_modules : string list;
  boundaries : boundary list;
  critical_sections : (string * string) list;
  dead_export_dirs : string list;
  dead_export_ref_dirs : string list;
  externals_allowed : (string * string) list;
}

(* The module-access matrix behind rule A001.  Each entry names module
   paths that are implementation details of the simulated-I/O stack and
   the directories that may legitimately reference them; every byte of
   I/O outside those directories has to flow through the Simdisk.Disk
   API so the paper's seek/bandwidth accounting stays honest. *)
let default_access_matrix =
  [
    {
      restricted = [ "Platter"; "Pagestore.Platter" ];
      allowed_dirs = [ "lib/pagestore"; "lib/simdisk" ];
      why =
        "platter internals bypass Simdisk.Disk accounting; only the \
         pagestore/simdisk layers may touch them";
    };
    {
      restricted = [ "Unix" ];
      allowed_dirs = [ "bench"; "bin"; "tools" ];
      why =
        "real-OS syscalls bypass the simulated disk and clock; lib/ \
         must stay simulation-pure";
    };
  ]

(* Rule D001 (and the nondet effect bit of D003): same-seed runs must be
   byte-identical, so these may never be called — directly or, for
   D003, transitively from an engine op. *)
let default_nondet_sources =
  [
    ("Random.self_init", "seeds from the environment");
    ("Random.State.make_self_init", "seeds from the environment");
    ("Random.int", "draws from the hidden global PRNG state");
    ("Random.full_int", "draws from the hidden global PRNG state");
    ("Random.bits", "draws from the hidden global PRNG state");
    ("Random.bits32", "draws from the hidden global PRNG state");
    ("Random.bits64", "draws from the hidden global PRNG state");
    ("Random.int32", "draws from the hidden global PRNG state");
    ("Random.int64", "draws from the hidden global PRNG state");
    ("Random.nativeint", "draws from the hidden global PRNG state");
    ("Random.float", "draws from the hidden global PRNG state");
    ("Random.bool", "draws from the hidden global PRNG state");
    ("Unix.gettimeofday", "reads the wall clock");
    ("Unix.time", "reads the wall clock");
    ("Sys.time", "reads the process clock");
    ("Hashtbl.hash", "is seed- and layout-dependent; never hash keys with it");
    ("Hashtbl.seeded_hash", "is seed-dependent; never hash keys with it");
    ("Hashtbl.hash_param", "is seed- and layout-dependent");
  ]

(* The io effect bit: module prefixes whose use means "this function
   touches raw platter bytes or the real OS". *)
let default_io_sources = [ "Platter"; "Pagestore.Platter"; "Unix" ]

(* The stall effect bit: reaching any of these means the function can
   charge merge-work quanta to the caller (pacing).  Rule Y001 forbids
   that inside manifest-commit / WAL-append critical sections. *)
let default_stall_sources =
  [ "Scheduler.spring_quota" ]

(* dune library wrapper modules: a reference to [Blsm.Tree.put] is the
   same function as [Tree.put] seen from inside lib/core.  The directory
   disambiguates module-name collisions (two units may both be called
   Config). *)
let default_library_wrappers =
  [
    ("Blsm", "lib/core");
    ("Pagestore", "lib/pagestore");
    ("Simdisk", "lib/simdisk");
    ("Obs", "lib/obs");
    ("Repro_util", "lib/util");
    ("Dst", "lib/dst");
    ("Kv", "lib/kv");
    ("Bloom", "lib/bloom");
    ("Memtable", "lib/memtable");
    ("Sstable", "lib/sstable");
    ("Btree_baseline", "lib/btree");
    ("Ycsb", "lib/ycsb");
    ("Lint", "lib/lint");
  ]

(* Rule D003: every .mli-exported value of these modules is an engine op
   clients call; none may transitively reach a nondeterminism source. *)
let default_engine_surface_modules =
  [ "Tree"; "Partitioned"; "Policy_tree"; "Btree" ]

(* Rule E001: protocol boundaries and the exceptions allowed to cross
   them.  Anything else leaking is an internal exception crossing a
   protocol edge where a protocol answer belongs. *)
let default_boundaries =
  [
    {
      bd_func = "Driver.make_exn";
      bd_allowed =
        [
          "Crash_point";
          "Corruption";
          "Corrupt";
          "Invalid_argument";
          "Failure";
          "Not_found";
        ];
      bd_why =
        "DST driver ops may surface only the interpreter-contract \
         exceptions (simulated crash, typed corruption, and the stdlib \
         defensive trio)";
    };
  ]

(* Rule Y001: critical sections that must never charge pacing quanta —
   the pre-condition for making merge a cooperating task (ROADMAP 2).
   A stall inside manifest-commit or WAL-append is unattributable
   blocking in exactly the place LSM tail latency dies. *)
let default_critical_sections =
  [
    ("Wal.append", "WAL-append critical section");
    ("Wal.append_with", "WAL-append critical section");
    (* the frame's payload is written by [Lsm_shell.write_ops], which
       [Wal.append_with] calls through a parameter the call graph cannot
       follow: the shell's append names it *)
    ("Lsm_shell.append_ops", "WAL frame-write critical section");
    ("Wal.sync", "WAL group-commit critical section");
    ("Lsm_shell.commit_manifest", "manifest-commit critical section");
    ("Store.commit_root", "root-commit critical section");
  ]

(* Rule F001: the effect analysis stops at an [external] — it cannot
   see into C — so a foreign function is only admissible once someone
   has vetted it against every effect bit.  Compilation units (wrapper
   path) whose [external]s are vetted, each with the reason. *)
let default_externals_allowed =
  [
    ( "Repro_util.Crc32c",
      "pure, non-allocating, no I/O: the CRC32C kernel reads only the \
       OCaml-bounds-checked slice it is handed" );
  ]

let default =
  {
    scan_dirs = [ "lib"; "bin"; "bench"; "tools" ];
    access_matrix = default_access_matrix;
    mli_required_dirs = [ "lib" ];
    mli_exempt_suffixes = [ "_intf" ];
    mli_exempt_modules = [];
    nondet_sources = default_nondet_sources;
    io_sources = default_io_sources;
    stall_sources = default_stall_sources;
    library_wrappers = default_library_wrappers;
    engine_surface_modules = default_engine_surface_modules;
    boundaries = default_boundaries;
    critical_sections = default_critical_sections;
    dead_export_dirs = [ "lib" ];
    dead_export_ref_dirs = [ "lib"; "bin"; "bench"; "tools"; "test"; "examples" ];
    externals_allowed = default_externals_allowed;
  }
