(* Tests for blsm-lint (lib/lint): every rule has at least one failing
   and one passing fixture in test/lint_fixtures/, and the two
   suppression mechanisms — scoped [@lint.allow] attributes and the
   checked-in baseline — are exercised end to end. *)

let check = Alcotest.check

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Lint a fixture file under a chosen logical path: the path's directory
   is what rule A001 judges, so the same fixture can be tested from
   inside and outside an allowed directory. *)
let lint ~path fixture =
  Lint.Rules.lint_source ~config:Lint.Config.default ~path
    (read_file (Filename.concat "lint_fixtures" fixture))

let rules_of findings = List.map (fun f -> f.Lint.Finding.rule) findings

let slist = Alcotest.(list string)

(* ------------------------------------------------------------------ *)
(* Per-rule fixtures *)

let test_d001_bad () =
  check slist "five nondeterminism sources"
    [ "D001"; "D001"; "D001"; "D001"; "D001" ]
    (rules_of (lint ~path:"bench/d001_bad.ml" "d001_bad.ml"))

let test_d001_ok () =
  check slist "seeded PRNGs pass" []
    (rules_of (lint ~path:"bench/d001_ok.ml" "d001_ok.ml"))

let test_d002_bad () =
  check slist "iter and fold both flagged" [ "D002"; "D002" ]
    (rules_of (lint ~path:"lib/util/d002_bad.ml" "d002_bad.ml"))

let test_d002_ok () =
  check slist "sorted-keys probe passes" []
    (rules_of (lint ~path:"lib/util/d002_ok.ml" "d002_ok.ml"))

let test_c001_bad () =
  check slist "bare compare, lambda compare, poly operator"
    [ "C001"; "C001"; "C001" ]
    (rules_of (lint ~path:"lib/core/c001_bad.ml" "c001_bad.ml"))

let test_c001_ok () =
  check slist "monomorphic comparators pass" []
    (rules_of (lint ~path:"lib/core/c001_ok.ml" "c001_ok.ml"))

let test_c002_bad () =
  check slist "try-catch-all and match-exception-catch-all"
    [ "C002"; "C002" ]
    (rules_of (lint ~path:"lib/core/c002_bad.ml" "c002_bad.ml"))

let test_c002_ok () =
  check slist "explicit exceptions and bind+reraise pass" []
    (rules_of (lint ~path:"lib/core/c002_ok.ml" "c002_ok.ml"))

let test_a001_bad () =
  check slist "platter internals from lib/memtable: expr, qualified, type"
    [ "A001"; "A001"; "A001" ]
    (rules_of (lint ~path:"lib/memtable/a001_bad.ml" "a001_bad.ml"))

let test_a001_allowed_dir () =
  check slist "same references are legal inside lib/pagestore" []
    (rules_of (lint ~path:"lib/pagestore/a001_bad.ml" "a001_bad.ml"))

let test_a001_ok () =
  check slist "the public Simdisk.Disk API is open to everyone" []
    (rules_of (lint ~path:"lib/core/a001_ok.ml" "a001_ok.ml"))

let test_f001_bad () =
  check slist "top-level and nested-signature externals" [ "F001"; "F001" ]
    (rules_of (lint ~path:"lib/core/f001_bad.ml" "f001_bad.ml"))

let test_f001_interface () =
  check slist "an external re-exported from an .mli is flagged too"
    [ "F001" ]
    (rules_of
       (Lint.Rules.lint_source ~config:Lint.Config.default
          ~path:"lib/obs/clock.mli"
          "external now_ns : unit -> int = \"fixture_now_ns\"\n"))

let test_f001_allowlisted () =
  check slist "the vetted unit may declare externals" []
    (rules_of (lint ~path:"lib/util/crc32c.ml" "f001_bad.ml"));
  check slist "same module name, other library: not vetted"
    [ "F001"; "F001" ]
    (rules_of (lint ~path:"lib/core/crc32c.ml" "f001_bad.ml"));
  check slist "the allowlist starts with the CRC32C kernel only"
    [ "Repro_util.Crc32c" ]
    (List.map fst Lint.Config.default.Lint.Config.externals_allowed)

let test_f001_ok () =
  check slist "no foreign code, no finding" []
    (rules_of (lint ~path:"lib/core/f001_ok.ml" "f001_ok.ml"))

let test_p000 () =
  check slist "garbage does not parse" [ "P000" ]
    (rules_of (lint ~path:"lib/core/p000_bad.ml" "p000_bad.ml"))

(* ------------------------------------------------------------------ *)
(* Suppression: [@lint.allow] attributes *)

let test_suppress_attr () =
  check slist
    "expression, binding and floating allows silence their subtrees" []
    (rules_of (lint ~path:"bench/suppress_attr.ml" "suppress_attr.ml"))

let test_suppress_scope () =
  let fs = lint ~path:"bench/suppress_scope.ml" "suppress_scope.ml" in
  check slist "allow does not leak past its expression" [ "D001" ]
    (rules_of fs);
  check Alcotest.int "the unsuppressed site is the second binding" 4
    (List.hd fs).Lint.Finding.line

let test_suppress_wrong_rule () =
  (* an allow for a different rule must not silence anything *)
  let fs =
    Lint.Rules.lint_source ~config:Lint.Config.default
      ~path:"bench/inline.ml"
      "let now () = (Unix.gettimeofday [@lint.allow \"C001\"]) ()\n"
  in
  check slist "C001 allow does not cover D001" [ "D001" ] (rules_of fs)

let test_malformed_allow () =
  let fs =
    Lint.Rules.lint_source ~config:Lint.Config.default
      ~path:"bench/inline.ml"
      "let now () = (Unix.gettimeofday [@lint.allow 42]) ()\n"
  in
  check slist "malformed payload: L000 plus the undimmed D001"
    [ "D001"; "L000" ]
    (List.sort String.compare (rules_of fs))

(* ------------------------------------------------------------------ *)
(* Baseline mechanism *)

let test_baseline_filter () =
  let fs = lint ~path:"lib/core/c002_bad.ml" "c002_bad.ml" in
  check Alcotest.int "two findings to play with" 2 (List.length fs);
  let keys = List.map Lint.Finding.baseline_key fs in
  check Alcotest.int "full baseline absorbs everything" 0
    (List.length (Lint.Baseline.filter ~baseline:keys fs));
  check Alcotest.int "partial baseline leaves the rest" 1
    (List.length
       (Lint.Baseline.filter ~baseline:[ List.hd keys ] fs))

let test_baseline_is_multiset () =
  let f =
    Lint.Finding.make ~file:"x.ml" ~line:3 ~col:0 ~rule:"C002" "boom"
  in
  let dup =
    Lint.Baseline.filter
      ~baseline:[ Lint.Finding.baseline_key f ]
      [ f; { f with Lint.Finding.line = 9 } ]
  in
  check Alcotest.int
    "one baseline line absorbs exactly one identical finding" 1
    (List.length dup)

let test_baseline_roundtrip () =
  let fs = lint ~path:"lib/core/c002_bad.ml" "c002_bad.ml" in
  let path = Filename.temp_file "blsm_lint" ".baseline" in
  Lint.Baseline.save path fs;
  let keys = Lint.Baseline.load path in
  Sys.remove path;
  check Alcotest.int "comments stripped, one key per finding"
    (List.length fs) (List.length keys);
  check Alcotest.int "reloaded baseline absorbs the findings" 0
    (List.length (Lint.Baseline.filter ~baseline:keys fs))

let test_baseline_missing_file () =
  check Alcotest.int "missing baseline file is empty, not an error" 0
    (List.length (Lint.Baseline.load "lint_fixtures/no_such_baseline"))

(* ------------------------------------------------------------------ *)
(* S001 and the runner *)

let test_s001_tree () =
  (* the fixture tree holds none of the repo's boundary / critical-section
     functions, so those entries would only be stale config (L001) here *)
  let config =
    { Lint.Config.default with boundaries = []; critical_sections = [] }
  in
  let fs =
    Lint.Runner.run ~config ~root:"lint_fixtures/s001_tree" [ "lib" ]
  in
  check slist "exactly the interface-less module is flagged" [ "S001" ]
    (rules_of fs);
  check Alcotest.string "and it is the right module" "lib/nodoc/widget.ml"
    (List.hd fs).Lint.Finding.file

(* The compaction-policy layer (ISSUE 9) must stay behind the same
   walls as the rest of lib/core: Platter access is pagestore/simdisk
   business (A001), and every policy module ships an interface (S001).
   These pin the *config* — the whole-tree `@lint` alias enforces the
   actual sources — so carving an exemption for the policy modules
   fails a test, not just a review. *)

let policy_modules =
  [ "lib/core/compaction_policy.ml"; "lib/core/policy_tree.ml" ]

let test_policy_platter_walled () =
  List.iter
    (fun path ->
      check slist
        (path ^ ": Platter references are flagged")
        [ "A001"; "A001"; "A001" ]
        (rules_of (lint ~path "a001_bad.ml")))
    policy_modules

let test_policy_mli_required () =
  (* without interfaces: one S001 per policy module *)
  check Alcotest.int "policy modules without .mli are flagged"
    (List.length policy_modules)
    (List.length
       (Lint.Runner.mli_findings ~config:Lint.Config.default policy_modules));
  (* with their .mli siblings present the set is clean *)
  check slist "with interfaces present, clean" []
    (rules_of
       (Lint.Runner.mli_findings ~config:Lint.Config.default
          (policy_modules
          @ List.map
              (fun f -> Filename.remove_extension f ^ ".mli")
              policy_modules)))

let test_finding_format () =
  let f =
    Lint.Finding.make ~file:"lib/x/y.ml" ~line:7 ~col:2 ~rule:"C001" "msg"
  in
  check Alcotest.string "file:line: [RULE] message"
    "lib/x/y.ml:7: [C001] msg"
    (Lint.Finding.to_string f)

(* ------------------------------------------------------------------ *)
(* Interprocedural analysis (v2): the Extract -> Callgraph -> Interproc
   pipeline driven through Runner.analyze on in-memory units.  Paths
   matter: lib/ interfaces get U001 treatment, unit module names come
   from the file name, and the boundary / engine-surface / critical-
   section config keys match against the derived qualified names. *)

let analyze ?ref_sources srcs =
  Lint.Runner.analyze ~config:Lint.Config.default ?ref_sources srcs

let only rule findings =
  List.filter (fun f -> String.equal f.Lint.Finding.rule rule) findings

let contains ~sub s =
  let n = String.length sub and len = String.length s in
  let rec go i =
    i + n <= len && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

let assert_one_msg name ~sub = function
  | [ f ] ->
      if not (contains ~sub f.Lint.Finding.msg) then
        Alcotest.failf "%s: message %S lacks %S" name f.Lint.Finding.msg sub
  | fs ->
      Alcotest.failf "%s: expected exactly one finding, got %d" name
        (List.length fs)

(* --- D003: engine-surface nondeterminism taint --- *)

let d003_units ~tainted ~allow =
  [
    ( "lib/core/rng_util.ml",
      "let pick n = (Random.int [@lint.allow \"D001\"]) n\n\
       let safe n = n + 1\n" );
    ("lib/core/rng_util.mli", "val pick : int -> int\nval safe : int -> int\n");
    ( "lib/core/tree.ml",
      if tainted then
        "let put k = Rng_util.pick k\nlet get k = Rng_util.safe k\n"
      else "let put k = Rng_util.safe k\nlet get k = Rng_util.safe k\n" );
    ( "lib/core/tree.mli",
      if allow then
        "val put : int -> int [@@lint.allow \"D003\"]\nval get : int -> int\n"
      else "val put : int -> int\nval get : int -> int\n" );
  ]

let test_d003_fires () =
  let fs, _ = analyze (d003_units ~tainted:true ~allow:false) in
  assert_one_msg "D003 names the tainted op" ~sub:"Tree.put" (only "D003" fs);
  assert_one_msg "witness reaches the source" ~sub:"Random.int"
    (only "D003" fs)

let test_d003_clean () =
  let fs, _ = analyze (d003_units ~tainted:false ~allow:false) in
  check Alcotest.int "untainted surface is clean" 0
    (List.length (only "D003" fs))

let test_d003_export_allow () =
  let fs, _ = analyze (d003_units ~tainted:true ~allow:true) in
  check Alcotest.int "allow on the .mli export silences D003" 0
    (List.length (only "D003" fs))

(* --- E001: exception escape across protocol boundaries --- *)

(* The boundary is the DST driver factory, [Driver.make_exn]. [Not_found]
   is in its allowance, so the cases that must fire raise [Exit]. *)
let driver body = [ ("lib/dst/driver.ml", body) ]

let test_e001_fires () =
  let fs, _ = analyze (driver "let make_exn ep = if ep then raise Exit else 0\n") in
  assert_one_msg "an undeclared raise escapes the boundary" ~sub:"Exit"
    (only "E001" fs)

let test_e001_allowed_exns () =
  let fs, _ =
    analyze
      (driver
         "let make_exn ep =\n\
         \  if ep then failwith \"wedged\" else invalid_arg \"ep\"\n")
  in
  check Alcotest.int "declared crossings do not fire" 0
    (List.length (only "E001" fs))

let test_e001_try_mask () =
  let fs, _ =
    analyze
      (driver
         "let make_exn ep = try if ep then raise Exit else 0 with Exit -> 1\n")
  in
  check Alcotest.int "try/with masks the named exception" 0
    (List.length (only "E001" fs))

let test_e001_match_exception_scrutinee_only () =
  (* the sstable-reader bug shape: [match e with exception P] masks only
     the scrutinee; a raiser in the success branch still escapes *)
  let fs, _ =
    analyze
      (driver
         "let second ep = if ep then raise Exit else 1\n\
          let make_exn ep =\n\
         \  match (if ep then raise Exit else 2) with\n\
         \  | exception Exit -> 0\n\
         \  | v -> v + second ep\n")
  in
  assert_one_msg "success branch is not masked"
    ~sub:"Driver.make_exn -> Driver.second" (only "E001" fs)

let test_e001_rethrow_transparent () =
  let fs, _ =
    analyze
      (driver
         "let make_exn ep =\n\
         \  try if ep then raise Exit else 0 with e -> ignore ep; raise e\n")
  in
  assert_one_msg "observe-and-rethrow does not absorb" ~sub:"Exit"
    (only "E001" fs)

let test_e001_catch_all_absorbs () =
  let fs, _ =
    analyze (driver "let make_exn ep = try if ep then raise Exit else 0 with _ -> 1\n")
  in
  check Alcotest.int "catch-all masks everything (C002's beat, not E001's)" 0
    (List.length (only "E001" fs))

(* --- C003: transitive comparator purity --- *)

let c003_units ~pure ~allow =
  [
    ( "lib/util/cmpx.ml",
      "let hits = ref 0\n\
       let counting a b = incr hits; String.compare a b\n\
       let clean a b = String.compare a b\n" );
    ( "lib/core/sorty.ml",
      if pure then "let sort l = List.sort Cmpx.clean l\n"
      else if allow then
        "let sort l = List.sort (Cmpx.counting [@lint.allow \"C003\"]) l\n"
      else "let sort l = List.sort Cmpx.counting l\n" );
  ]

let test_c003_fires () =
  let fs, _ = analyze (c003_units ~pure:false ~allow:false) in
  assert_one_msg "counting comparator is impure" ~sub:"mutates escaping state"
    (only "C003" fs)

let test_c003_pure_clean () =
  let fs, _ = analyze (c003_units ~pure:true ~allow:false) in
  check Alcotest.int "a pure named comparator passes" 0
    (List.length (only "C003" fs))

let test_c003_site_allow () =
  let fs, _ = analyze (c003_units ~pure:false ~allow:true) in
  check Alcotest.int "allow at the use site silences C003" 0
    (List.length (only "C003" fs))

(* --- Y001: stall-effect layering --- *)

let y001_units ~inside ~allow =
  [
    ( "lib/pagestore/wal.ml",
      if not inside then
        "let append x = x\nlet maintain () = Scheduler.spring_quota ()\n"
      else if allow then
        "let pace () = Scheduler.spring_quota ()\n\
         let append x = pace (); x [@@lint.allow \"Y001\"]\n"
      else
        "let pace () = Scheduler.spring_quota ()\nlet append x = pace (); x\n"
    );
  ]

let test_y001_fires () =
  let fs, _ = analyze (y001_units ~inside:true ~allow:false) in
  assert_one_msg "pacing reached from inside WAL append"
    ~sub:"Scheduler.spring_quota" (only "Y001" fs);
  assert_one_msg "names the critical section" ~sub:"WAL-append"
    (only "Y001" fs)

let test_y001_outside_clean () =
  let fs, _ = analyze (y001_units ~inside:false ~allow:false) in
  check Alcotest.int "pacing outside the critical section is the design" 0
    (List.length (only "Y001" fs))

let test_y001_binding_allow () =
  let fs, _ = analyze (y001_units ~inside:true ~allow:true) in
  check Alcotest.int "allow on the binding silences Y001" 0
    (List.length (only "Y001" fs))

(* The WAL frame is filled by the shell's batch writer, which the log
   calls through a parameter: the critical section that covers the
   frame write is the shell's [append_ops], which names the writer. *)
let y001_frame_units ~pace =
  [
    ( "lib/pagestore/wal.ml",
      "let append_with t ~len write x = ignore (t, len); write x ()\n" );
    ( "lib/core/lsm_shell.ml",
      (if pace then
         "let pace () = Scheduler.spring_quota ()\n\
          let write_ops ops b = pace (); ignore (ops, b)\n"
       else "let write_ops ops b = ignore (ops, b)\n")
      ^ "let append_ops wal ops = Pagestore.Wal.append_with wal ~len:0 write_ops ops\n" );
  ]

let test_y001_frame_write () =
  let fs, _ = analyze (y001_frame_units ~pace:true) in
  assert_one_msg "pacing inside the frame writer" ~sub:"Lsm_shell.append_ops"
    (only "Y001" fs);
  assert_one_msg "names the frame write" ~sub:"WAL frame-write" (only "Y001" fs);
  let fs, _ = analyze (y001_frame_units ~pace:false) in
  check Alcotest.int "a writer that never paces is clean" 0
    (List.length (only "Y001" fs))

(* --- L001: stale config --- *)

let test_l001_stale_entries () =
  let config =
    {
      Lint.Config.default with
      boundaries =
        [ { Lint.Config.bd_func = "Driver.vanished"; bd_allowed = []; bd_why = "" } ];
      critical_sections =
        [ ("Wal.append", "WAL-append critical section");
          ("Tree.moved_away", "manifest-commit critical section") ];
    }
  in
  let fs, _ =
    Lint.Runner.analyze ~config (y001_units ~inside:false ~allow:false)
  in
  let msgs = List.map (fun f -> f.Lint.Finding.msg) (only "L001" fs) in
  check Alcotest.int "one finding per unresolved entry" 2 (List.length msgs);
  List.iter
    (fun sub ->
      if not (List.exists (contains ~sub) msgs) then
        Alcotest.failf "no L001 finding names %s" sub)
    [ "E001 boundary Driver.vanished"; "Y001 critical section Tree.moved_away" ]

(* --- U001: dead exports --- *)

let u001_units =
  [
    ("lib/util/thing.ml", "let used x = x\nlet dead x = x\nlet kept x = x\n");
    ( "lib/util/thing.mli",
      "val used : int -> int\n\
       val dead : int -> int\n\n\
       [@@@lint.allow \"U001\"]\n\n\
       val kept : int -> int\n" );
    ("bin/lintprobe.ml", "let () = ignore (Thing.used 3)\n");
  ]

let test_u001_fires () =
  let fs, _ = analyze u001_units in
  assert_one_msg
    "only the unreferenced export past no floating allow is dead"
    ~sub:"Thing.dead" (only "U001" fs)

let test_u001_ref_sources_keep_alive () =
  let fs, _ =
    analyze u001_units
      ~ref_sources:[ ("test/probe.ml", "let () = ignore (Thing.dead 3)\n") ]
  in
  check Alcotest.int "a test/ reference keeps the export alive" 0
    (List.length (only "U001" fs))

(* --- SCC fixpoint, cross-module cycles, functor guards --- *)

let test_scc_cross_module_cycle () =
  let _, g =
    analyze
      [
        ( "lib/util/aa.ml",
          "let ping n =\n\
          \  if n = 0 then (Random.bits [@lint.allow \"D001\"]) ()\n\
          \  else Bb.pong (n - 1)\n" );
        ("lib/util/bb.ml", "let pong n = Aa.ping n\n");
      ]
  in
  let eff = Lint.Callgraph.node_effect g "lib/util/bb.ml#Bb.pong" in
  check Alcotest.bool "nondet flows around the cross-unit cycle" true
    eff.Lint.Effects.nondet;
  match Lint.Callgraph.nodes_by_qualified g "Aa.ping" with
  | [ n ] ->
      check Alcotest.string "key_of reconstructs the node key"
        "lib/util/aa.ml#Aa.ping"
        (Lint.Callgraph.key_of n.Lint.Callgraph.n_fn)
  | l -> Alcotest.failf "expected one Aa.ping node, got %d" (List.length l)

let test_scc_same_unit_raise_fixpoint () =
  let _, g =
    analyze
      [
        ( "lib/util/cyc.ml",
          "let rec f n = if n = 0 then g n else h n\n\
           and g n = f (n - 1)\n\
           and h n = if n > 5 then failwith \"deep\" else f 0\n" );
      ]
  in
  let eff = Lint.Callgraph.node_effect g "lib/util/cyc.ml#Cyc.f" in
  check slist "Failure circulates to every member of the SCC" [ "Failure" ]
    (Lint.Effects.raises_list eff)

let test_functor_no_false_edges () =
  let _, g =
    analyze
      [
        ( "lib/core/fctr.ml",
          "module F (X : sig\n\
          \  val f : unit -> int\n\
           end) =\n\
           struct\n\
          \  let g () = X.f ()\n\
           end\n\n\
           module Inst = F (struct\n\
          \  let f () = (Random.bits [@lint.allow \"D001\"]) ()\n\
           end)\n\n\
           let use () = Inst.g ()\n" );
      ]
  in
  let eff = Lint.Callgraph.node_effect g "lib/core/fctr.ml#Fctr.use" in
  check Alcotest.bool "no fabricated edge through a functor instantiation"
    false eff.Lint.Effects.nondet

(* --- small v2 surface --- *)

let test_module_name_of_path () =
  check Alcotest.string "tree.ml -> Tree" "Tree"
    (Lint.Extract.module_name_of_path "lib/core/tree.ml");
  check Alcotest.string "lsm_shell.mli -> Lsm_shell" "Lsm_shell"
    (Lint.Extract.module_name_of_path "lib/core/lsm_shell.mli")

let test_baseline_render () =
  let f =
    Lint.Finding.make ~file:"lib/x.ml" ~line:3 ~col:0 ~rule:"U001" "dead"
  in
  let s = Lint.Baseline.render [ f ] in
  check Alcotest.bool "header is commented" true
    (String.length s > 0 && s.[0] = '#');
  check Alcotest.bool "body carries the baseline key" true
    (contains ~sub:(Lint.Finding.baseline_key f) s)

(* --- order invariance: the determinism contract, as a property --- *)

let interproc_corpus =
  d003_units ~tainted:true ~allow:false
  @ driver
      "let second ep = if ep then raise Exit else 1\n\
       let make_exn ep =\n\
      \  match (if ep then raise Exit else 2) with\n\
      \  | exception Exit -> 0\n\
      \  | v -> v + second ep\n"
  @ c003_units ~pure:false ~allow:false
  @ y001_units ~inside:true ~allow:false
  @ u001_units
  @ [
      ( "lib/util/aa.ml",
        "let ping n =\n\
        \  if n = 0 then (Random.bits [@lint.allow \"D001\"]) ()\n\
        \  else Bb.pong (n - 1)\n" );
      ("lib/util/bb.ml", "let pong n = Aa.ping n\n");
      ( "lib/util/cyc.ml",
        "let rec f n = if n = 0 then g n else h n\n\
         and g n = f (n - 1)\n\
         and h n = if n > 5 then failwith \"deep\" else f 0\n" );
    ]

let expect_findings, expect_graph = analyze interproc_corpus

let expect_report =
  String.concat "\n" (List.map Lint.Finding.to_string expect_findings)

let expect_json = Lint.Callgraph.to_json expect_graph

let prop_order_invariant =
  QCheck.Test.make ~count:25
    ~name:"analysis is invariant under file-visitation order"
    (QCheck.make (QCheck.Gen.shuffle_l interproc_corpus))
    (fun perm ->
      let fs, g = analyze perm in
      String.equal expect_report
        (String.concat "\n" (List.map Lint.Finding.to_string fs))
      && String.equal expect_json (Lint.Callgraph.to_json g))

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "D001 bad" `Quick test_d001_bad;
          Alcotest.test_case "D001 ok" `Quick test_d001_ok;
          Alcotest.test_case "D002 bad" `Quick test_d002_bad;
          Alcotest.test_case "D002 ok" `Quick test_d002_ok;
          Alcotest.test_case "C001 bad" `Quick test_c001_bad;
          Alcotest.test_case "C001 ok" `Quick test_c001_ok;
          Alcotest.test_case "C002 bad" `Quick test_c002_bad;
          Alcotest.test_case "C002 ok" `Quick test_c002_ok;
          Alcotest.test_case "A001 bad" `Quick test_a001_bad;
          Alcotest.test_case "A001 allowed dir" `Quick test_a001_allowed_dir;
          Alcotest.test_case "A001 ok" `Quick test_a001_ok;
          Alcotest.test_case "F001 bad" `Quick test_f001_bad;
          Alcotest.test_case "F001 interface" `Quick test_f001_interface;
          Alcotest.test_case "F001 allowlisted unit" `Quick test_f001_allowlisted;
          Alcotest.test_case "F001 ok" `Quick test_f001_ok;
          Alcotest.test_case "P000 parse error" `Quick test_p000;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "attributes" `Quick test_suppress_attr;
          Alcotest.test_case "scoping" `Quick test_suppress_scope;
          Alcotest.test_case "wrong rule" `Quick test_suppress_wrong_rule;
          Alcotest.test_case "malformed payload" `Quick test_malformed_allow;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "filter" `Quick test_baseline_filter;
          Alcotest.test_case "multiset" `Quick test_baseline_is_multiset;
          Alcotest.test_case "roundtrip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "missing file" `Quick test_baseline_missing_file;
        ] );
      ( "runner",
        [
          Alcotest.test_case "S001 tree" `Quick test_s001_tree;
          Alcotest.test_case "policy layer Platter-walled" `Quick
            test_policy_platter_walled;
          Alcotest.test_case "policy modules need .mli" `Quick
            test_policy_mli_required;
          Alcotest.test_case "finding format" `Quick test_finding_format;
        ] );
      ( "interproc",
        [
          Alcotest.test_case "D003 fires" `Quick test_d003_fires;
          Alcotest.test_case "D003 clean" `Quick test_d003_clean;
          Alcotest.test_case "D003 export allow" `Quick test_d003_export_allow;
          Alcotest.test_case "E001 fires" `Quick test_e001_fires;
          Alcotest.test_case "E001 allowed exns" `Quick test_e001_allowed_exns;
          Alcotest.test_case "E001 try mask" `Quick test_e001_try_mask;
          Alcotest.test_case "E001 match-exception scrutinee only" `Quick
            test_e001_match_exception_scrutinee_only;
          Alcotest.test_case "E001 rethrow transparent" `Quick
            test_e001_rethrow_transparent;
          Alcotest.test_case "E001 catch-all absorbs" `Quick
            test_e001_catch_all_absorbs;
          Alcotest.test_case "C003 fires" `Quick test_c003_fires;
          Alcotest.test_case "C003 pure clean" `Quick test_c003_pure_clean;
          Alcotest.test_case "C003 site allow" `Quick test_c003_site_allow;
          Alcotest.test_case "Y001 fires" `Quick test_y001_fires;
          Alcotest.test_case "Y001 frame write" `Quick test_y001_frame_write;
          Alcotest.test_case "L001 stale config entries" `Quick
            test_l001_stale_entries;
          Alcotest.test_case "Y001 outside clean" `Quick
            test_y001_outside_clean;
          Alcotest.test_case "Y001 binding allow" `Quick
            test_y001_binding_allow;
          Alcotest.test_case "U001 fires" `Quick test_u001_fires;
          Alcotest.test_case "U001 ref sources keep alive" `Quick
            test_u001_ref_sources_keep_alive;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "cross-module SCC" `Quick
            test_scc_cross_module_cycle;
          Alcotest.test_case "same-unit raise fixpoint" `Quick
            test_scc_same_unit_raise_fixpoint;
          Alcotest.test_case "functor guard" `Quick
            test_functor_no_false_edges;
          Alcotest.test_case "module name of path" `Quick
            test_module_name_of_path;
          Alcotest.test_case "baseline render" `Quick test_baseline_render;
          QCheck_alcotest.to_alcotest prop_order_invariant;
        ] );
    ]
