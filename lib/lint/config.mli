(** blsm-lint configuration: what to scan and the project-specific
    invariants the AST pass enforces.  The default value below is the
    checked-in policy for this repository; tests construct restricted
    configs of their own. *)

(** One row of the A001 module-access matrix. *)
type access_rule = {
  restricted : string list;
      (** dotted module paths, e.g. ["Pagestore.Platter"]; a reference
          matches when its leading components equal one of these *)
  allowed_dirs : string list;
      (** repo-relative directories whose files may reference the
          restricted modules *)
  why : string;  (** rendered in the finding message *)
}

(** One E001 protocol boundary: a function (module-qualified name) whose
    inferred may-raise set must stay inside [bd_allowed] — anything else
    leaking across it is an internal exception where a protocol answer
    belongs. *)
type boundary = {
  bd_func : string;  (** e.g. ["Driver.make_exn"] *)
  bd_allowed : string list;  (** exception constructor names *)
  bd_why : string;  (** rendered in the finding message *)
}

type t = {
  scan_dirs : string list;  (** directories walked by default *)
  access_matrix : access_rule list;  (** rule A001 *)
  mli_required_dirs : string list;
      (** rule S001: every [.ml] under these roots needs a sibling
          [.mli] *)
  mli_exempt_suffixes : string list;
      (** module basename suffixes exempt from S001 (e.g. ["_intf"] for
          signature-only modules) *)
  mli_exempt_modules : string list;
      (** individual module basenames exempt from S001 *)
  nondet_sources : (string * string) list;
      (** rule D001 / the nondet effect bit: banned dotted paths with a
          reason each *)
  io_sources : string list;
      (** the io effect bit: dotted module prefixes meaning raw platter
          or real-OS access *)
  stall_sources : string list;
      (** the stall effect bit: dotted paths of the pacing-quota
          producers (rule Y001's forbidden reach) *)
  library_wrappers : (string * string) list;
      (** dune wrapper module -> directory, used to resolve
          [Blsm.Tree.put] to lib/core's [Tree.put] and to break
          module-name ties between directories *)
  engine_surface_modules : string list;
      (** rule D003: modules whose .mli-exported values are engine ops *)
  boundaries : boundary list;  (** rule E001 *)
  critical_sections : (string * string) list;
      (** rule Y001: (module-qualified function, label) pairs that may
          not transitively reach a stall source *)
  dead_export_dirs : string list;
      (** rule U001: directories whose [.mli] exports must be referenced
          from outside their own module *)
  dead_export_ref_dirs : string list;
      (** directories scanned for references when deciding U001 (a
          superset of [scan_dirs]: tests and examples keep an export
          alive) *)
  externals_allowed : (string * string) list;
      (** rule F001: compilation units, by wrapper path (e.g.
          ["Repro_util.Crc32c"]), that may declare [external]s, with the
          reason each is safe to leave opaque to the effect analysis *)
}

(** The policy for this repository: scan [lib/], [bin/], [bench/],
    [tools/]; platter internals restricted to [lib/pagestore] +
    [lib/simdisk]; [Unix] restricted to [bench]/[bin]/[tools]; [.mli]
    required for every [lib/] module except [*_intf]; engine surfaces,
    protocol boundaries and critical sections as documented in
    DESIGN.md §15; [external]s only in [Repro_util.Crc32c]. *)
val default : t
