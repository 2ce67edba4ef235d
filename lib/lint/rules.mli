(** The blsm-lint AST pass: parse one compilation unit (no typechecking)
    and report violations of the project rules.

    - [D001] nondeterminism sources ([Random.self_init], unseeded
      [Random.*] draws, [Unix.gettimeofday], [Sys.time],
      [Hashtbl.hash]): same-seed runs must be byte-identical or the DST
      harness and trace diffing are meaningless.
    - [D002] [Hashtbl.iter]/[fold]/[to_seq]: iteration order is
      nondeterministic; sort before the order can escape into output.
    - [C001] polymorphic [compare]/[min]/[max]/comparison operators in a
      comparator passed to the [List.sort]/[Array.sort] family: bLSM's
      merge and read-fanout arguments assume one monomorphic total order
      on keys.
    - [C002] catch-all [try ... with _ ->] (and
      [match ... with exception _ ->]): swallows [Assert_failure],
      [Out_of_memory] and injected-fault exceptions.  Binding the
      exception ([with e ->]) is permitted — it can be logged or
      re-raised.
    - [A001] module-access matrix ({!Config.access_rule}): references
      to restricted module paths (platter internals, [Unix]) outside
      their allowed directories.
    - [F001] an [external] declaration outside the compilation units
      vetted in {!Config.t.externals_allowed}: the effect analysis
      cannot see into C.
    - [L000] malformed [[@lint.allow]] payload.
    - [P000] the file does not parse.

    Suppression: [[@lint.allow "RULE"]] on an expression, value binding
    or module binding silences the rule for that subtree;
    [[@@@lint.allow "RULE"]] silences it for the rest of the file.
    Several ids may be given in one string, separated by spaces or
    commas. *)

(** [lint_source ~config ~path source] lints one unit. [path] is the
    repo-relative path: its extension selects the implementation or
    interface grammar, and its directory drives rule A001.  Findings
    come back sorted by {!Finding.compare}. *)
val lint_source :
  config:Config.t -> path:string -> string -> Finding.t list
