(** Phase 2 of blsm-lint v2, part 2: the interprocedural rule families
    evaluated over a solved {!Callgraph.t}.

    - D003: engine-surface ops may not transitively reach a
      nondeterminism source.
    - E001: a protocol boundary's inferred may-raise set must stay
      inside its declared allowance.
    - C003: named functions passed in comparator position must be
      transitively pure.
    - Y001: manifest-commit / WAL-append critical sections may not
      reach a pacing-quota producer.
    - U001: lib/ [.mli] exports referenced nowhere outside their own
      module are dead surface.
    - L001: every E001 boundary and Y001 critical section in the config
      must resolve to a function of the call graph.

    Messages contain no line numbers (witness chains are function names
    only), so the line-free baseline key stays stable under unrelated
    edits. *)

(** [run ~graph ~ref_units] evaluates every rule family.  [ref_units]
    is a superset of the graph's units — it additionally includes the
    units extracted from [Config.dead_export_ref_dirs] (tests and
    examples keep an export alive for U001) — and is used only for
    textual reference matching. *)
val run :
  graph:Callgraph.t -> ref_units:Extract.unit_info list -> Finding.t list
