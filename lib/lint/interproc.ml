(* Phase 2 of blsm-lint v2, part 2: the interprocedural rule families
   evaluated over the solved call graph.

   D003  nondeterminism taint — no engine-surface op may transitively
         reach a D001 nondeterminism source.
   E001  exception escape — a protocol boundary's inferred may-raise
         set must stay inside its declared allowance (an internal
         exception crossing a protocol edge where a protocol answer
         belongs).
   C003  transitive comparator purity — a *named* function passed in
         comparator position may not observe or mutate the world
         (inline comparators are C001's beat).
   Y001  stall-effect layering — manifest-commit / WAL-append critical
         sections may not reach a pacing-quota producer.
   U001  dead exports — a lib/ [.mli] value referenced nowhere outside
         its own module is dead surface.
   L001  stale config — an E001 boundary or Y001 critical section that
         names no function of the call graph.

   Messages deliberately contain no line numbers: the baseline key is
   (file, rule, message), and witness chains are function names only,
   so unrelated edits never churn the baseline. *)

module SS = Effects.SS

let find ~file ~line ~rule msg = Finding.make ~file ~line ~col:0 ~rule msg

let allowed rule allows = List.mem rule allows

(* ---------------------------------------------------------------- *)
(* D003: engine-surface nondeterminism taint *)

let d003 (g : Callgraph.t) =
  let config = g.cg_config in
  let out = ref [] in
  List.iter
    (fun (u : Extract.unit_info) ->
      if u.u_is_mli && List.mem u.u_module config.engine_surface_modules then
        List.iter
          (fun (ex : Extract.export) ->
            let ml_path = Filename.remove_extension ex.ex_unit ^ ".ml" in
            let q = String.concat "." (ex.ex_module @ [ ex.ex_name ]) in
            let key = ml_path ^ "#" ^ q in
            match Callgraph.find_node g key with
            | Some n
              when n.n_eff.nondet
                   && (not (allowed "D003" n.n_fn.fn_allows))
                   && not (allowed "D003" ex.ex_allows) ->
                let chain =
                  match
                    Callgraph.witness g key
                      ~pred:(fun m -> m.Callgraph.n_intrinsic.nondet)
                      ~passable:(fun _ -> true)
                  with
                  | Some keys ->
                      let source =
                        match
                          Callgraph.find_node g (List.nth keys (List.length keys - 1))
                        with
                        | Some sink -> (
                            match sink.n_fn.fn_nondet with
                            | Some s -> s
                            | None -> "a nondeterminism source")
                        | None -> "a nondeterminism source"
                      in
                      Printf.sprintf " (via %s, reaching %s)"
                        (Callgraph.render_witness keys)
                        source
                  | None -> ""
                in
                out :=
                  find ~file:ml_path ~line:n.n_fn.fn_line ~rule:"D003"
                    (Printf.sprintf
                       "engine op %s transitively reaches a nondeterminism \
                        source%s; same-seed runs must be byte-identical — \
                        thread a seeded Repro_util.Prng (or the simulated \
                        clock) through instead"
                       q chain)
                  :: !out
            | _ -> ())
          u.u_exports)
    g.cg_units;
  !out

(* ---------------------------------------------------------------- *)
(* E001: exception escape across protocol boundaries *)

let e001 (g : Callgraph.t) =
  let out = ref [] in
  List.iter
    (fun (bd : Config.boundary) ->
      List.iter
        (fun (n : Callgraph.node) ->
          if not (allowed "E001" n.n_fn.fn_allows) then
            let escaped =
              SS.filter
                (fun exn -> not (List.mem exn bd.bd_allowed))
                n.n_eff.raises
            in
            SS.iter
              (fun exn ->
                let chain =
                  match
                    Callgraph.witness g n.n_key
                      ~pred:(fun m -> SS.mem exn m.Callgraph.n_intrinsic.raises)
                      ~passable:(fun mask -> not (Effects.mask_catches mask exn))
                  with
                  | Some keys ->
                      Printf.sprintf " (via %s)" (Callgraph.render_witness keys)
                  | None -> ""
                in
                out :=
                  find ~file:n.n_fn.fn_unit ~line:n.n_fn.fn_line ~rule:"E001"
                    (Printf.sprintf
                       "exception %s may escape protocol boundary %s%s; %s — \
                        catch it at the boundary and turn it into a protocol \
                        answer (allowed to cross: %s)"
                       exn bd.bd_func chain bd.bd_why
                       (String.concat ", " bd.bd_allowed))
                  :: !out)
              escaped)
        (Callgraph.nodes_by_qualified g bd.bd_func))
    g.cg_config.boundaries;
  !out

(* ---------------------------------------------------------------- *)
(* C003: transitive comparator purity *)

let impure_bits (e : Effects.t) =
  List.filter_map
    (fun (set, label) -> if set then Some label else None)
    [
      (e.nondet, "draws nondeterminism");
      (e.io, "touches I/O");
      (e.mutates, "mutates escaping state");
      (e.stall, "reaches pacing quota");
    ]

let c003 (g : Callgraph.t) =
  let out = ref [] in
  List.iter
    (fun (u : Extract.unit_info) ->
      List.iter
        (fun (cu : Extract.comparator_use) ->
          if not (allowed "C003" cu.cu_allows) then
            match
              Callgraph.resolve g ~unit_info:u ~caller_mods:[ u.u_module ]
                cu.cu_path
            with
            | None -> ()
            | Some key -> (
                match Callgraph.find_node g key with
                | Some n
                  when (not (Effects.pure n.n_eff))
                       && not (allowed "C003" n.n_fn.fn_allows) ->
                    let bits = impure_bits n.n_eff in
                    let bit_pred =
                      if n.n_eff.nondet then fun (m : Callgraph.node) ->
                        m.n_intrinsic.nondet
                      else if n.n_eff.io then fun m -> m.n_intrinsic.io
                      else if n.n_eff.mutates then fun m -> m.n_intrinsic.mutates
                      else fun m -> m.n_intrinsic.stall
                    in
                    let chain =
                      match
                        Callgraph.witness g key ~pred:bit_pred
                          ~passable:(fun _ -> true)
                      with
                      | Some keys ->
                          Printf.sprintf " (via %s)"
                            (Callgraph.render_witness keys)
                      | None -> ""
                    in
                    out :=
                      find ~file:cu.cu_file ~line:cu.cu_line ~rule:"C003"
                        (Printf.sprintf
                           "comparator %s is impure: %s%s; a comparator must \
                            be a pure total order — sorting with it makes \
                            the sort order (and anything downstream) depend \
                            on hidden state"
                           (Callgraph.qualified_of_key key)
                           (String.concat ", " bits)
                           chain)
                      :: !out
                | _ -> ()))
        u.u_cuses)
    g.cg_units;
  !out

(* ---------------------------------------------------------------- *)
(* Y001: no pacing reach inside critical sections *)

let y001 (g : Callgraph.t) =
  let out = ref [] in
  List.iter
    (fun (func, label) ->
      List.iter
        (fun (n : Callgraph.node) ->
          if n.n_eff.stall && not (allowed "Y001" n.n_fn.fn_allows) then
            let chain, source =
              match
                Callgraph.witness g n.n_key
                  ~pred:(fun m -> m.Callgraph.n_intrinsic.stall)
                  ~passable:(fun _ -> true)
              with
              | Some keys ->
                  let src =
                    match
                      Callgraph.find_node g
                        (List.nth keys (List.length keys - 1))
                    with
                    | Some sink -> (
                        match sink.n_fn.fn_stall with
                        | Some s -> s
                        | None -> "a pacing-quota producer")
                    | None -> "a pacing-quota producer"
                  in
                  (Printf.sprintf " (via %s)" (Callgraph.render_witness keys), src)
              | None -> ("", "a pacing-quota producer")
            in
            out :=
              find ~file:n.n_fn.fn_unit ~line:n.n_fn.fn_line ~rule:"Y001"
                (Printf.sprintf
                   "%s (%s) can transitively reach %s%s; charging merge \
                    quanta inside a critical section is unattributable \
                    blocking — pace before entering, never inside"
                   func label source chain)
              :: !out)
        (Callgraph.nodes_by_qualified g func))
    g.cg_config.critical_sections;
  !out

(* ---------------------------------------------------------------- *)
(* U001: dead exports *)

(* Expand a reference's head through the unit's [module X = Y] aliases
   (one hop), as the resolver does. *)
let expand_head (u : Extract.unit_info) path =
  match path with
  | head :: rest -> (
      match List.assoc_opt head u.u_aliases with
      | Some chain -> chain @ rest
      | None -> path)
  | [] -> path

let under_dir dir file =
  String.equal (Filename.dirname file) dir
  || String.length file > String.length dir
     && String.sub file 0 (String.length dir + 1) = dir ^ "/"

let u001 (g : Callgraph.t) ~(ref_units : Extract.unit_info list) =
  let config = g.cg_config in
  let exports =
    List.concat_map
      (fun (u : Extract.unit_info) ->
        if
          u.u_is_mli
          && List.exists (fun d -> under_dir d u.u_path)
               config.dead_export_dirs
        then u.u_exports
        else [])
      g.cg_units
  in
  (* Uses via resolved call-graph edges: target key -> referencing units *)
  let edge_uses = Hashtbl.create 256 in
  List.iter
    (fun key ->
      match Callgraph.find_node g key with
      | None -> ()
      | Some n ->
          List.iter
            (fun (e : Callgraph.edge) ->
              let from_unit = Callgraph.unit_of_key key in
              let prev =
                match Hashtbl.find_opt edge_uses e.e_target with
                | Some l -> l
                | None -> []
              in
              Hashtbl.replace edge_uses e.e_target (from_unit :: prev))
            n.n_edges)
    g.cg_keys;
  List.filter_map
    (fun (ex : Extract.export) ->
      if allowed "U001" ex.ex_allows then None
      else
        let ml_path = Filename.remove_extension ex.ex_unit ^ ".ml" in
        let q = String.concat "." (ex.ex_module @ [ ex.ex_name ]) in
        let key = ml_path ^ "#" ^ q in
        let own u_path = u_path = ml_path || u_path = ex.ex_unit in
        let last_mod = List.nth ex.ex_module (List.length ex.ex_module - 1) in
        let used_by_edge =
          match Hashtbl.find_opt edge_uses key with
          | Some froms -> List.exists (fun f -> not (own f)) froms
          | None -> false
        in
        let textual_use (u : Extract.unit_info) =
          (not (own u.u_path))
          && (List.exists
                (fun path ->
                  let path = expand_head u path in
                  match List.rev path with
                  | name :: m :: _ -> name = ex.ex_name && m = last_mod
                  | _ -> false)
                u.u_refs
             ||
             (* bare use under [open ...Module] *)
             List.exists
               (fun chain ->
                 chain <> [] && List.nth chain (List.length chain - 1) = last_mod)
               u.u_opens
             && List.exists
                  (fun path ->
                    match path with [ n ] -> n = ex.ex_name | _ -> false)
                  u.u_refs)
        in
        if used_by_edge || List.exists textual_use ref_units then None
        else
          Some
            (find ~file:ex.ex_unit ~line:ex.ex_line ~rule:"U001"
               (Printf.sprintf
                  "export %s is referenced nowhere outside its own module; \
                   delete it or mark it [@@lint.allow \"U001\"] with a reason \
                   — dead surface area hides what is actually covered"
                  q)))
    exports

(* ---------------------------------------------------------------- *)
(* L001: stale config *)

(* An E001 boundary or Y001 critical section that names no function in
   the call graph leaves its rule silently vacuous — typically the code
   moved and the config did not follow. *)
let l001 (g : Callgraph.t) =
  List.filter_map
    (fun (func, entry) ->
      match Callgraph.nodes_by_qualified g func with
      | _ :: _ -> None
      | [] ->
          Some
            (find ~file:"lib/lint/config.ml" ~line:1 ~rule:"L001"
               (Printf.sprintf
                  "%s %s resolves to no function in the call graph; the \
                   rule checks nothing there — point the entry at the code \
                   that now holds it"
                  entry func)))
    (List.map
       (fun (bd : Config.boundary) -> (bd.bd_func, "E001 boundary"))
       g.cg_config.boundaries
    @ List.map
        (fun (func, _) -> (func, "Y001 critical section"))
        g.cg_config.critical_sections)

(* ---------------------------------------------------------------- *)

let run ~(graph : Callgraph.t) ~ref_units =
  List.sort Finding.compare
    (d003 graph @ e001 graph @ c003 graph @ y001 graph
    @ u001 graph ~ref_units @ l001 graph)
