(* Phase 2 of blsm-lint v2, part 1: the project call graph and the
   effect fixpoint over it.

   Nodes are structure-level value bindings keyed by
   ["<unit path>#<Module.qualified.name>"].  Edges come from resolving
   each recorded dotted reference against the scanned units — a
   parsetree-level approximation of OCaml's real scoping:

   - bare names resolve innermost-out through the caller's enclosing
     modules, then through recorded [open]s;
   - qualified names try the caller's enclosing modules, then a global
     lookup matching the head component against unit module names,
     expanding [module X = Y] aliases once and stripping dune library
     wrappers ([Blsm.Tree.put] = lib/core's [Tree.put]);
   - a module-name tie between directories is broken by preferring the
     referencing file's own directory, then the wrapper's directory;
     a still-ambiguous reference resolves to NO edge (documented
     soundness caveat — under-approximation, never a false edge);
   - functor applications and functor parameters never resolve, so a
     functor body cannot produce false edges into unrelated modules.

   The fixpoint runs over Tarjan SCCs in emission order (callees before
   callers), iterating inside each SCC until stable.  Everything the
   result depends on is totally ordered — node keys, adjacency, SCC
   emission — so analysis output is independent of file-visitation
   order and byte-identical across runs. *)

module SS = Effects.SS

type edge = { e_target : string; e_mask : Effects.mask; e_line : int }

type node = {
  n_key : string;
  n_fn : Extract.fn;
  n_intrinsic : Effects.t;
  mutable n_edges : edge list;  (* sorted by (target, mask) *)
  mutable n_eff : Effects.t;
}

type t = {
  cg_nodes : (string, node) Hashtbl.t;
  cg_keys : string list;  (* sorted *)
  cg_units : Extract.unit_info list;  (* sorted by path *)
  cg_by_module : (string, Extract.unit_info list) Hashtbl.t;  (* .ml units *)
  cg_by_qualified : (string, string list) Hashtbl.t;  (* qualified -> keys *)
  cg_config : Config.t;
}

let key_of (f : Extract.fn) = f.fn_unit ^ "#" ^ Extract.qualified f
let qualified_of_key key =
  match String.index_opt key '#' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let unit_of_key key =
  match String.index_opt key '#' with
  | Some i -> String.sub key 0 i
  | None -> key

let intrinsic_of (f : Extract.fn) : Effects.t =
  {
    nondet = f.fn_nondet <> None;
    io = f.fn_io <> None;
    mutates = f.fn_mut;
    stall = f.fn_stall <> None;
    raises = SS.of_list (List.map fst f.fn_raises);
  }

let find_node t key = Hashtbl.find_opt t.cg_nodes key
let node_effect t key =
  match find_node t key with Some n -> n.n_eff | None -> Effects.bottom

let nodes_by_qualified t q =
  match Hashtbl.find_opt t.cg_by_qualified q with
  | Some keys -> List.filter_map (find_node t) keys
  | None -> []

(* ---------------------------------------------------------------- *)
(* Resolution *)

let rec butlast = function [] | [ _ ] -> [] | x :: rest -> x :: butlast rest
let last l = List.nth l (List.length l - 1)

let fn_in_unit (u : Extract.unit_info) ~mods ~name =
  List.find_opt
    (fun (f : Extract.fn) -> f.fn_name = name && f.fn_module = mods)
    u.u_fns

(* Enclosing-module prefixes of the caller, longest first:
   [A;B;C] -> [[A;B;C]; [A;B]; [A]]. *)
let enclosing_prefixes mods =
  let rec go acc = function
    | [] -> acc
    | m -> go (m :: acc) (butlast m)
  in
  List.rev (go [] mods)

let units_for_module t name =
  match Hashtbl.find_opt t.cg_by_module name with Some us -> us | None -> []

let dir_of path = Filename.dirname path

(* Global lookup: match [head] against unit module names; on a tie,
   prefer [from_dir], then the wrapper-derived [hint]. *)
let rec resolve_global t ?hint ~from_dir path =
  match path with
  | [] | [ _ ] -> None
  | head :: rest -> (
      let candidates = units_for_module t head in
      let pick (u : Extract.unit_info) =
        Option.map key_of
          (fn_in_unit u ~mods:(u.u_module :: butlast rest) ~name:(last rest))
      in
      let chosen =
        match candidates with
        | [] -> None
        | [ u ] -> Some u
        | many -> (
            match
              List.filter (fun u -> dir_of u.Extract.u_path = from_dir) many
            with
            | [ u ] -> Some u
            | _ -> (
                match hint with
                | Some h -> (
                    match
                      List.filter (fun u -> dir_of u.Extract.u_path = h) many
                    with
                    | [ u ] -> Some u
                    | _ -> None)
                | None -> None))
      in
      match chosen with
      | Some u -> pick u
      | None -> (
          (* no unit called [head]: maybe it is a dune library wrapper *)
          match List.assoc_opt head t.cg_config.library_wrappers with
          | Some dir when List.length rest >= 2 ->
              resolve_global t ~hint:dir ~from_dir rest
          | _ -> None))

let expand_alias (u : Extract.unit_info) path =
  match path with
  | head :: rest -> (
      match List.assoc_opt head u.u_aliases with
      | Some chain -> chain @ rest
      | None -> path)
  | [] -> path

(* Resolve one dotted reference made from [caller_mods] inside [unit_info]
   to a node key. *)
let resolve t ~(unit_info : Extract.unit_info) ~caller_mods path =
  let from_dir = dir_of unit_info.u_path in
  let via_opens path =
    List.fold_left
      (fun acc chain ->
        match acc with
        | Some _ -> acc
        | None ->
            resolve_global t ~from_dir (expand_alias unit_info (chain @ path)))
      None unit_info.u_opens
  in
  match path with
  | [] -> None
  | [ name ] ->
      (* bare: innermost enclosing module of the caller, then opens *)
      let local =
        List.fold_left
          (fun acc mods ->
            match acc with
            | Some _ -> acc
            | None ->
                Option.map key_of (fn_in_unit unit_info ~mods ~name))
          None
          (enclosing_prefixes caller_mods)
      in
      (match local with Some _ as r -> r | None -> via_opens path)
  | _ -> (
      let path = expand_alias unit_info path in
      match path with
      | [] | [ _ ] -> None
      | comps_and_name ->
          let comps = butlast comps_and_name and name = last comps_and_name in
          (* caller's enclosing modules first: [Fence.locate] from inside
             Sst_format resolves to [Sst_format.Fence.locate] *)
          let nested =
            List.fold_left
              (fun acc prefix ->
                match acc with
                | Some _ -> acc
                | None ->
                    Option.map key_of
                      (fn_in_unit unit_info ~mods:(prefix @ comps) ~name))
              None
              (enclosing_prefixes caller_mods)
          in
          (match nested with
          | Some _ as r -> r
          | None -> (
              match resolve_global t ~from_dir comps_and_name with
              | Some _ as r -> r
              | None -> via_opens comps_and_name)))

(* ---------------------------------------------------------------- *)
(* Build *)

let mask_repr = function
  | Effects.Catch_all -> [ "*" ]
  | Effects.Catch s -> SS.elements s

let cmp_edge a b =
  let c = String.compare a.e_target b.e_target in
  if c <> 0 then c
  else
    let c = Extract.cmp_strings (mask_repr a.e_mask) (mask_repr b.e_mask) in
    if c <> 0 then c else Int.compare a.e_line b.e_line

let dedup_edges edges =
  let sorted = List.sort cmp_edge edges in
  let rec go = function
    | a :: b :: rest
      when a.e_target = b.e_target && mask_repr a.e_mask = mask_repr b.e_mask
      ->
        go (a :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go sorted

let build ~config units =
  let units =
    List.sort
      (fun (a : Extract.unit_info) b -> String.compare a.u_path b.u_path)
      units
  in
  let by_module = Hashtbl.create 64 in
  List.iter
    (fun (u : Extract.unit_info) ->
      if not u.u_is_mli then
        let prev =
          match Hashtbl.find_opt by_module u.u_module with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace by_module u.u_module (prev @ [ u ]))
    units;
  let nodes = Hashtbl.create 256 in
  let keys = ref [] in
  List.iter
    (fun (u : Extract.unit_info) ->
      List.iter
        (fun (f : Extract.fn) ->
          let key = key_of f in
          if not (Hashtbl.mem nodes key) then begin
            Hashtbl.replace nodes key
              {
                n_key = key;
                n_fn = f;
                n_intrinsic = intrinsic_of f;
                n_edges = [];
                n_eff = intrinsic_of f;
              };
            keys := key :: !keys
          end)
        u.u_fns)
    units;
  let t =
    {
      cg_nodes = nodes;
      cg_keys = List.sort String.compare !keys;
      cg_units = units;
      cg_by_module = by_module;
      cg_by_qualified = Hashtbl.create 256;
      cg_config = config;
    }
  in
  (* qualified-name index *)
  List.iter
    (fun key ->
      let q = qualified_of_key key in
      let prev =
        match Hashtbl.find_opt t.cg_by_qualified q with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace t.cg_by_qualified q (prev @ [ key ]))
    t.cg_keys;
  (* edges *)
  List.iter
    (fun (u : Extract.unit_info) ->
      List.iter
        (fun (f : Extract.fn) ->
          let edges =
            List.filter_map
              (fun (c : Extract.call) ->
                match
                  resolve t ~unit_info:u ~caller_mods:f.fn_module c.c_path
                with
                | Some target ->
                    Some { e_target = target; e_mask = c.c_mask; e_line = c.c_line }
                | None -> None)
              f.fn_calls
          in
          match find_node t (key_of f) with
          | Some n -> n.n_edges <- dedup_edges edges
          | None -> ())
        u.u_fns)
    units;
  t

(* ---------------------------------------------------------------- *)
(* Tarjan SCCs, emitted callees-before-callers *)

let sccs t =
  let index = Hashtbl.create 256 in
  let lowlink = Hashtbl.create 256 in
  let on_stack = Hashtbl.create 256 in
  let stack = ref [] in
  let counter = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    (match find_node t v with
    | None -> ()
    | Some n ->
        List.iter
          (fun e ->
            let w = e.e_target in
            if Hashtbl.mem t.cg_nodes w then
              if not (Hashtbl.mem index w) then begin
                strongconnect w;
                Hashtbl.replace lowlink v
                  (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
              end
              else if Hashtbl.mem on_stack w then
                Hashtbl.replace lowlink v
                  (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
          n.n_edges);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
      in
      let scc = pop [] in
      out := List.sort String.compare scc :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) t.cg_keys;
  (* Tarjan pops callee SCCs before their callers; preserve that order *)
  List.rev !out

(* ---------------------------------------------------------------- *)
(* Effect fixpoint *)

let callee_contribution t e =
  match find_node t e.e_target with
  | None -> Effects.bottom
  | Some m ->
      { m.n_eff with raises = Effects.apply_mask e.e_mask m.n_eff.raises }

let solve t =
  List.iter
    (fun scc ->
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun key ->
            match find_node t key with
            | None -> ()
            | Some n ->
                let eff =
                  List.fold_left
                    (fun acc e -> Effects.join acc (callee_contribution t e))
                    n.n_intrinsic n.n_edges
                in
                if not (Effects.equal eff n.n_eff) then begin
                  n.n_eff <- eff;
                  changed := true
                end)
          scc
      done)
    (sccs t)

(* ---------------------------------------------------------------- *)
(* Witness paths: deterministic BFS from [start] to a node whose
   *intrinsic* facts satisfy [pred], over edges allowed by [passable].
   Returns qualified names, caller first. *)

let witness t start ~pred ~passable =
  match find_node t start with
  | None -> None
  | Some s when pred s -> Some [ qualified_of_key start ]
  | Some _ ->
      let visited = Hashtbl.create 64 in
      Hashtbl.replace visited start true;
      let q = Queue.create () in
      Queue.add (start, [ start ]) q;
      let result = ref None in
      while !result = None && not (Queue.is_empty q) do
        let key, path = Queue.take q in
        match find_node t key with
        | None -> ()
        | Some n ->
            List.iter
              (fun e ->
                if !result = None && passable e.e_mask
                   && not (Hashtbl.mem visited e.e_target)
                then
                  match find_node t e.e_target with
                  | None -> ()
                  | Some m ->
                      Hashtbl.replace visited e.e_target true;
                      let path' = e.e_target :: path in
                      if pred m then result := Some (List.rev path')
                      else Queue.add (e.e_target, path') q)
              n.n_edges
      done;
      !result

let render_witness keys = String.concat " -> " (List.map qualified_of_key keys)

(* ---------------------------------------------------------------- *)
(* JSON dump (own printer: dependency-free, byte-stable) *)

let json_string b s =
  Buffer.add_char b '"';
  Obs.Json.add_escaped b s;
  Buffer.add_char b '"'

let json_string_list b l =
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      json_string b s)
    l;
  Buffer.add_char b ']'

let json_effect b (e : Effects.t) =
  Buffer.add_string b
    (Printf.sprintf "{\"nondet\":%b,\"io\":%b,\"mutates\":%b,\"stall\":%b,\"raises\":"
       e.nondet e.io e.mutates e.stall);
  json_string_list b (Effects.raises_list e);
  Buffer.add_char b '}'

let to_json t =
  let b = Buffer.create (64 * 1024) in
  Buffer.add_string b "{\n\"version\": 2,\n\"functions\": [\n";
  List.iteri
    (fun i key ->
      match find_node t key with
      | None -> ()
      | Some n ->
          if i > 0 then Buffer.add_string b ",\n";
          Buffer.add_string b "{\"key\":";
          json_string b n.n_key;
          Buffer.add_string b ",\"intrinsic\":";
          json_effect b n.n_intrinsic;
          Buffer.add_string b ",\"effects\":";
          json_effect b n.n_eff;
          Buffer.add_string b ",\"calls\":[";
          List.iteri
            (fun j e ->
              if j > 0 then Buffer.add_char b ',';
              Buffer.add_string b "{\"to\":";
              json_string b e.e_target;
              Buffer.add_string b ",\"catches\":";
              json_string_list b (mask_repr e.e_mask);
              Buffer.add_char b '}')
            n.n_edges;
          Buffer.add_string b "]}")
    t.cg_keys;
  Buffer.add_string b "\n]\n}\n";
  Buffer.contents b
