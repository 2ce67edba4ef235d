(* The blsm-lint AST pass.  Parses one compilation unit (never
   typechecks — fixtures and in-progress code must still lint) and walks
   the Parsetree with an [Ast_iterator], reporting violations of the
   project rules:

   D001  no nondeterminism sources (wall clocks, unseeded Random,
         Hashtbl.hash)
   D002  no Hashtbl iteration (order is nondeterministic across runs)
   C001  no polymorphic compare/min/max/(=) in comparator positions
   C002  no catch-all [try ... with _ ->]
   A001  module-access matrix: platter internals / Unix stay behind the
         Simdisk.Disk boundary
   F001  no [external] outside the vetted units of
         Config.externals_allowed (the effect analysis cannot see into C)

   (S001, the .mli presence check, lives in {!Runner} — it is a property
   of the file set, not of one AST.)

   Suppression is scoped: a [[@lint.allow "RULE"]] attribute on an
   expression, value binding or module binding silences that rule for
   the whole subtree, and a floating [[@@@lint.allow "RULE"]] silences
   it for the rest of the file. *)

open Parsetree

type ctx = {
  file : string; (* repo-relative path, used for A001 and reports *)
  config : Config.t;
  mutable findings : Finding.t list;
  mutable scope : string list; (* rule ids currently allowed *)
  mutable in_comparator : int; (* > 0 inside a sort comparator argument *)
  mutable comparator_marks : expression list; (* physical identity marks *)
}

let report ctx (loc : Location.t) rule msg =
  if not (List.mem rule ctx.scope) then
    let p = loc.loc_start in
    ctx.findings <-
      Finding.make ~file:ctx.file ~line:p.pos_lnum
        ~col:(p.pos_cnum - p.pos_bol) ~rule msg
      :: ctx.findings

(* ---------------------------------------------------------------- *)
(* Suppression attributes *)

let split_rules s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char ',')
  |> List.filter (fun x -> x <> "")

let allows_of_attribute ctx (a : attribute) =
  if a.attr_name.txt <> "lint.allow" then []
  else
    match a.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval
                ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
        split_rules s
    | _ ->
        report ctx a.attr_loc "L000"
          "malformed [@lint.allow] payload; expected a string literal of \
           rule ids, e.g. [@lint.allow \"D001\"]";
        []

let allows_of_attributes ctx attrs =
  List.concat_map (allows_of_attribute ctx) attrs

let with_allows ctx attrs f =
  let saved = ctx.scope in
  ctx.scope <- allows_of_attributes ctx attrs @ saved;
  f ();
  ctx.scope <- saved

(* ---------------------------------------------------------------- *)
(* Longident helpers *)

let rec flatten_lid = function
  | Longident.Lident s -> Some [ s ]
  | Longident.Ldot (p, s) ->
      Option.map (fun l -> l @ [ s ]) (flatten_lid p)
  | Longident.Lapply _ -> None

(* [Stdlib.Random.int] and [Random.int] are the same source of trouble. *)
let normalize = function "Stdlib" :: rest -> rest | path -> path

let dotted path = String.concat "." path

let path_of_lid lid = Option.map normalize (flatten_lid lid)

(* ---------------------------------------------------------------- *)
(* D001: nondeterminism sources *)

(* The banned list lives in Config.nondet_sources — shared with the
   interprocedural nondet effect bit (rule D003), so the two rules can
   never drift apart. *)
let check_d001 ctx loc path =
  match List.assoc_opt (dotted path) ctx.config.nondet_sources with
  | Some why ->
      report ctx loc "D001"
        (Printf.sprintf
           "nondeterminism source %s %s; same-seed runs must be \
            byte-identical — use a seeded Repro_util.Prng (or the \
            simulated clock) instead"
           (dotted path) why)
  | None -> ()

(* ---------------------------------------------------------------- *)
(* D002: Hashtbl iteration order *)

let d002_banned =
  [
    "Hashtbl.iter";
    "Hashtbl.fold";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let check_d002 ctx loc path =
  let d = dotted path in
  if List.mem d d002_banned then
    report ctx loc "D002"
      (Printf.sprintf
         "%s iterates in nondeterministic hash order; collect and sort \
          the keys before anything order-dependent escapes (or mark the \
          site [@lint.allow \"D002\"] if the result provably cannot \
          observe the order)"
         d)

(* ---------------------------------------------------------------- *)
(* C001: polymorphic comparison in comparator positions *)

let c001_sort_functions =
  [
    "List.sort";
    "List.stable_sort";
    "List.fast_sort";
    "List.sort_uniq";
    "List.merge";
    "Array.sort";
    "Array.stable_sort";
    "Array.fast_sort";
  ]

let c001_poly_idents = [ "compare"; "min"; "max" ]
let c001_poly_ops = [ "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!=" ]

let check_c001_ident ctx loc path =
  if ctx.in_comparator > 0 then
    match path with
    | [ x ] when List.mem x c001_poly_idents ->
        report ctx loc "C001"
          (Printf.sprintf
             "polymorphic %s in a comparator; bLSM assumes one \
              monomorphic total order on keys — use String.compare / \
              Int.compare (or a record-field comparator built from them)"
             x)
    | [ x ] when List.mem x c001_poly_ops ->
        report ctx loc "C001"
          (Printf.sprintf
             "polymorphic (%s) in a comparator; use the monomorphic \
              String.compare / Int.compare family instead"
             x)
    | _ -> ()

(* Mark the comparator argument of a sort-family application so the
   normal descent knows it has entered a comparator position. *)
let mark_comparators ctx fn args =
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match path_of_lid txt with
      | Some path when List.mem (dotted path) c001_sort_functions -> (
          match
            List.find_opt (fun (lbl, _) -> lbl = Asttypes.Nolabel) args
          with
          | Some (_, cmp) ->
              ctx.comparator_marks <- cmp :: ctx.comparator_marks
          | None -> ())
      | _ -> ())
  | _ -> ()

(* ---------------------------------------------------------------- *)
(* C002: catch-all exception handlers *)

let rec catches_everything pat =
  match pat.ppat_desc with
  | Ppat_any -> true
  | Ppat_or (a, b) -> catches_everything a || catches_everything b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> catches_everything p
  | _ -> false

let check_c002_cases ctx cases =
  List.iter
    (fun c ->
      let pat =
        match c.pc_lhs.ppat_desc with
        | Ppat_exception p -> Some p (* [match ... with exception _ ->] *)
        | _ -> Some c.pc_lhs
      in
      match pat with
      | Some p when catches_everything p ->
          report ctx p.ppat_loc "C002"
            "catch-all [with _ ->] swallows Assert_failure / \
             Out_of_memory / injected-fault exceptions; match the \
             exceptions you expect explicitly (binding [with e ->] and \
             re-raising is also acceptable)"
      | _ -> ())
    cases

let check_c002_match ctx cases =
  (* Only exception cases of a [match] are exception handlers. *)
  List.iter
    (fun c ->
      match c.pc_lhs.ppat_desc with
      | Ppat_exception p when catches_everything p ->
          report ctx p.ppat_loc "C002"
            "catch-all [with exception _ ->] swallows Assert_failure / \
             Out_of_memory / injected-fault exceptions; match the \
             exceptions you expect explicitly"
      | _ -> ())
    cases

(* ---------------------------------------------------------------- *)
(* A001: module-access matrix *)

let rec is_prefix prefix path =
  match (prefix, path) with
  | [], _ -> true
  | _, [] -> false
  | p :: ps, x :: xs -> String.equal p x && is_prefix ps xs

let dir_allowed file allowed_dirs =
  let dir = Filename.dirname file in
  List.exists
    (fun d ->
      String.equal dir d
      || String.length dir > String.length d
         && String.sub dir 0 (String.length d + 1) = d ^ "/")
    allowed_dirs

let check_a001 ctx loc path =
  List.iter
    (fun (rule : Config.access_rule) ->
      if
        List.exists
          (fun r -> is_prefix (String.split_on_char '.' r) path)
          rule.restricted
        && not (dir_allowed ctx.file rule.allowed_dirs)
      then
        report ctx loc "A001"
          (Printf.sprintf
             "reference to restricted module %s from %s: %s (allowed \
              from: %s)"
             (dotted path)
             (Filename.dirname ctx.file)
             rule.why
             (String.concat ", " rule.allowed_dirs)))
    ctx.config.access_matrix

(* ---------------------------------------------------------------- *)
(* F001: foreign functions outside the vetted units *)

(* The unit's wrapper path: [lib/util/crc32c.ml] is [Repro_util.Crc32c];
   a unit outside any wrapped library is just its module name. *)
let unit_path ctx =
  let m =
    String.capitalize_ascii
      (Filename.remove_extension (Filename.basename ctx.file))
  in
  let dir = Filename.dirname ctx.file in
  match
    List.find_opt (fun (_, d) -> String.equal d dir) ctx.config.library_wrappers
  with
  | Some (wrapper, _) -> wrapper ^ "." ^ m
  | None -> m

let check_f001 ctx (vd : value_description) =
  if vd.pval_prim <> [] then
    let unit = unit_path ctx in
    if not (List.mem_assoc unit ctx.config.externals_allowed) then
      report ctx vd.pval_loc "F001"
        (Printf.sprintf
           "external %s in %s: the effect analysis cannot see into C, so \
            its nondeterminism, I/O, mutation and raises are invisible to \
            D003/E001/C003/Y001 — vet it and add %s to \
            Lint.Config.externals_allowed with a rationale"
           vd.pval_name.txt unit unit)

(* Every rule that looks at a dotted identifier path. *)
let check_path ctx loc path =
  check_d001 ctx loc path;
  check_d002 ctx loc path;
  check_c001_ident ctx loc path;
  check_a001 ctx loc path

let check_lid ctx loc lid =
  match path_of_lid lid with Some p -> check_path ctx loc p | None -> ()

(* ---------------------------------------------------------------- *)
(* The iterator *)

let make_iterator ctx =
  let default = Ast_iterator.default_iterator in
  let expr self e =
    with_allows ctx e.pexp_attributes (fun () ->
        (* Enter comparator scope before the checks so that a bare
           [List.sort compare] flags the [compare] node itself. *)
        let marked = List.memq e ctx.comparator_marks in
        if marked then begin
          ctx.comparator_marks <-
            List.filter (fun m -> m != e) ctx.comparator_marks;
          ctx.in_comparator <- ctx.in_comparator + 1
        end;
        (match e.pexp_desc with
        | Pexp_ident { txt; loc } -> check_lid ctx loc txt
        | Pexp_apply (fn, args) -> mark_comparators ctx fn args
        | Pexp_try (_, cases) -> check_c002_cases ctx cases
        | Pexp_match (_, cases) -> check_c002_match ctx cases
        | Pexp_construct ({ txt; loc }, _) -> check_lid ctx loc txt
        | _ -> ());
        default.expr self e;
        if marked then ctx.in_comparator <- ctx.in_comparator - 1)
  in
  let typ self t =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; loc }, _) -> check_lid ctx loc txt
    | _ -> ());
    default.typ self t
  in
  let module_expr self m =
    (match m.pmod_desc with
    | Pmod_ident { txt; loc } -> check_lid ctx loc txt
    | _ -> ());
    default.module_expr self m
  in
  let value_binding self vb =
    with_allows ctx vb.pvb_attributes (fun () ->
        default.value_binding self vb)
  in
  let value_description self vd =
    with_allows ctx vd.pval_attributes (fun () ->
        check_f001 ctx vd;
        default.value_description self vd)
  in
  let module_binding self mb =
    with_allows ctx mb.pmb_attributes (fun () ->
        default.module_binding self mb)
  in
  (* Floating [@@@lint.allow "..."] applies to the rest of the file. *)
  let structure self items =
    let saved = ctx.scope in
    List.iter
      (fun item ->
        (match item.pstr_desc with
        | Pstr_attribute a ->
            ctx.scope <- allows_of_attribute ctx a @ ctx.scope
        | _ -> ());
        self.Ast_iterator.structure_item self item)
      items;
    ctx.scope <- saved
  in
  let signature self items =
    let saved = ctx.scope in
    List.iter
      (fun item ->
        (match item.psig_desc with
        | Psig_attribute a ->
            ctx.scope <- allows_of_attribute ctx a @ ctx.scope
        | _ -> ());
        self.Ast_iterator.signature_item self item)
      items;
    ctx.scope <- saved
  in
  {
    default with
    Ast_iterator.expr;
    typ;
    module_expr;
    value_binding;
    value_description;
    module_binding;
    structure;
    signature;
  }

(* ---------------------------------------------------------------- *)
(* Entry point *)

let lint_source ~config ~path source =
  let ctx =
    {
      file = path;
      config;
      findings = [];
      scope = [];
      in_comparator = 0;
      comparator_marks = [];
    }
  in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  let iter = make_iterator ctx in
  (try
     if Filename.check_suffix path ".mli" then
       iter.Ast_iterator.signature iter (Parse.interface lexbuf)
     else iter.Ast_iterator.structure iter (Parse.implementation lexbuf)
   with
  | Syntaxerr.Error err ->
      let loc = Syntaxerr.location_of_error err in
      report ctx loc "P000" "file does not parse (syntax error)"
  | Lexer.Error (_, loc) ->
      report ctx loc "P000" "file does not parse (lexer error)");
  List.sort Finding.compare ctx.findings
