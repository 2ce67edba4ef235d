(** Repro files: JSON round-trip for {!Plan} traces.

    A failing plan — typically after {!Shrink} — is written as a
    self-contained JSON file ([{"dst_repro":1, ...}]) that
    [blsm_cli dst replay <file>] and the [test_dst] regression runner
    replay byte-for-byte. The format is a plain op/fault tree: no
    closures, no engine state, so a repro from one build replays on the
    next as long as the plan grammar is compatible.

    The writer escapes strings with {!Obs.Json.escape} (every
    non-printable byte as [\u00XX]); the reader
    is a small recursive-descent parser (no JSON dependency in the
    container) that decodes exactly what the writer emits plus ordinary
    hand-edits. *)

(* ------------------------------------------------------------------ *)
(* Writer *)

let str s = "\"" ^ Obs.Json.escape s ^ "\""

let fault_json = function
  | Plan.F_lost_page after ->
      Printf.sprintf "{\"kind\":\"lost_page\",\"after\":%d}" after
  | Plan.F_flip_page after ->
      Printf.sprintf "{\"kind\":\"flip_page\",\"after\":%d}" after
  | Plan.F_crash_page { after; torn } ->
      Printf.sprintf "{\"kind\":\"crash_page\",\"after\":%d,\"torn\":%b}"
        after torn
  | Plan.F_crash_wal { after; torn } ->
      Printf.sprintf "{\"kind\":\"crash_wal\",\"after\":%d,\"torn\":%b}" after
        torn

let item_json = function
  | Plan.B_put (k, v) ->
      Printf.sprintf "{\"kind\":\"b_put\",\"key\":%s,\"value\":%s}" (str k)
        (str v)
  | Plan.B_del k -> Printf.sprintf "{\"kind\":\"b_del\",\"key\":%s}" (str k)

let txn_op_json = function
  | Plan.T_get k -> Printf.sprintf "{\"kind\":\"t_get\",\"key\":%s}" (str k)
  | Plan.T_put (k, v) ->
      Printf.sprintf "{\"kind\":\"t_put\",\"key\":%s,\"value\":%s}" (str k)
        (str v)
  | Plan.T_delete k ->
      Printf.sprintf "{\"kind\":\"t_delete\",\"key\":%s}" (str k)
  | Plan.T_rmw (k, s) ->
      Printf.sprintf "{\"kind\":\"t_rmw\",\"key\":%s,\"suffix\":%s}" (str k)
        (str s)

let op_json = function
  | Plan.Put (k, v) ->
      Printf.sprintf "{\"kind\":\"put\",\"key\":%s,\"value\":%s}" (str k)
        (str v)
  | Plan.Get k -> Printf.sprintf "{\"kind\":\"get\",\"key\":%s}" (str k)
  | Plan.Delete k -> Printf.sprintf "{\"kind\":\"delete\",\"key\":%s}" (str k)
  | Plan.Delta (k, d) ->
      Printf.sprintf "{\"kind\":\"delta\",\"key\":%s,\"delta\":%s}" (str k)
        (str d)
  | Plan.Rmw (k, s) ->
      Printf.sprintf "{\"kind\":\"rmw\",\"key\":%s,\"suffix\":%s}" (str k)
        (str s)
  | Plan.Insert_if_absent (k, v) ->
      Printf.sprintf "{\"kind\":\"ifabsent\",\"key\":%s,\"value\":%s}" (str k)
        (str v)
  | Plan.Scan (k, n) ->
      Printf.sprintf "{\"kind\":\"scan\",\"key\":%s,\"n\":%d}" (str k) n
  | Plan.Write_batch items ->
      Printf.sprintf "{\"kind\":\"batch\",\"items\":[%s]}"
        (String.concat "," (List.map item_json items))
  | Plan.Txn { t_ops; t_interleave } ->
      let inter =
        match t_interleave with
        | None -> ""
        | Some (k, v) ->
            Printf.sprintf ",\"interleave\":{\"key\":%s,\"value\":%s}"
              (str k) (str v)
      in
      Printf.sprintf "{\"kind\":\"txn\",\"ops\":[%s]%s}"
        (String.concat "," (List.map txn_op_json t_ops))
        inter
  | Plan.Crash_recover -> "{\"kind\":\"crash_recover\"}"
  | Plan.Scrub -> "{\"kind\":\"scrub\"}"
  | Plan.Maintenance -> "{\"kind\":\"maintenance\"}"
  | Plan.Flush -> "{\"kind\":\"flush\"}"
  | Plan.Checkpoint -> "{\"kind\":\"checkpoint\"}"

let step_json (s : Plan.step) =
  Printf.sprintf "  {\"faults\":[%s],\n   \"op\":%s}"
    (String.concat "," (List.map fault_json s.Plan.faults))
    (op_json s.Plan.op)

let to_json (p : Plan.t) =
  Printf.sprintf
    "{\"dst_repro\":1,\n\
     \"driver\":%s,\n\
     \"seed\":%d,\n\
     \"note\":%s,\n\
     \"steps\":[\n\
     %s\n\
     ]}\n"
    (str p.Plan.driver) p.Plan.seed (str p.Plan.note)
    (String.concat ",\n" (List.map step_json p.Plan.steps))

let save path plan =
  let oc = open_out path in
  output_string oc (to_json plan);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Reader: minimal recursive-descent JSON, tolerant of whitespace *)

exception Parse_error of string

type json =
  | J_null
  | J_bool of bool
  | J_int of int
  | J_string of string
  | J_list of json list
  | J_obj of (string * json) list

let parse_json (s : string) : json =
  let pos = ref 0 in
  let len = String.length s in
  let err what = raise (Parse_error (Printf.sprintf "%s at %d" what !pos)) in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> err (Printf.sprintf "expected %C" c)
  in
  let hex c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> err "bad hex digit"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= len then err "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          (if !pos >= len then err "unterminated escape";
           let e = s.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' -> Buffer.add_char b '/'
           | 'n' -> Buffer.add_char b '\n'
           | 't' -> Buffer.add_char b '\t'
           | 'r' -> Buffer.add_char b '\r'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'u' ->
               if !pos + 4 > len then err "short \\u escape";
               let code =
                 (hex s.[!pos] * 4096)
                 + (hex s.[!pos + 1] * 256)
                 + (hex s.[!pos + 2] * 16)
                 + hex s.[!pos + 3]
               in
               pos := !pos + 4;
               if code < 256 then Buffer.add_char b (Char.chr code)
               else
                 (* non-latin1 codepoints don't occur in plans we write;
                    keep a visible placeholder rather than losing bytes *)
                 Buffer.add_char b '?'
           | _ -> err "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> J_string (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J_obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> err "expected , or }"
          in
          J_obj (fields [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J_list []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> err "expected , or ]"
          in
          J_list (elems [])
        end
    | Some 't' ->
        pos := !pos + 4;
        J_bool true
    | Some 'f' ->
        pos := !pos + 5;
        J_bool false
    | Some 'n' ->
        pos := !pos + 4;
        J_null
    | Some ('-' | '0' .. '9') ->
        let start = !pos in
        if peek () = Some '-' then advance ();
        while
          match peek () with Some '0' .. '9' -> true | _ -> false
        do
          advance ()
        done;
        J_int (int_of_string (String.sub s start (!pos - start)))
    | _ -> err "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  v

(* ------------------------------------------------------------------ *)
(* JSON -> Plan *)

let field obj name =
  match obj with
  | J_obj fields -> List.assoc_opt name fields
  | _ -> None

let need what = function
  | Some v -> v
  | None -> raise (Parse_error ("missing field " ^ what))

let as_string what = function
  | J_string s -> s
  | _ -> raise (Parse_error (what ^ ": expected string"))

let as_int what = function
  | J_int i -> i
  | _ -> raise (Parse_error (what ^ ": expected int"))

let as_bool what = function
  | J_bool b -> b
  | _ -> raise (Parse_error (what ^ ": expected bool"))

let as_list what = function
  | J_list l -> l
  | _ -> raise (Parse_error (what ^ ": expected list"))

let get_str obj name = as_string name (need name (field obj name))
let get_int obj name = as_int name (need name (field obj name))

let get_bool_opt obj name ~default =
  match field obj name with Some v -> as_bool name v | None -> default

let fault_of_json j =
  let after () = get_int j "after" in
  let torn () = get_bool_opt j "torn" ~default:false in
  match get_str j "kind" with
  | "lost_page" -> Plan.F_lost_page (after ())
  | "flip_page" -> Plan.F_flip_page (after ())
  | "crash_page" -> Plan.F_crash_page { after = after (); torn = torn () }
  | "crash_wal" -> Plan.F_crash_wal { after = after (); torn = torn () }
  | k -> raise (Parse_error ("unknown fault kind " ^ k))

let item_of_json j =
  match get_str j "kind" with
  | "b_put" -> Plan.B_put (get_str j "key", get_str j "value")
  | "b_del" -> Plan.B_del (get_str j "key")
  | k -> raise (Parse_error ("unknown batch item kind " ^ k))

let txn_op_of_json j =
  match get_str j "kind" with
  | "t_get" -> Plan.T_get (get_str j "key")
  | "t_put" -> Plan.T_put (get_str j "key", get_str j "value")
  | "t_delete" -> Plan.T_delete (get_str j "key")
  | "t_rmw" -> Plan.T_rmw (get_str j "key", get_str j "suffix")
  | k -> raise (Parse_error ("unknown txn op kind " ^ k))

let op_of_json j =
  match get_str j "kind" with
  | "put" -> Plan.Put (get_str j "key", get_str j "value")
  | "get" -> Plan.Get (get_str j "key")
  | "delete" -> Plan.Delete (get_str j "key")
  | "delta" -> Plan.Delta (get_str j "key", get_str j "delta")
  | "rmw" -> Plan.Rmw (get_str j "key", get_str j "suffix")
  | "ifabsent" -> Plan.Insert_if_absent (get_str j "key", get_str j "value")
  | "scan" -> Plan.Scan (get_str j "key", get_int j "n")
  | "batch" ->
      Plan.Write_batch
        (List.map item_of_json (as_list "items" (need "items" (field j "items"))))
  | "txn" ->
      let t_ops =
        List.map txn_op_of_json
          (as_list "ops" (need "ops" (field j "ops")))
      in
      let t_interleave =
        match field j "interleave" with
        | None | Some J_null -> None
        | Some ij -> Some (get_str ij "key", get_str ij "value")
      in
      Plan.Txn { t_ops; t_interleave }
  | "crash_recover" -> Plan.Crash_recover
  | "scrub" -> Plan.Scrub
  | "maintenance" -> Plan.Maintenance
  | "flush" -> Plan.Flush
  | "checkpoint" -> Plan.Checkpoint
  | k -> raise (Parse_error ("unknown op kind " ^ k))

let step_of_json j =
  let faults =
    match field j "faults" with
    | None -> []
    | Some fj -> List.map fault_of_json (as_list "faults" fj)
  in
  { Plan.faults; op = op_of_json (need "op" (field j "op")) }

(** [of_json s] parses a repro file body back into a plan. Raises
    {!Parse_error} on malformed input. *)
let of_json (s : string) : Plan.t =
  let j = parse_json s in
  (match field j "dst_repro" with
  | Some (J_int 1) -> ()
  | _ -> raise (Parse_error "not a dst repro file (want \"dst_repro\":1)"));
  {
    Plan.driver = get_str j "driver";
    seed = get_int j "seed";
    note = (match field j "note" with Some n -> as_string "note" n | None -> "");
    steps =
      List.map step_of_json
        (as_list "steps" (need "steps" (field j "steps")));
  }

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  of_json body
