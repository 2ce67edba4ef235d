module H = Repro_util.Histogram

type value =
  | Counter of (unit -> int)
  | Gauge of (unit -> float)
  | Hist of H.t

type metric = { m_name : string; m_help : string; m_value : value }

type t = { mutable metrics : metric list (* reverse registration order *) }

let create () = { metrics = [] }

let register t name ~help value =
  if List.exists (fun m -> m.m_name = name) t.metrics then
    invalid_arg (Printf.sprintf "Obs.Metrics: duplicate metric %S" name);
  t.metrics <- { m_name = name; m_help = help; m_value = value } :: t.metrics

let counter t name ~help f = register t name ~help (Counter f)
let gauge t name ~help f = register t name ~help (Gauge f)
let histogram t name ~help h = register t name ~help (Hist h)

let sorted ?(prefix = "") t =
  List.filter
    (fun m ->
      String.length m.m_name >= String.length prefix
      && String.sub m.m_name 0 (String.length prefix) = prefix)
    t.metrics
  |> List.sort (fun a b -> String.compare a.m_name b.m_name)

let names t = List.map (fun m -> m.m_name) (sorted t)

let fmt_float f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "0"
  | _ -> Printf.sprintf "%.3f" f

(* Histogram summary sampled at dump time, shared by both writers. *)
let hist_fields h =
  [
    ("count", `I (H.count h));
    ("mean", `F (H.mean h));
    ("p50", `I (H.percentile h 50.0));
    ("p99", `I (H.percentile h 99.0));
    ("p999", `I (H.percentile h 99.9));
    ("max", `I (H.max_value h));
  ]

let dump ?prefix t =
  let buf = Buffer.create 512 in
  List.iter
    (fun m ->
      match m.m_value with
      | Counter f -> Buffer.add_string buf (Printf.sprintf "%s %d\n" m.m_name (f ()))
      | Gauge f ->
          Buffer.add_string buf (Printf.sprintf "%s %s\n" m.m_name (fmt_float (f ())))
      | Hist h ->
          List.iter
            (fun (k, v) ->
              let s = match v with `I i -> string_of_int i | `F f -> fmt_float f in
              Buffer.add_string buf (Printf.sprintf "%s.%s %s\n" m.m_name k s))
            (hist_fields h))
    (sorted ?prefix t);
  Buffer.contents buf

let dump_json ?prefix t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf (Printf.sprintf "\n  \"%s\": " (Json.escape m.m_name));
      match m.m_value with
      | Counter f -> Buffer.add_string buf (string_of_int (f ()))
      | Gauge f -> Buffer.add_string buf (fmt_float (f ()))
      | Hist h ->
          Buffer.add_string buf "{";
          List.iteri
            (fun j (k, v) ->
              if j > 0 then Buffer.add_string buf ", ";
              let s = match v with `I i -> string_of_int i | `F f -> fmt_float f in
              Buffer.add_string buf (Printf.sprintf "\"%s\": %s" k s))
            (hist_fields h);
          Buffer.add_string buf "}")
    (sorted ?prefix t);
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

(* help strings are carried for future self-describing dumps; keep the
   field referenced so the compiler tracks it. *)
let _ = fun m -> m.m_help
