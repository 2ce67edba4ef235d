type format = Chrome | Jsonl

type arg = I of int | F of float | S of string | B of bool

type sink = {
  sk_format : format;
  sk_write : string -> unit;
  sk_finish : unit -> unit;
  mutable sk_count : int;  (* events written to this sink, for Chrome comma placement *)
}

type t = {
  now : unit -> float;
  mutable sink : sink option;
  mutable emitted : int;
}

let create ?(now = fun () -> 0.0) () = { now; sink = None; emitted = 0 }

let now_us t = t.now ()
let enabled t = t.sink <> None
let events_emitted t = t.emitted

(* Fixed-format floats keep trace bytes identical across runs: the
   simulated clock is exact in µs-with-fraction, and %.3f never prints
   locale- or platform-dependent digits. *)
let fmt_float f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "0.000"
  | _ -> Printf.sprintf "%.3f" f

let add_arg buf (k, v) =
  Buffer.add_char buf '"';
  Json.add_escaped buf k;
  Buffer.add_string buf "\":";
  match v with
  | I i -> Buffer.add_string buf (string_of_int i)
  | F f -> Buffer.add_string buf (fmt_float f)
  | B b -> Buffer.add_string buf (if b then "true" else "false")
  | S s ->
      Buffer.add_char buf '"';
      Json.add_escaped buf s;
      Buffer.add_char buf '"'

let event_json ~ph ~cat ~name ~ts_us ?dur_us ~args () =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "{\"name\":\"";
  Json.add_escaped buf name;
  Buffer.add_string buf "\",\"cat\":\"";
  Json.add_escaped buf cat;
  Buffer.add_string buf "\",\"ph\":\"";
  Buffer.add_string buf ph;
  Buffer.add_string buf "\",\"ts\":";
  Buffer.add_string buf (fmt_float ts_us);
  (match dur_us with
  | Some d ->
      Buffer.add_string buf ",\"dur\":";
      Buffer.add_string buf (fmt_float d)
  | None -> ());
  Buffer.add_string buf ",\"pid\":1,\"tid\":1";
  if ph = "i" then Buffer.add_string buf ",\"s\":\"t\"";
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string buf ",\"args\":{";
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_char buf ',';
          add_arg buf a)
        args;
      Buffer.add_char buf '}');
  Buffer.add_char buf '}';
  Buffer.contents buf

let chrome_header = "{\"traceEvents\":[\n"
let chrome_footer = "\n]}\n"

let finish_sink sk =
  (match sk.sk_format with
  | Chrome -> sk.sk_write chrome_footer
  | Jsonl -> ());
  sk.sk_finish ()

let disable t =
  match t.sink with
  | None -> ()
  | Some sk ->
      t.sink <- None;
      finish_sink sk

let attach t sk =
  disable t;
  (match sk.sk_format with
  | Chrome -> sk.sk_write chrome_header
  | Jsonl -> ());
  t.sink <- Some sk

let enable_file t ~format path =
  let oc = open_out path in
  attach t
    {
      sk_format = format;
      sk_write = (fun s -> output_string oc s);
      sk_finish = (fun () -> close_out oc);
      sk_count = 0;
    }

let enable_buffer t ~format =
  let buf = Buffer.create 4096 in
  let finished = ref None in
  let sk =
    {
      sk_format = format;
      sk_write = (fun s -> Buffer.add_string buf s);
      sk_finish = (fun () -> finished := Some (Buffer.contents buf));
      sk_count = 0;
    }
  in
  attach t sk;
  fun () ->
    (match t.sink with
    | Some cur when cur == sk -> disable t
    | _ -> ());
    match !finished with Some s -> s | None -> Buffer.contents buf

let emit t ~ph ~cat ~name ~ts_us ?dur_us ~args () =
  match t.sink with
  | None -> ()
  | Some sk ->
      let line = event_json ~ph ~cat ~name ~ts_us ?dur_us ~args () in
      (match sk.sk_format with
      | Chrome ->
          if sk.sk_count > 0 then sk.sk_write ",\n";
          sk.sk_write line
      | Jsonl ->
          sk.sk_write line;
          sk.sk_write "\n");
      sk.sk_count <- sk.sk_count + 1;
      t.emitted <- t.emitted + 1

let instant t ~cat ~name ~args =
  if t.sink <> None then emit t ~ph:"i" ~cat ~name ~ts_us:(t.now ()) ~args ()

let complete t ~cat ~name ~ts_us ~dur_us ~args =
  if t.sink <> None then emit t ~ph:"X" ~cat ~name ~ts_us ~dur_us ~args ()

let counter t ~name ~ts_us ~args =
  if t.sink <> None then emit t ~ph:"C" ~cat:"counter" ~name ~ts_us ~args ()
