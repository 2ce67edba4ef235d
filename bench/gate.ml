(* Regression gates of the bench reports (perf, soak, grid): one record,
   one JSON rendering and one exit check. *)

type t = { name : string; value : float; limit : float; ok : bool }

(* Passes while [value <= limit]. *)
let at_most name value limit = { name; value; limit; ok = value <= limit }

(* Passes while [value >= limit]. *)
let at_least name value limit = { name; value; limit; ok = value >= limit }

(* One gate as a JSON object, value and limit with [digits] decimals. *)
let to_json ~digits g =
  Printf.sprintf "{\"name\": \"%s\", \"value\": %.*f, \"limit\": %.*f, \"ok\": %b}"
    (Obs.Json.escape g.name) digits g.value digits g.limit g.ok

(* Print every tripped gate; exit 1 if any tripped. *)
let exit_on_failure ~digits gates =
  let failed = List.filter (fun g -> not g.ok) gates in
  List.iter
    (fun g ->
      Printf.printf "GATE FAILED: %s = %.*f vs limit %.*f\n" g.name digits
        g.value digits g.limit)
    failed;
  if failed <> [] then exit 1
