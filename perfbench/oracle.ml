(* Shadow model of the store: every acknowledged put, kept in key order so
   both point reads and scans can be checked in full. *)

module SMap = Map.Make (String)

type t = {
  mutable model : string SMap.t;
  mutable live_bytes : int;  (* sum of key + value bytes of live records *)
  mutable checked : int;
  mutable wrong : int;
  mutable first_wrong : string option;
}

let create () =
  { model = SMap.empty; live_bytes = 0; checked = 0; wrong = 0; first_wrong = None }

let put t key value =
  (match SMap.find_opt key t.model with
  | Some old -> t.live_bytes <- t.live_bytes - String.length key - String.length old
  | None -> ());
  t.live_bytes <- t.live_bytes + String.length key + String.length value;
  t.model <- SMap.add key value t.model

let verdict t ok what =
  t.checked <- t.checked + 1;
  if not ok then begin
    t.wrong <- t.wrong + 1;
    if Option.is_none t.first_wrong then t.first_wrong <- Some what
  end

let check_get t key got =
  verdict t
    (Option.equal String.equal got (SMap.find_opt key t.model))
    (Printf.sprintf "get %S" key)

(* The first [n] live records with key >= [start]: matching this list
   checks values, order, the start bound and that no live key was
   skipped, all at once. *)
let expected_scan t start n =
  let rec take i seq =
    if i = 0 then []
    else match seq () with Seq.Nil -> [] | Seq.Cons (kv, rest) -> kv :: take (i - 1) rest
  in
  take n (SMap.to_seq_from start t.model)

let check_scan t start n got =
  let same (k1, v1) (k2, v2) = String.equal k1 k2 && String.equal v1 v2 in
  verdict t
    (List.equal same got (expected_scan t start n))
    (Printf.sprintf "scan %S %d" start n)
