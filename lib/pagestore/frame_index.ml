(* The buffer pool's page table: page id -> frame slot, by open
   addressing over two int arrays. The pool holds at most [capacity]
   pages, so a table of at least twice that many cells never fills past
   half; a removal shifts the rest of its probe run back (no
   tombstones), so probe runs stay as short as the live pages make
   them. Nothing here allocates after [create]. *)

type t = {
  keys : int array;  (* page id, or [empty] *)
  slots : int array;
  mask : int;
  shift : int;  (* [63 - log2 size]: the product's top bits pick the cell *)
  mutable length : int;
}

let empty = -1

let create ~capacity =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * capacity do
    incr bits
  done;
  let size = 1 lsl !bits in
  { keys = Array.make size empty; slots = Array.make size 0; mask = size - 1;
    shift = 63 - !bits; length = 0 }

(* Fibonacci hashing: consecutive page ids land far apart. *)
let home t id = (id * 0x9E3779B97F4A7C1) lsr t.shift

(* The cell holding [id], or the empty cell ending its probe run. *)
let cell t id =
  let i = ref (home t id) in
  while
    let k = Array.unsafe_get t.keys !i in
    k <> id && k <> empty
  do
    i := (!i + 1) land t.mask
  done;
  !i

let find t id =
  let i = cell t id in
  if Array.unsafe_get t.keys i = id then Array.unsafe_get t.slots i else -1

let add t id slot =
  if id < 0 then invalid_arg "Frame_index.add: negative page id";
  let i = cell t id in
  if t.keys.(i) = empty then begin
    if 2 * (t.length + 1) > Array.length t.keys then failwith "Frame_index.add: full";
    t.length <- t.length + 1;
    t.keys.(i) <- id
  end;
  t.slots.(i) <- slot

let remove t id =
  let i = cell t id in
  if t.keys.(i) = id then begin
    t.length <- t.length - 1;
    (* Backward shift: walk the rest of the run, moving back into the
       hole every entry whose home does not lie between the hole and
       its cell, so every remaining entry stays reachable from home. *)
    let hole = ref i and j = ref ((i + 1) land t.mask) in
    while t.keys.(!j) <> empty do
      let k = t.keys.(!j) in
      if (!j - home t k) land t.mask >= (!j - !hole) land t.mask then begin
        t.keys.(!hole) <- k;
        t.slots.(!hole) <- t.slots.(!j);
        hole := !j
      end;
      j := (!j + 1) land t.mask
    done;
    t.keys.(!hole) <- empty
  end

let clear t =
  Array.fill t.keys 0 (Array.length t.keys) empty;
  t.length <- 0

let length t = t.length

let bindings t =
  let acc = ref [] in
  Array.iteri (fun i k -> if k <> empty then acc := (k, t.slots.(i)) :: !acc) t.keys;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !acc
