(** Deterministic skip list: the ordered map behind C0.

    The in-memory tree must support efficient ordered scans and cheap
    successor queries (§2.3.1); the snowshovel cursor (§4.2) additionally
    needs "smallest key >= cursor" in O(log n). A skip list provides all of
    these with simple single-threaded mutation. Levels are drawn from the
    repository PRNG, so runs are reproducible.

    Forward pointers are unboxed: every level ends at a per-list [nil]
    sentinel node instead of [None], so the descent compares pointers
    ([!=]) rather than destructuring an [option] per hop — no [Some]
    allocation at insert, one less indirection on the hot comparison
    path. *)

let max_level = 20
let branching = 4 (* promote with probability 1/4 *)

type 'a node = {
  key : string; (* "" for the head and nil sentinels *)
  mutable value : 'a;
  forward : 'a node array; (* physically [nil] past the last node *)
}

type 'a t = {
  head : 'a node;
  nil : 'a node; (* unique per list; compared with [==] only *)
  preds : 'a node array;
      (* predecessor scratch for [set]/[remove_succ], reused by every call:
         levels [0, level) are rewritten by each descent before use *)
  prng : Repro_util.Prng.t;
  mutable level : int; (* highest level in use, >= 1 *)
  mutable length : int;
}

let create ?(seed = 42) () =
  let nil = { key = ""; value = Obj.magic 0; forward = [||] } in
  let head = { key = ""; value = Obj.magic 0; forward = Array.make max_level nil } in
  {
    head;
    nil;
    preds = Array.make max_level head;
    prng = Repro_util.Prng.of_int seed;
    level = 1;
    length = 0;
  }

let length t = t.length

let is_empty t = t.length = 0

let random_level t =
  let rec go lvl =
    if lvl < max_level && Repro_util.Prng.int t.prng branching = 0 then
      go (lvl + 1)
    else lvl
  in
  go 1

(* Rightmost node whose key < [key], starting the walk at [from] on level
   [lvl]. *)
let rec advance t node lvl key =
  let nxt = node.forward.(lvl) in
  if nxt != t.nil && String.compare nxt.key key < 0 then advance t nxt lvl key
  else node

(* Walk down from the top level, collecting the rightmost node < key at
   each level into [update]. *)
let find_predecessors t key update =
  let x = ref t.head in
  for lvl = t.level - 1 downto 0 do
    x := advance t !x lvl key;
    update.(lvl) <- !x
  done;
  !x

(* Descend without recording predecessors (read-only lookups). *)
let find_floor t key =
  let x = ref t.head in
  for lvl = t.level - 1 downto 0 do
    x := advance t !x lvl key
  done;
  !x

let binding t n = if n == t.nil then None else Some (n.key, n.value)

(** [find t key] returns the stored value, if any. *)
let find t key =
  let n = (find_floor t key).forward.(0) in
  if n != t.nil && String.equal n.key key then Some n.value else None

(** [set t key v] binds [key] to [v] in one descent, replacing any
    previous value. *)
let set t key v =
  let preds = t.preds in
  let pred = find_predecessors t key preds in
  let n = pred.forward.(0) in
  if n != t.nil && String.equal n.key key then n.value <- v
  else begin
    let lvl = random_level t in
    if lvl > t.level then begin
      for l = t.level to lvl - 1 do
        preds.(l) <- t.head
      done;
      t.level <- lvl
    end;
    let node = { key; value = v; forward = Array.make lvl t.nil } in
    for l = 0 to lvl - 1 do
      node.forward.(l) <- preds.(l).forward.(l);
      preds.(l).forward.(l) <- node
    done;
    t.length <- t.length + 1
  end

(** [remove_succ t key] deletes [key]'s binding, if any, and returns the
    smallest binding with key > [key], in the one descent that found the
    unlinked node's predecessors: a consumer walking the list in order
    removes a record and learns the next one together. *)
let remove_succ t key =
  let preds = t.preds in
  let pred = find_predecessors t key preds in
  let n = pred.forward.(0) in
  if n != t.nil && String.equal n.key key then begin
    for l = 0 to Array.length n.forward - 1 do
      preds.(l).forward.(l) <- n.forward.(l)
    done;
    while t.level > 1 && t.head.forward.(t.level - 1) == t.nil do
      t.level <- t.level - 1
    done;
    t.length <- t.length - 1;
    binding t n.forward.(0)
  end
  else binding t n

(** [succ_geq t key] returns the smallest binding with key >= [key]:
    the snowshovel cursor's primitive. *)
let succ_geq t key = binding t (find_floor t key).forward.(0)

(** [succ_gt t key] returns the smallest binding with key > [key]: the
    resume step of an ordered pull whose cursor is the last key it
    returned. *)
let succ_gt t key =
  let n = (find_floor t key).forward.(0) in
  binding t (if n != t.nil && String.equal n.key key then n.forward.(0) else n)

(** [fold t init f] folds bindings in key order. *)
let fold t init f =
  let rec go acc n =
    if n == t.nil then acc else go (f acc n.key n.value) n.forward.(0)
  in
  go init t.head.forward.(0)
