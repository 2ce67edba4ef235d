(** C0's key order: one growable run of sorted leaves of at most [width]
    entries under a single separator array.

    A leaf keeps each entry's key and value in a fixed slot, written once
    when the entry arrives and cleared when it leaves; key order lives in
    [perm], a byte per position naming the slot, beside [pre], each
    position's key prefix (see {!Repro_util.Key_prefix}) after the common
    prefix [cp] of every key the index has seen. An insert or a removal
    shifts those two byte strings with [memmove] and stores two pointers:
    shifting the pointers themselves in a major-heap array would pay the
    write barrier once per entry moved. A search compares ints and reads a
    key string only on a tie.

    The leaves sit in key order in [leaves], each with its separator: the
    smallest key it may hold (unused for the first leaf). A full leaf
    splits in half and an emptied one is dropped, so every leaf but a lone
    last one holds an entry; both shift the leaves after it, one pointer
    per leaf through the write barrier. That is ~100 pointers at the C0
    sizes the benchmarks reach, and dominates at a million keys (~30k
    leaves). No entry moves between leaves otherwise.

    The finger is the snowshovel's position (§4.2): the entry the last
    {!seek_gt} found, with the probe [f_lo] it answered. While [f_ok],
    no entry lies strictly between [f_lo] and the finger's key, so a
    probe in that range, a probe at the finger's key and a {!pop} all
    resolve without a descent. A fresh insert into that gap clears
    [f_ok], one earlier in the finger's leaf moves its position, and a
    split clears it. A position is trusted only while the same key
    string sits there ({!holds}). *)

let width = 64
let half = width / 2

(* The [i]th 8-byte cell of [b]; the int64 stays unboxed. *)
let pre_get b i = Int64.to_int (Bytes.get_int64_le b (i lsl 3))
let pre_set b i p = Bytes.set_int64_le b (i lsl 3) (Int64.of_int p)

type 'a leaf = {
  keys : string array;  (** by slot *)
  vals : 'a array;  (** by slot *)
  perm : Bytes.t;  (** position -> slot; positions [n, width) hold the free slots *)
  pre : Bytes.t;  (** position -> key prefix past [cp] *)
  mutable n : int;
}

(* A position: position [i] of leaf [ci], which held key [k] when the
   position was taken. *)
type cursor = { mutable ci : int; mutable i : int; mutable k : string }

type 'a t = {
  mutable leaves : 'a leaf array;  (** in key order; cells [len, ...) repeat leaf 0 *)
  mutable seps : string array;  (** leaf [ci]'s smallest allowed key; [seps.(0)] unused *)
  mutable spre : Bytes.t;  (** separator prefixes past [cp] *)
  mutable len : int;
  mutable cp : string;
  mutable seen : bool;  (** [cp] is set: some key was inserted *)
  mutable count : int;
  d : cursor;  (** the last descent's position *)
  fp : cursor;  (** the finger *)
  mutable f_lo : string;
  mutable f_ok : bool;
}

let slot l i = Char.code (Bytes.unsafe_get l.perm i)
let key_at l i = Array.unsafe_get l.keys (slot l i)

let new_leaf () =
  {
    keys = Array.make width "";
    vals = Array.make width (Obj.magic 0);
    perm = Bytes.init width Char.chr;
    pre = Bytes.create (8 * width);
    n = 0;
  }

let cursor () = { ci = max_int; i = 0; k = "" }

let create () =
  {
    leaves = Array.make 4 (new_leaf ());
    seps = Array.make 4 "";
    spre = Bytes.create (8 * 4);
    len = 1;
    cp = "";
    seen = false;
    count = 0;
    d = cursor ();
    fp = cursor ();
    f_lo = "";
    f_ok = false;
  }

let length t = t.count
let is_empty t = t.count = 0

(* -------------------------------------------------------------------- *)
(* Searches *)

(* The last leaf whose separator is <= [key] (leaf 0 if none). *)
let child t key pk =
  let lo = ref 1 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let sp = pre_get t.spre mid in
    if sp < pk || (sp = pk && String.compare (Array.unsafe_get t.seps mid) key <= 0) then
      lo := mid + 1
    else hi := mid
  done;
  !lo - 1

(* The first position of [l] whose key is >= [key] (> [key] if [strict]). *)
let bound l key pk ~strict =
  let lo = ref 0 and hi = ref l.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let p = pre_get l.pre mid in
    if
      p < pk
      || p = pk
         &&
         let c = String.compare (key_at l mid) key in
         c < 0 || (strict && c = 0)
    then lo := mid + 1
    else hi := mid
  done;
  !lo

(* Moves [c] to the first entry at or after position [i] of leaf [ci];
   false, and [c] untouched, when there is none. *)
let rec settle t c ci i =
  if ci >= t.len then false
  else
    let l = Array.unsafe_get t.leaves ci in
    if i >= l.n then settle t c (ci + 1) 0
    else begin
      c.ci <- ci;
      c.i <- i;
      c.k <- key_at l i;
      true
    end

(* Descends to the leaf that may hold [key]: [t.d.ci], and the bound in
   that leaf as [t.d.i]. *)
let descend t key ~strict =
  let pk = Repro_util.Key_prefix.prefix_at key (String.length t.cp) in
  let ci = child t key pk in
  t.d.ci <- ci;
  t.d.i <- bound t.leaves.(ci) key pk ~strict;
  pk

(* Moves [c] to the smallest entry >= [key] (> [key] if [strict]). *)
let locate t c key ~strict =
  if t.count = 0 then false
  else
    let side = Repro_util.Key_prefix.against_common t.cp key in
    if side > 0 then false
    else if side < 0 then settle t c 0 0
    else begin
      ignore (descend t key ~strict : int);
      settle t c t.d.ci t.d.i
    end

(* [c] still names the entry it was taken at: keys are unique, so the
   same key string at the same position is the same entry. *)
let holds t c =
  c.ci < t.len
  &&
  let l = Array.unsafe_get t.leaves c.ci in
  c.i < l.n && key_at l c.i == c.k

(* Moves [c], which holds, to the next entry; unmoved when there is none. *)
let step t c = settle t c c.ci (c.i + 1)

(* -------------------------------------------------------------------- *)
(* Cursors *)

let cursor_key c = c.k
let cursor_value t c = let l = t.leaves.(c.ci) in Array.unsafe_get l.vals (slot l c.i)
let cursor_seek_geq t c key = locate t c key ~strict:false

(* After the entry [c] holds; when that entry left or moved, a descent
   past its key. Unmoved when nothing follows. *)
let cursor_next t c =
  if holds t c then step t c else locate t c c.k ~strict:true

(* -------------------------------------------------------------------- *)
(* Structure changes *)

(* Puts leaf [l] with separator [sep] at [at], after growing the run if
   it is full. *)
let leaf_insert t at l sep =
  if t.len = Array.length t.leaves then begin
    let cap = 2 * t.len in
    let leaves = Array.make cap t.leaves.(0) and seps = Array.make cap "" in
    let spre = Bytes.create (8 * cap) in
    Array.blit t.leaves 0 leaves 0 t.len;
    Array.blit t.seps 0 seps 0 t.len;
    Bytes.blit t.spre 0 spre 0 (8 * t.len);
    t.leaves <- leaves;
    t.seps <- seps;
    t.spre <- spre
  end;
  let n = t.len - at in
  Array.blit t.leaves at t.leaves (at + 1) n;
  Array.blit t.seps at t.seps (at + 1) n;
  Bytes.unsafe_blit t.spre (8 * at) t.spre (8 * (at + 1)) (8 * n);
  t.leaves.(at) <- l;
  t.seps.(at) <- sep;
  pre_set t.spre at (pre_get l.pre 0);
  t.len <- t.len + 1

(* Drops leaf [at]; the freed cell keeps a live leaf, so a dropped one is
   not held. *)
let leaf_remove t at =
  let n = t.len - at - 1 in
  Array.blit t.leaves (at + 1) t.leaves at n;
  Array.blit t.seps (at + 1) t.seps at n;
  Bytes.unsafe_blit t.spre (8 * (at + 1)) t.spre (8 * at) (8 * n);
  t.len <- t.len - 1;
  t.leaves.(t.len) <- t.leaves.(0);
  t.seps.(t.len) <- ""

(* Moves the upper half of leaf [ci] into a new leaf after it. *)
let split_leaf t ci =
  let l = t.leaves.(ci) and r = new_leaf () in
  let m = l.n - half in
  for j = 0 to m - 1 do
    let s = slot l (half + j) in
    r.keys.(j) <- l.keys.(s);
    r.vals.(j) <- l.vals.(s);
    l.keys.(s) <- "";
    l.vals.(s) <- Obj.magic 0
  done;
  Bytes.blit l.pre (8 * half) r.pre 0 (8 * m);
  r.n <- m;
  l.n <- half;
  leaf_insert t (ci + 1) r r.keys.(0)

(* The common prefix shrank: recompute every stored prefix. *)
let reprefix t =
  let c = String.length t.cp in
  for ci = 0 to t.len - 1 do
    pre_set t.spre ci (Repro_util.Key_prefix.prefix_at t.seps.(ci) c);
    let l = t.leaves.(ci) in
    for i = 0 to l.n - 1 do
      pre_set l.pre i (Repro_util.Key_prefix.prefix_at (key_at l i) c)
    done
  done

(* A fresh key now sits at [t.d]: keep the finger's gap empty and its
   position exact. *)
let after_insert t key =
  let fp = t.fp and d = t.d in
  if t.f_ok then
    if d.ci = fp.ci then begin
      if d.i < fp.i || (d.i = fp.i && String.compare key t.f_lo <= 0) then fp.i <- fp.i + 1
      else if d.i = fp.i then t.f_ok <- false
    end
    else if fp.i = 0 && d.ci < fp.ci && String.compare key t.f_lo > 0 then t.f_ok <- false

let rec set t key v =
  if not t.seen then begin
    t.cp <- key;
    t.seen <- true
  end
  else begin
    let m = Repro_util.Key_prefix.mismatch t.cp key in
    if m < String.length t.cp then begin
      t.cp <- String.sub t.cp 0 m;
      reprefix t
    end
  end;
  let pk = descend t key ~strict:false in
  let d = t.d in
  let l = t.leaves.(d.ci) in
  let i = d.i in
  if i < l.n && String.equal (key_at l i) key then l.vals.(slot l i) <- v
  else if l.n = width then begin
    split_leaf t d.ci;
    t.f_ok <- false;
    set t key v
  end
  else begin
    let s = slot l l.n in
    l.keys.(s) <- key;
    l.vals.(s) <- v;
    Bytes.unsafe_blit l.perm i l.perm (i + 1) (l.n - i);
    Bytes.unsafe_set l.perm i (Char.unsafe_chr s);
    Bytes.unsafe_blit l.pre (8 * i) l.pre (8 * (i + 1)) (8 * (l.n - i));
    pre_set l.pre i pk;
    l.n <- l.n + 1;
    t.count <- t.count + 1;
    after_insert t key
  end

(* -------------------------------------------------------------------- *)
(* The finger *)

let key t = t.fp.k
let value t = cursor_value t t.fp

let seek_geq t key =
  t.f_ok <- false;
  locate t t.fp key ~strict:false

let seek_gt t key =
  let fp = t.fp in
  if
    t.f_ok
    && (key == t.f_lo || (String.compare t.f_lo key < 0 && String.compare key fp.k < 0))
    && holds t fp
  then true
  else if String.equal key fp.k && holds t fp then begin
    t.f_lo <- fp.k;
    t.f_ok <- step t fp;
    t.f_ok
  end
  else begin
    t.f_lo <- key;
    t.f_ok <- locate t fp key ~strict:true;
    t.f_ok
  end

let pop t =
  let fp = t.fp in
  if not (holds t fp) then invalid_arg "Order_index.pop: the finger moved";
  let l = t.leaves.(fp.ci) in
  let i = fp.i in
  let s = slot l i in
  l.keys.(s) <- "";
  l.vals.(s) <- Obj.magic 0;
  let n = l.n - i - 1 in
  Bytes.unsafe_blit l.perm (i + 1) l.perm i n;
  Bytes.unsafe_set l.perm (l.n - 1) (Char.unsafe_chr s);
  Bytes.unsafe_blit l.pre (8 * (i + 1)) l.pre (8 * i) (8 * n);
  l.n <- l.n - 1;
  t.count <- t.count - 1;
  t.f_lo <- fp.k;
  if l.n = 0 && t.len > 1 then begin
    leaf_remove t fp.ci;
    t.f_ok <- settle t fp fp.ci 0
  end
  else t.f_ok <- settle t fp fp.ci i;
  t.f_ok

let fold t init f =
  let acc = ref init in
  for ci = 0 to t.len - 1 do
    let l = t.leaves.(ci) in
    for i = 0 to l.n - 1 do
      acc := f !acc (key_at l i) l.vals.(slot l i)
    done
  done;
  !acc
