(** Deterministic pseudo-random number generator (splitmix64).

    Every randomized component in the repository (workload generators,
    fault plans, property tests that need auxiliary randomness) draws
    from this generator so that experiments are reproducible from a
    seed. *)

type t = { mutable state : int64 }

let create ?(seed = 0x9E3779B97F4A7C15L) () = { state = seed }

let of_int seed = { state = Int64.of_int seed }

(* splitmix64 step: the canonical constants from Steele et al. *)
let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(** [bits t] returns 62 nonnegative pseudo-random bits as an OCaml [int]. *)
let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec go () =
    let r = bits t in
    let v = r mod bound in
    if r - v > max_int - bound then go () else v
  in
  go ()

(** [float t] is uniform in [0, 1). *)
let float t = Stdlib.float_of_int (bits t) /. 4611686018427387904.0 (* 2^62 *)

(** [bool t] is a fair coin flip. *)
let bool t = bits t land 1 = 1

(** [split t] derives an independent generator; used to give each component
    its own stream without coupling their consumption rates. *)
let split t =
  let s = next_int64 t in
  { state = Int64.logxor s 0xD1B54A32D192ED03L }

(** In-place Fisher-Yates shuffle. *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(** [bytes t n] is an [n]-byte random string (used for synthetic values). *)
let bytes t n =
  String.init n (fun _ -> Char.chr (int t 256))
