(* Arithmetic behind every reported figure: order statistics that refuse
   to report a tail the sample cannot support, and amplification ratios
   from device counters. *)

(* A percentile is reported only when at least this many samples lie
   beyond it; otherwise "p99.9" would just be the maximum. *)
let min_beyond = 10

(* Nearest-rank position (1-based) of the [p]-th percentile among [n]
   samples. The epsilon keeps 99.9 / 100 * 10_000 from rounding up to
   the next rank. *)
let rank ~n ~p = max 1 (int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)))

let supported ~n ~p = n > 0 && n - rank ~n ~p >= min_beyond

(* [percentile sorted p]: nearest-rank percentile of an ascending array,
   [None] when fewer than [min_beyond] samples lie beyond it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if supported ~n ~p then Some sorted.(rank ~n ~p - 1) else None

(* As [percentile], over a simulated-clock histogram. *)
let hist_percentile h p =
  if supported ~n:(Repro_util.Histogram.count h) ~p then
    Some (Repro_util.Histogram.percentile h p)
  else None

let median xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Device bytes written (sequential + random: merge output, WAL appends,
   page write-backs) per user byte written over a phase. *)
let write_amp (io : Simdisk.Disk.snapshot) ~user_bytes =
  float_of_int (io.seq_write_bytes + io.random_write_bytes)
  /. float_of_int user_bytes

(* Bytes the device holds per byte of live user data. *)
let space_amp ~stored_bytes ~live_bytes =
  float_of_int stored_bytes /. float_of_int live_bytes

(* Positive values pooled in fixed memory: log-spaced buckets 0.1 % wide
   from 10 to about 1e9 (ns, for wall latencies). A percentile reads as
   its bucket's geometric midpoint. *)
module Loghist = struct
  let lo = 10.0
  let ratio = 1.001
  let buckets = 18_500

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make buckets 0; n = 0 }

  let add t v =
    let b = int_of_float (Float.log (v /. lo) /. Float.log ratio) in
    let b = max 0 (min (buckets - 1) b) in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1

  let percentile t p =
    if not (supported ~n:t.n ~p) then None
    else begin
      let r = rank ~n:t.n ~p in
      let b = ref 0 and seen = ref t.counts.(0) in
      while !seen < r do
        incr b;
        seen := !seen + t.counts.(!b)
      done;
      Some (lo *. (ratio ** (float_of_int !b +. 0.5)))
    end
end
