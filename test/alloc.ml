(* Exact allocation counts, the one reading behind every minor-word
   budget in the suites.

   [Gc.minor_words ()] reads the minor heap's own allocation count, so
   its difference across a window is exactly what the window allocated,
   whatever the minor heap's size and whatever ran before. [Gc.counters]
   and [Gc.quick_stat] move their minor count only at minor collections
   (OCaml 5), so a window read through them is off by up to one minor
   heap: a budget read that way passes or fails with the seed and the
   heap size. Both ends convert to an int at once, so the reading boxes
   no float inside the window. *)

(* Minor words [f ()] allocates; building [f] happens before the window. *)
let minor f =
  let w0 = int_of_float (Gc.minor_words ()) in
  f ();
  int_of_float (Gc.minor_words ()) - w0

(* Minor words per call over [f 0] ... [f (n - 1)], rounded down. *)
let per_op n f =
  minor (fun () ->
      for i = 0 to n - 1 do
        f i
      done)
  / n
