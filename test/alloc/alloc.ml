(* Exact allocation counts, the one reading behind every allocation
   budget in the suites and every allocation gate of `bench perf`.

   [Gc.minor_words ()] reads the minor heap's own allocation count, so
   its difference across a window is exactly what the window allocated,
   whatever the minor heap's size and whatever ran before. [Gc.counters]
   and [Gc.quick_stat] move their minor count only at minor collections
   (OCaml 5), so a window read through them is off by up to one minor
   heap: a budget read that way passes or fails with the seed and the
   heap size. Both ends convert to an int at once, so the reading boxes
   no float inside the window.

   Blocks over 256 words go straight to the major heap. [Gc.counters]
   reads its major and promoted words exactly at the call: on a control
   loop of 1 to 100,000 direct 4 KiB and 2 KiB blocks, under minor heaps
   of 32k and 1M words, major less promoted came to the blocks' words
   (headers included) every time. [Gc.quick_stat]'s major words lag: they
   read 0 for ten 4 KiB blocks and 420,464 words for a thousand
   (514,000 allocated). *)

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

(* Words [f ()] allocates directly on the major heap, headers included:
   [Gc.counters]' major words less the words minor collections promoted
   inside the window. Its tuples are minor-heap blocks, so the reading
   adds nothing to the count. *)
let major_direct f =
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let _, promoted1, major1 = Gc.counters () in
  int_of_float (major1 -. major0 -. (promoted1 -. promoted0))
