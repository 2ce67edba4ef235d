(* F001 passing fixture: ordinary values and signature [val]s are not
   foreign code. *)
module type CLOCK = sig
  val ticks : unit -> int
end

let elapsed ~now t0 = now () - t0
