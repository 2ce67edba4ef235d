(* F001 failing fixture: two foreign functions, one at top level and one
   in a nested signature. Legal only inside a vetted unit. *)
external now_ns : unit -> int = "fixture_now_ns"

module type CLOCK = sig
  external ticks : unit -> int = "fixture_ticks"
end

let elapsed t0 = now_ns () - t0
