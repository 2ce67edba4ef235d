(* U001 fixture: an export referenced only from perfbench/. *)
let timed x = x
