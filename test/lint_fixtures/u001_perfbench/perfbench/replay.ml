(* U001 fixture: the only reference to [Probe.timed]. *)
let () = ignore (Probe.timed 3)
