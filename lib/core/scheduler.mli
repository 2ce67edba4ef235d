(** Pacing math for the level schedulers (§4.1, §4.3).

    Pure functions from observed tree state to merge-work quotas; {!Tree}
    applies them before admitting each write, and {!Policy_tree}'s
    [Spring] pacing applies {!spring_quota} to its active job. Keeping them pure makes the
    estimator properties (bounded, monotone, smooth) directly testable. *)

(** [outprogress ~inprogress ~ci_bytes ~ram_bytes ~r] implements §4.1:
    {v outprogress_i = (inprogress_i + floor(|C_i|/|RAM|_i)) / ceil(R) v}
    The floor term estimates how many of the R upstream merges this
    component has absorbed. Ranges over [0, 1]; 1 means the component is
    ready to merge downstream. *)
val outprogress :
  inprogress:float -> ci_bytes:int -> ram_bytes:int -> r:float -> float

(** [spring_quota ~write_bytes ~fill ~remaining_bytes ~c0_capacity] is
    the deadline controller of the spring-and-gear scheduler: merge bytes
    owed for one write so that [remaining_bytes] of merge input completes
    before C0 fill climbs from [fill] to the high watermark, 0.90. Zero
    at or below the low watermark, 0.30 — the spring absorbing load dips
    (§4.3). *)
val spring_quota :
  write_bytes:int ->
  fill:float ->
  remaining_bytes:int ->
  c0_capacity:int ->
  int
