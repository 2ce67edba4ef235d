(** Pacing math for the level schedulers (§4.1, §4.3).

    These are pure functions from observed tree state to merge-work quotas;
    {!Tree} applies the quotas to the merge state machines before admitting
    each write. Keeping them pure makes the estimator properties (bounded,
    monotone, smooth) directly testable. *)

(** outprogress_i = (inprogress_i + floor(|C_i| / |RAM|_i)) / ceil(R)

    The floor term estimates how many of the R upstream merges this
    component has absorbed; inprogress is the fraction of the current one.
    Ranges over [0, 1] and reaches 1 exactly when the component is ready to
    be merged downstream (§4.1). *)
let outprogress ~inprogress ~ci_bytes ~ram_bytes ~r =
  let r_ceil = Float.of_int (int_of_float (Float.ceil r)) in
  if r_ceil <= 0.0 then 1.0
  else
    let sweeps = float_of_int (ci_bytes / max 1 ram_bytes) in
    min 1.0 ((inprogress +. sweeps) /. r_ceil)

(* The spring's watermark band on C0 fill (§4.3). *)
let low = 0.30
let high = 0.90

(** Spring pacing (deadline controller): finish [remaining_bytes] of merge
    input before C0 climbs from [fill] to [high]. Below [low] the merge
    pauses entirely — that is the spring absorbing load dips (§4.3).
    Returns the merge bytes owed for a write of [write_bytes]. *)
let spring_quota ~write_bytes ~fill ~remaining_bytes ~c0_capacity =
  if fill <= low || remaining_bytes <= 0 then 0
  else begin
    let headroom_bytes =
      Float.max (float_of_int write_bytes)
        ((high -. fill) *. float_of_int c0_capacity)
    in
    let rate = float_of_int remaining_bytes /. headroom_bytes in
    int_of_float (Float.ceil (float_of_int write_bytes *. rate))
  end
