(** Trace minimization: deterministically shrink a failing plan to a
    small reproducer.

    Strategy is delta-debugging over the step list (drop chunks of
    size n/2, n/4, … 1) interleaved with structural simplification of
    the surviving steps: drop armed faults, shrink values to one byte,
    shrink scan widths, drop batch items, drop transaction ops and
    interleaves. Each candidate runs against a {e fresh} engine from
    the driver factory, so the only state a candidate sees is the state
    its own steps create — which is what makes the final trace a
    self-contained repro.

    "Failing" is judged by the caller's predicate (default: the
    interpreter reports violations or dies). The shrinker is a
    fixpoint: it loops passes until no candidate under the budget makes
    the plan smaller. *)

type stats = {
  mutable candidates : int;  (** interpreter runs spent *)
  mutable accepted : int;  (** candidates that kept failing *)
}

let default_budget = 1500

(** [fails mk plan] — the default failure predicate: the plan produces
    invariant violations, or escapes the interpreter entirely. *)
let fails mk plan =
  (match Interp.run (mk ()) plan with
   | outcome -> not outcome.Interp.ok
   | exception _ -> true)
(* Deliberate catch-all: "escapes the interpreter" is itself the failure
   signal ddmin preserves, whatever the exception. *)
[@lint.allow "C002"]

let size plan = List.length plan.Plan.steps

(* ------------------------------------------------------------------ *)
(* Candidate generators *)

let drop_range steps lo len =
  List.filteri (fun i _ -> i < lo || i >= lo + len) steps

let simpler_op (op : Plan.op) : Plan.op list =
  match op with
  | Plan.Put (k, v) when String.length v > 1 -> [ Plan.Put (k, "v") ]
  | Plan.Delta (k, d) when String.length d > 1 -> [ Plan.Delta (k, "d") ]
  | Plan.Rmw (k, s) when String.length s > 1 -> [ Plan.Rmw (k, "r") ]
  | Plan.Insert_if_absent (k, v) when String.length v > 1 ->
      [ Plan.Insert_if_absent (k, "v") ]
  | Plan.Scan (k, n) when n > 1 -> [ Plan.Scan (k, 1) ]
  | Plan.Write_batch items ->
      let drops =
        List.mapi
          (fun i _ ->
            Plan.Write_batch (List.filteri (fun j _ -> j <> i) items))
          items
        |> List.filter (function Plan.Write_batch [] -> false | _ -> true)
      in
      let shrunk =
        let any = ref false in
        let items' =
          List.map
            (function
              | Plan.B_put (k, v) when String.length v > 1 ->
                  any := true;
                  Plan.B_put (k, "v")
              | it -> it)
            items
        in
        if !any then [ Plan.Write_batch items' ] else []
      in
      drops @ shrunk
  | _ -> []

(* Per-step candidates: drop all faults, drop one fault, simplify op. *)
let step_candidates (s : Plan.step) : Plan.step list =
  let fault_drops =
    match s.Plan.faults with
    | [] -> []
    | [ _ ] -> [ { s with Plan.faults = [] } ]
    | fs ->
        { s with Plan.faults = [] }
        :: List.mapi
             (fun i _ ->
               { s with Plan.faults = List.filteri (fun j _ -> j <> i) fs })
             fs
  in
  fault_drops @ List.map (fun op -> { s with Plan.op }) (simpler_op s.Plan.op)

(* ------------------------------------------------------------------ *)

(** [minimize ?budget ?is_failing ~mk plan] returns the smallest plan
    the budget found that still satisfies [is_failing], plus shrink
    stats. [plan] itself must be failing (checked; returned unchanged
    with zero stats if it is not). *)
let minimize ?(budget = default_budget) ?is_failing ~mk (plan : Plan.t) =
  let is_failing = match is_failing with Some f -> f | None -> fails mk in
  let stats = { candidates = 0; accepted = 0 } in
  if not (is_failing plan) then (plan, stats)
  else begin
    let current = ref plan in
    let try_candidate cand =
      if stats.candidates >= budget then false
      else begin
        stats.candidates <- stats.candidates + 1;
        if is_failing cand then begin
          stats.accepted <- stats.accepted + 1;
          current := cand;
          true
        end
        else false
      end
    in
    (* Pass 1 engine: ddmin-style chunk removal to fixpoint. *)
    let rec chunk_pass chunk =
      if chunk >= 1 && stats.candidates < budget then begin
        let removed = ref false in
        let lo = ref 0 in
        while !lo < size !current && stats.candidates < budget do
          let steps = (!current).Plan.steps in
          let cand =
            { !current with Plan.steps = drop_range steps !lo chunk }
          in
          if size cand < size !current && try_candidate cand then
            removed := true (* same lo now holds the next chunk *)
          else lo := !lo + chunk
        done;
        if !removed then chunk_pass chunk else chunk_pass (chunk / 2)
      end
    in
    (* Pass 2 engine: per-step structural simplification, one accepted
       change at a time, until a full sweep accepts nothing. *)
    let rec simplify_pass () =
      let changed = ref false in
      let i = ref 0 in
      while !i < size !current && stats.candidates < budget do
        let steps = Array.of_list (!current).Plan.steps in
        let cands = step_candidates steps.(!i) in
        let accepted_one =
          List.exists
            (fun s' ->
              let steps' = Array.copy steps in
              steps'.(!i) <- s';
              try_candidate
                { !current with Plan.steps = Array.to_list steps' })
            cands
        in
        if accepted_one then changed := true else incr i
      done;
      if !changed && stats.candidates < budget then begin
        chunk_pass (max 1 (size !current / 2));
        simplify_pass ()
      end
    in
    chunk_pass (max 1 (size !current / 2));
    simplify_pass ();
    ( { !current with Plan.note = (!current).Plan.note ^ " [shrunk]" },
      stats )
  end
