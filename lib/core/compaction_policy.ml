(* Pluggable compaction policies: pure victim selection over a metadata
   snapshot. See the .mli for the design-space map. Engines own the
   mechanism (iterators, builders, install) and the pacing; everything
   here is arithmetic over run metadata, so the same code drives the
   engines, the structural QCheck invariants, and the bench grid. *)

type run = {
  run_id : int;
  run_level : int;
  run_bytes : int;
  run_records : int;
  run_min_key : string;
  run_max_key : string;
}

type view = {
  v_levels : run list array;
  v_l0_trigger : int;
  v_fanout : float;
  v_base_bytes : int;
  v_file_bytes : int;
  v_max_levels : int;
}

type job = {
  j_level : int;
  j_inputs : int list;
  j_overlaps : int list;
  j_target : int;
  j_split_bytes : int;
  j_why : string;
}

type t = {
  p_name : string;
  p_pick : view -> job option;
  p_job_at : view -> level:int -> job option;
  p_check : view -> string option;
}

(* The LevelDB configuration's pinned byte-identity (test_leveldb.ml)
   depends on this exact float expression. *)
let level_target v i =
  if i = 0 then max_int
  else
    int_of_float
      (float_of_int v.v_base_bytes *. (v.v_fanout ** float_of_int (i - 1)))

let level_bytes v i =
  List.fold_left (fun a r -> a + r.run_bytes) 0 v.v_levels.(i)

let run_count v i = List.length v.v_levels.(i)

let intersects r ~min_key ~max_key =
  not
    (String.compare r.run_max_key min_key < 0
    || String.compare r.run_min_key max_key > 0)

let overlapping v ~level ~min_key ~max_key =
  if level >= v.v_max_levels then []
  else
    List.filter_map
      (fun r -> if intersects r ~min_key ~max_key then Some r.run_id else None)
      v.v_levels.(level)

let ids runs = List.map (fun r -> r.run_id) runs

let sort_by_min_key runs =
  List.sort (fun a b -> String.compare a.run_min_key b.run_min_key) runs

(* Key-range envelope of a run list (requires a non-empty list). *)
let envelope runs =
  let smin a b = if String.compare a b <= 0 then a else b in
  let smax a b = if String.compare a b >= 0 then a else b in
  match runs with
  | [] -> invalid_arg "Compaction_policy.envelope: empty"
  | r :: rest ->
      List.fold_left
        (fun (lo, hi) x -> (smin lo x.run_min_key, smax hi x.run_max_key))
        (r.run_min_key, r.run_max_key)
        rest

(* Structural checks shared between policies. *)

let check_run_cap v ~level ~cap =
  let n = run_count v level in
  if n > cap then
    Some (Printf.sprintf "level %d holds %d runs > limit %d" level n cap)
  else None

let check_disjoint v ~level =
  let sorted = sort_by_min_key v.v_levels.(level) in
  let rec go = function
    | a :: (b :: _ as rest) ->
        if String.compare a.run_max_key b.run_min_key >= 0 then
          Some
            (Printf.sprintf
               "level %d runs %d and %d overlap (%S..%S vs %S..%S)" level
               a.run_id b.run_id a.run_min_key a.run_max_key b.run_min_key
               b.run_max_key)
        else go rest
    | _ -> None
  in
  go sorted

let first_check checks =
  List.fold_left
    (fun acc c -> match acc with Some _ -> acc | None -> c ())
    None checks

(* ------------------------------------------------------------------ *)
(* Tiered: up to T overlapping runs per level; a full level merges into
   one run stacked on the next. The last level consolidates in place so
   the run count stays bounded everywhere. *)

let tiered () =
  let width v = max 2 (int_of_float v.v_fanout) in
  let job_at v ~level =
    let runs = v.v_levels.(level) in
    if List.length runs < 2 then None
    else
      let last = v.v_max_levels - 1 in
      let target = if level >= last then last else level + 1 in
      Some
        {
          j_level = level;
          j_inputs = ids runs;
          j_overlaps = [];
          j_target = target;
          j_split_bytes = 0;
          j_why = (if target = level then "tier-consolidate" else "tier-full");
        }
  in
  let pick v =
    let t = width v in
    let rec go i =
      if i >= v.v_max_levels then None
      else if run_count v i >= t then job_at v ~level:i
      else go (i + 1)
    in
    go 0
  in
  let check v =
    let t = width v in
    first_check
      (List.init v.v_max_levels (fun i () -> check_run_cap v ~level:i ~cap:t))
  in
  { p_name = "tiered"; p_pick = pick; p_job_at = job_at; p_check = check }

(* ------------------------------------------------------------------ *)
(* Leveled: one run per level below level 0, sized base * T^(i-1); an
   overfull level merges wholesale into the next. The last level has no
   byte bound (there is nowhere further to go). *)

let leveled () =
  let job_at v ~level =
    let runs = v.v_levels.(level) in
    if runs = [] then None
    else
      let target = min (level + 1) (v.v_max_levels - 1) in
      if target = level then None
      else
        Some
          {
            j_level = level;
            j_inputs = ids runs;
            j_overlaps = ids v.v_levels.(target);
            j_target = target;
            j_split_bytes = 0;
            j_why = (if level = 0 then "l0-flush-backlog" else "level-overfull");
          }
  in
  let pick v =
    if run_count v 0 >= v.v_l0_trigger then job_at v ~level:0
    else begin
      let rec go i =
        if i >= v.v_max_levels - 1 then None
        else if level_bytes v i > level_target v i then job_at v ~level:i
        else go (i + 1)
      in
      go 1
    end
  in
  let check v =
    first_check
      ((fun () -> check_run_cap v ~level:0 ~cap:v.v_l0_trigger)
      :: List.concat
           (List.init (v.v_max_levels - 1) (fun j ->
                let i = j + 1 in
                [
                  (fun () -> check_run_cap v ~level:i ~cap:1);
                  (fun () ->
                    let b = level_bytes v i in
                    let cap = level_target v i in
                    if i < v.v_max_levels - 1 && b > cap then
                      Some
                        (Printf.sprintf "level %d holds %d bytes > target %d"
                           i b cap)
                    else None);
                ])))
  in
  { p_name = "leveled"; p_pick = pick; p_job_at = job_at; p_check = check }

(* ------------------------------------------------------------------ *)
(* Lazy-leveled: tiered upper levels, a single leveled run at the last
   level — cheap upper-level merges with the read/space profile of
   leveling where most of the data lives. *)

let lazy_leveled () =
  let width v = max 2 (int_of_float v.v_fanout) in
  let last v = v.v_max_levels - 1 in
  let job_at v ~level =
    let runs = v.v_levels.(level) in
    let lastl = last v in
    if level >= lastl then None
    else if runs = [] then None
    else if level + 1 = lastl then
      Some
        {
          j_level = level;
          j_inputs = ids runs;
          j_overlaps = ids v.v_levels.(lastl);
          j_target = lastl;
          j_split_bytes = 0;
          j_why = "lazy-into-last";
        }
    else if List.length runs < 2 then None
    else
      Some
        {
          j_level = level;
          j_inputs = ids runs;
          j_overlaps = [];
          j_target = level + 1;
          j_split_bytes = 0;
          j_why = "tier-full";
        }
  in
  let pick v =
    let t = width v in
    let rec go i =
      if i >= last v then None
      else
        let trigger = if i = 0 then v.v_l0_trigger else t in
        if run_count v i >= trigger then job_at v ~level:i else go (i + 1)
    in
    go 0
  in
  let check v =
    let t = width v in
    first_check
      (List.init v.v_max_levels (fun i () ->
           if i = last v then check_run_cap v ~level:i ~cap:1
           else
             check_run_cap v ~level:i
               ~cap:(if i = 0 then v.v_l0_trigger else t)))
  in
  {
    p_name = "lazy-leveled";
    p_pick = pick;
    p_job_at = job_at;
    p_check = check;
  }

(* ------------------------------------------------------------------ *)
(* Partial: leveled shape, key-range granularity. Below level 0 a level
   holds many disjoint file-sized runs; an overfull level moves one run
   (round-robin over the key space) plus its overlaps, so each merge is
   small and the write pause short. *)

let partial () =
  let ptr = ref [||] in
  let ensure v =
    if Array.length !ptr < v.v_max_levels then begin
      let a = Array.make v.v_max_levels "" in
      Array.blit !ptr 0 a 0 (Array.length !ptr);
      ptr := a
    end
  in
  let job_at v ~level =
    ensure v;
    let runs = v.v_levels.(level) in
    if runs = [] then None
    else if level >= v.v_max_levels - 1 then None
    else if level = 0 then begin
      let min_key, max_key = envelope runs in
      Some
        {
          j_level = 0;
          j_inputs = ids runs;
          j_overlaps = overlapping v ~level:1 ~min_key ~max_key;
          j_target = 1;
          j_split_bytes = v.v_file_bytes;
          j_why = "l0-flush-backlog";
        }
    end
    else begin
      let sorted = sort_by_min_key runs in
      let pick =
        match
          List.find_opt
            (fun r -> String.compare r.run_min_key !ptr.(level) > 0)
            sorted
        with
        | Some r -> r
        | None -> List.hd sorted (* wrap *)
      in
      !ptr.(level) <- pick.run_min_key;
      Some
        {
          j_level = level;
          j_inputs = [ pick.run_id ];
          j_overlaps =
            overlapping v ~level:(level + 1) ~min_key:pick.run_min_key
              ~max_key:pick.run_max_key;
          j_target = level + 1;
          j_split_bytes = v.v_file_bytes;
          j_why = "partial-round-robin";
        }
    end
  in
  let pick v =
    if run_count v 0 >= v.v_l0_trigger then job_at v ~level:0
    else begin
      let rec go i =
        if i >= v.v_max_levels - 1 then None
        else if level_bytes v i > level_target v i then job_at v ~level:i
        else go (i + 1)
      in
      go 1
    end
  in
  let check v =
    first_check
      ((fun () -> check_run_cap v ~level:0 ~cap:v.v_l0_trigger)
      :: List.init (v.v_max_levels - 1) (fun j () ->
             check_disjoint v ~level:(j + 1)))
  in
  { p_name = "partial"; p_pick = pick; p_job_at = job_at; p_check = check }

(* ------------------------------------------------------------------ *)
(* LevelDB seed policy: 2012 LevelDB's selection logic —
   VersionSet::Finalize scores (level-0 file count over the trigger,
   deeper levels bytes over target; ties go to the deeper
   level), level 0 compacts all its files plus their level-1 overlaps,
   deeper levels move the first file past a per-level round-robin
   pointer. Any change here shows up in the pinned byte-identity
   regression in test_leveldb.ml. *)

let leveldb_seed () =
  let ptr = ref [||] in
  let ensure v =
    if Array.length !ptr < v.v_max_levels then begin
      let a = Array.make v.v_max_levels "" in
      Array.blit !ptr 0 a 0 (Array.length !ptr);
      ptr := a
    end
  in
  let score v i =
    if i = 0 then
      float_of_int (run_count v 0) /. float_of_int v.v_l0_trigger
    else float_of_int (level_bytes v i) /. float_of_int (level_target v i)
  in
  let job_at v ~level =
    ensure v;
    let runs = v.v_levels.(level) in
    if runs = [] then None
    else if level = 0 then begin
      let min_key, max_key = envelope runs in
      Some
        {
          j_level = 0;
          j_inputs = ids runs;
          j_overlaps = overlapping v ~level:1 ~min_key ~max_key;
          j_target = 1;
          j_split_bytes = v.v_file_bytes;
          j_why = "score-l0";
        }
    end
    else begin
      let sorted = sort_by_min_key runs in
      let pick =
        match
          List.find_opt
            (fun r -> String.compare r.run_min_key !ptr.(level) > 0)
            sorted
        with
        | Some r -> r
        | None -> List.hd sorted (* wrap *)
      in
      !ptr.(level) <- pick.run_min_key;
      Some
        {
          j_level = level;
          j_inputs = [ pick.run_id ];
          j_overlaps =
            overlapping v ~level:(level + 1) ~min_key:pick.run_min_key
              ~max_key:pick.run_max_key;
          j_target = level + 1;
          j_split_bytes = v.v_file_bytes;
          j_why = "score-round-robin";
        }
    end
  in
  let pick v =
    let best = ref (-1) and best_score = ref 1.0 in
    for i = 0 to v.v_max_levels - 2 do
      let s = score v i in
      if s >= !best_score then begin
        best := i;
        best_score := s
      end
    done;
    if !best >= 0 then job_at v ~level:!best else None
  in
  let check v =
    first_check
      (List.init (v.v_max_levels - 1) (fun j () ->
           check_disjoint v ~level:(j + 1)))
  in
  {
    p_name = "leveldb-seed";
    p_pick = pick;
    p_job_at = job_at;
    p_check = check;
  }

(* ------------------------------------------------------------------ *)

let all_names = [ "tiered"; "leveled"; "lazy-leveled"; "partial"; "leveldb-seed" ]

let of_name = function
  | "tiered" -> Some (tiered ())
  | "leveled" -> Some (leveled ())
  | "lazy-leveled" -> Some (lazy_leveled ())
  | "partial" -> Some (partial ())
  | "leveldb-seed" -> Some (leveldb_seed ())
  | _ -> None
