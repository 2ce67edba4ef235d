(* Compaction policies: one selector over the four primitives of the
   design space (see the .mli for the map). Engines own the mechanism
   (iterators, builders, install), the pacing and the round-robin
   cursor; everything here is arithmetic over run metadata, so the same
   code drives the engines, the structural invariants, and the bench
   grid. *)

type run = {
  run_id : int;
  run_bytes : int;
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
}

type trigger = First_full | Max_score
type layout = Tiered | Leveled | Lazy_leveled
type granularity = Whole_level | One_file
type t = { trigger : trigger; layout : layout; granularity : granularity }

let point trigger layout granularity = { trigger; layout; granularity }

let named =
  [
    ("tiered", point First_full Tiered Whole_level);
    ("leveled", point First_full Leveled Whole_level);
    ("lazy-leveled", point First_full Lazy_leveled Whole_level);
    ("partial", point First_full Leveled One_file);
  ]

let leveldb_seed = point Max_score Leveled One_file

let last v = v.v_max_levels - 1
let levels v = List.init v.v_max_levels Fun.id
let run_count v i = List.length v.v_levels.(i)
let level_bytes v i =
  List.fold_left (fun a r -> a + r.run_bytes) 0 v.v_levels.(i)
let ids runs = List.map (fun r -> r.run_id) runs

let sort_by_min_key runs =
  List.sort (fun a b -> String.compare a.run_min_key b.run_min_key) runs

(* The LevelDB configuration's pinned byte-identity (test_leveldb.ml)
   depends on this exact float expression. *)
let level_target v i =
  int_of_float
    (float_of_int v.v_base_bytes *. (v.v_fanout ** float_of_int (i - 1)))

(* Layout: the levels that hold one sorted run (key-disjoint files under
   [One_file]); every other level is a tier of overlapping runs. *)
let sorted p v i =
  match p.layout with
  | Tiered -> false
  | Leveled -> i >= 1
  | Lazy_leveled -> i = last v

(* What fills a level: level 0 buffers flushes up to the trigger (under
   [Tiered] it is a tier like the rest), a tier holds T runs, a sorted
   level its byte target, and the sorted last level has nowhere to go. *)
type limit = Runs of int | Bytes of int | Unbounded

let limit p v i =
  if i = 0 && p.layout <> Tiered then Runs v.v_l0_trigger
  else if not (sorted p v i) then Runs (max 2 (int_of_float v.v_fanout))
  else if i < last v then Bytes (level_target v i)
  else Unbounded

(* The job that empties [level] (or one file of it) into the next level.
   Into a tier the whole level stacks as one new run, and the last tier
   consolidates in place. Into a sorted level the inputs merge with the
   runs they overlap: all of them, or under [One_file] those in the
   moved key range, output split at file size. A [One_file] move below
   level 0 takes the first file whose min key is past [after] (the
   level's cursor), wrapping. *)
let job_at p v ~after level =
  let runs = v.v_levels.(level) in
  let target = min (level + 1) (last v) in
  let job inputs overlaps split =
    Some
      {
        j_level = level;
        j_inputs = ids inputs;
        j_overlaps = overlaps;
        j_target = target;
        j_split_bytes = split;
      }
  in
  if not (sorted p v target) then
    if List.length runs < 2 then None else job runs [] 0
  else if runs = [] || level = last v then None
  else
    match p.granularity with
    | Whole_level -> job runs (ids v.v_levels.(target)) 0
    | One_file ->
        let moved =
          if level = 0 then runs
          else
            let by_key = sort_by_min_key runs in
            let past r = String.compare r.run_min_key after > 0 in
            match List.find_opt past by_key with
            | Some r -> [ r ]
            | None -> [ List.hd by_key ]
        in
        let first = List.hd moved in
        let lo =
          List.fold_left (fun k r -> min k r.run_min_key) first.run_min_key moved
        and hi =
          List.fold_left (fun k r -> max k r.run_max_key) first.run_max_key moved
        in
        let overlaps =
          List.filter
            (fun r ->
              String.compare r.run_max_key lo >= 0
              && String.compare r.run_min_key hi <= 0)
            v.v_levels.(target)
        in
        job moved (ids overlaps) v.v_file_bytes

let pick p ~cursor v =
  let start i = job_at p v ~after:cursor.(i) i in
  match p.trigger with
  | First_full -> (
      let full i =
        match limit p v i with
        | Runs n -> run_count v i >= n
        | Bytes b -> level_bytes v i > b
        | Unbounded -> false
      in
      match List.find_opt full (levels v) with Some i -> start i | None -> None)
  | Max_score ->
      (* VersionSet::Finalize: fill ratio over the limit; the highest at
         or past 1 wins, ties going to the deeper level. *)
      let score i =
        match limit p v i with
        | Runs n -> float_of_int (run_count v i) /. float_of_int n
        | Bytes b -> float_of_int (level_bytes v i) /. float_of_int b
        | Unbounded -> 0.0
      in
      let best, _ =
        List.fold_left
          (fun (b, s) i ->
            let si = score i in
            if si >= s then (i, si) else (b, s))
          (-1, 1.0) (levels v)
      in
      if best >= 0 then start best else None

let l0_job p v = job_at p v ~after:"" 0

(* A [First_full] fixpoint leaves every level within its limit; byte
   targets are checked for whole-level moves only. Every sorted level
   is one run, or key-disjoint files under [One_file]. [Max_score]
   (2012 LevelDB) checks the disjointness alone. *)
let check p v =
  let fail fmt = Printf.ksprintf Option.some fmt in
  let check_level i =
    let n = run_count v i in
    let over =
      match limit p v i with
      | Runs cap when p.trigger = First_full && n > cap ->
          fail "level %d holds %d runs > limit %d" i n cap
      | Bytes cap
        when p.trigger = First_full && p.granularity = Whole_level
             && level_bytes v i > cap ->
          fail "level %d holds %d bytes > target %d" i (level_bytes v i) cap
      | _ -> None
    in
    if over <> None || not (sorted p v i) then over
    else
      match p.granularity with
      | Whole_level ->
          if n > 1 then fail "level %d holds %d runs > limit 1" i n else None
      | One_file ->
          let rec go = function
            | a :: (b :: _ as rest) ->
                if String.compare a.run_max_key b.run_min_key >= 0 then
                  fail "level %d runs %d and %d overlap (%S..%S vs %S..%S)" i
                    a.run_id b.run_id a.run_min_key a.run_max_key b.run_min_key
                    b.run_max_key
                else go rest
            | _ -> None
          in
          go (sort_by_min_key v.v_levels.(i))
  in
  List.find_map check_level (levels v)
