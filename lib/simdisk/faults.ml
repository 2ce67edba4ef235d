(** Deterministic, seeded fault-injection plans.

    A plan schedules faults against a store's I/O streams by ordinal:
    "the 3rd page write from now is lost", "the 7th WAL append tears and
    the machine dies". The pagestore consults the plan at each write site
    and the plan answers with an outcome; crash outcomes make the write
    site raise {!Crash_point}, which models power loss at an arbitrary
    instruction boundary — inside a merge, inside a memtable flush — not
    just between operations.

    Faults modelled (the usual storage failure taxonomy):
    - torn writes: only a prefix of the sector/record reached the platter
      before power loss;
    - lost (acked) writes: the device acknowledged but never persisted —
      firmware write-cache loss;
    - bit rot: a stored bit silently flips between write and read.

    Randomness (which byte rots, where a tear lands) comes from an
    embedded splitmix64 PRNG so that every run of a seeded plan injects
    the identical fault sequence. *)

(** Raised by a write site when the plan says the machine dies here. The
    payload names the site; the test harness catches it and runs
    recovery. *)
exception Crash_point of string

type page_write_outcome =
  | Pw_ok
  | Pw_lost  (** acked but never persisted *)
  | Pw_flip of int * int  (** persist, then flip bit [bit] of byte [byte] *)
  | Pw_crash  (** power loss before the write persists *)
  | Pw_crash_torn of int  (** only the first [n] bytes persist, then power loss *)

type wal_append_outcome =
  | Wa_ok
  | Wa_crash  (** power loss before any byte of the record persists *)
  | Wa_crash_torn of int  (** first [n] frame bytes persist, then power loss *)

type counters = {
  mutable injected_lost_writes : int;
  mutable injected_bit_flips : int;
  mutable injected_torn_writes : int;
  mutable crashes_fired : int;
}

type page_fault = Lost | Flip | Crash of { torn : bool }
type wal_fault = Wal_crash of { torn : bool }

type t = {
  mutable prng : int64;
  (* schedules: (absolute ordinal, fault). Ordinals count calls to the
     corresponding hook since plan creation, starting at 1. *)
  mutable page_plan : (int * page_fault) list;
  mutable wal_plan : (int * wal_fault) list;
  mutable root_crash_in : int;  (* root commits until a crash; 0: none *)
  mutable page_writes_seen : int;
  mutable wal_appends_seen : int;
  c : counters;
}

(* splitmix64, inlined so simdisk keeps zero local dependencies *)
let next_u64 t =
  let golden = 0x9E3779B97F4A7C15L in
  t.prng <- Int64.add t.prng golden;
  let z = t.prng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* uniform int in [0, bound) *)
let rand_int t bound =
  if bound <= 1 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (next_u64 t) 1) (Int64.of_int bound))

let create ?(seed = 0) () =
  {
    prng = Int64.of_int (seed lxor 0x5DEECE66D);
    page_plan = [];
    wal_plan = [];
    root_crash_in = 0;
    page_writes_seen = 0;
    wal_appends_seen = 0;
    c =
      {
        injected_lost_writes = 0;
        injected_bit_flips = 0;
        injected_torn_writes = 0;
        crashes_fired = 0;
      };
  }

let counters t = t.c

(** Faults scheduled but not yet fired: [(page_faults, wal_faults)], a
    root-commit crash counted with the page faults. Harnesses use this
    to tell "the plan fired" from "the workload never reached the
    scheduled ordinal". *)
let pending t =
  (List.length t.page_plan + Bool.to_int (t.root_crash_in > 0), List.length t.wal_plan)

let clear t =
  t.page_plan <- [];
  t.wal_plan <- [];
  t.root_crash_in <- 0

(** {1 Scheduling}

    [after] counts forward from now: [after:1] fires on the very next
    call of the corresponding hook. *)

let schedule_page t ~after fault =
  if after < 1 then invalid_arg "Faults: after must be >= 1";
  t.page_plan <- (t.page_writes_seen + after, fault) :: t.page_plan

let schedule_lost_page_write t ~after = schedule_page t ~after Lost
let schedule_page_bit_flip t ~after = schedule_page t ~after Flip

let schedule_crash_at_page_write ?(torn = false) t ~after =
  schedule_page t ~after (Crash { torn })

let schedule_crash_at_wal_append ?(torn = false) t ~after =
  if after < 1 then invalid_arg "Faults: after must be >= 1";
  t.wal_plan <- (t.wal_appends_seen + after, Wal_crash { torn }) :: t.wal_plan

let schedule_crash_at_root_commit t ~after =
  if after < 1 then invalid_arg "Faults: after must be >= 1";
  t.root_crash_in <- after

(** {1 Write-site hooks} *)

let take plan seen =
  let hit, rest = List.partition (fun (ord, _) -> ord = seen) plan in
  match hit with [] -> (None, rest) | (_, f) :: _ -> (Some f, rest)

(** [on_page_write t ~page_size] is consulted once per physical page
    write (streamed merge output, buffer-pool writeback). The outcome
    tells the write site what actually reaches the platter. *)
let on_page_write t ~page_size =
  t.page_writes_seen <- t.page_writes_seen + 1;
  let fault, rest = take t.page_plan t.page_writes_seen in
  t.page_plan <- rest;
  match fault with
  | None -> Pw_ok
  | Some Lost ->
      t.c.injected_lost_writes <- t.c.injected_lost_writes + 1;
      Pw_lost
  | Some Flip ->
      t.c.injected_bit_flips <- t.c.injected_bit_flips + 1;
      Pw_flip (rand_int t page_size, rand_int t 8)
  | Some (Crash { torn = false }) ->
      t.c.crashes_fired <- t.c.crashes_fired + 1;
      Pw_crash
  | Some (Crash { torn = true }) ->
      t.c.crashes_fired <- t.c.crashes_fired + 1;
      t.c.injected_torn_writes <- t.c.injected_torn_writes + 1;
      Pw_crash_torn (1 + rand_int t (page_size - 1))

(** [on_wal_append t ~frame_bytes] is consulted once per WAL record
    append, before the record is acknowledged. *)
let on_wal_append t ~frame_bytes =
  t.wal_appends_seen <- t.wal_appends_seen + 1;
  let fault, rest = take t.wal_plan t.wal_appends_seen in
  t.wal_plan <- rest;
  match fault with
  | None -> Wa_ok
  | Some (Wal_crash { torn = false }) ->
      t.c.crashes_fired <- t.c.crashes_fired + 1;
      Wa_crash
  | Some (Wal_crash { torn = true }) ->
      t.c.crashes_fired <- t.c.crashes_fired + 1;
      t.c.injected_torn_writes <- t.c.injected_torn_writes + 1;
      Wa_crash_torn (1 + rand_int t (max 1 (frame_bytes - 1)))

(** [on_root_commit t] is consulted once per metadata-root commit:
    [true] means power loss before the new root persists. *)
let on_root_commit t =
  let fire = t.root_crash_in = 1 in
  t.root_crash_in <- max 0 (t.root_crash_in - 1);
  if fire then t.c.crashes_fired <- t.c.crashes_fired + 1;
  fire
