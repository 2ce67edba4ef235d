(** Deterministic, seeded fault-injection plans.

    A plan schedules faults against a store's write streams by ordinal
    ("the 3rd page write from now is lost", "the 7th WAL append tears and
    the machine dies"). Pagestore write sites consult the plan; crash
    outcomes make them raise {!Crash_point}, so power loss can land
    mid-merge or mid-flush, not just between operations. Randomness
    (which byte rots, where a tear lands) comes from an embedded seeded
    PRNG, so a plan replays the identical fault sequence every run. *)

(** Raised by a write site when the plan says the machine dies here; the
    payload names the site. Catch it, then run crash recovery. *)
exception Crash_point of string

type page_write_outcome =
  | Pw_ok
  | Pw_lost  (** acked but never persisted (firmware cache loss) *)
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

type t

(** [create ~seed ()] is an inert plan; schedule faults to arm it. *)
val create : ?seed:int -> unit -> t

val counters : t -> counters

(** Faults scheduled but not yet fired: [(page_faults, wal_faults)], a
    root-commit crash counted with the page faults — distinguishes "the
    plan fired" from "the workload never reached the scheduled ordinal". *)
val pending : t -> int * int

(** Drop all scheduled (not yet fired) faults. *)
val clear : t -> unit

(** {1 Scheduling} — [after] counts hook calls forward from now;
    [after:1] fires on the very next one. *)

val schedule_lost_page_write : t -> after:int -> unit
val schedule_page_bit_flip : t -> after:int -> unit
val schedule_crash_at_page_write : ?torn:bool -> t -> after:int -> unit
val schedule_crash_at_wal_append : ?torn:bool -> t -> after:int -> unit

(** Power loss at the [after]-th metadata-root commit from now, before the
    new root persists; replaces a root crash still pending. *)
val schedule_crash_at_root_commit : t -> after:int -> unit

(** {1 Write-site hooks (called by pagestore)} *)

(** Consulted once per physical page write; says what actually reaches
    the platter. *)
val on_page_write : t -> page_size:int -> page_write_outcome

(** Consulted once per WAL record append, before the ack. *)
val on_wal_append : t -> frame_bytes:int -> wal_append_outcome

(** Consulted once per metadata-root commit; [true] means power loss
    before the new root persists. Draws nothing from the PRNG. *)
val on_root_commit : t -> bool
