(** Logical write-ahead log.

    bLSM uses a second, logical, log to provide durability for individual
    writes (§4.4.2); replaying it after a crash rebuilds C0. The engines
    under test run with group commit and no per-commit fsync ("none of the
    systems sync their logs at commit", §5.1), so appends cost sequential
    bandwidth only. Truncation is driven by merge completion; snowshoveling
    delays it because old entries stay live in C0 longer.

    Records are stored physically framed — a 16-byte header (LSN, payload
    length, CRC32C) ahead of the payload — and replay verifies every
    frame. An invalid record at the very tail is a torn group-commit
    write: normal after power loss, so replay truncates there and carries
    on. An invalid record *followed by valid ones* cannot be a tear (the
    log is append-only); that is bit rot mid-log and replay refuses with
    {!Corrupt} rather than hand back garbage.

    Durability modes: [Full] syncs every append before acknowledging it.
    [Degraded] models the paper's group-commit window — appends
    accumulate in an unsynced tail that a crash discards (§5.1), so
    recovery lands on the last synced prefix. [`None_`] does not log at
    all; recovery restores only merged data. *)

type durability = Full | Degraded | None_

(** Mid-log corruption found during {!replay}: unlike a torn tail this
    cannot be explained by power loss, so recovery must stop. *)
exception Corrupt of { what : string; lsn : int }

type record = { lsn : int; mutable frame : string }

type t = {
  disk : Simdisk.Disk.t;
  durability : durability;
  group_commit_bytes : int;
      (* Degraded: bytes appended between group-commit syncs *)
  mutable faults : Simdisk.Faults.t;
  mutable trace : Obs.Trace.t;
  mutable records : record list; (* newest first *)
  mutable next_lsn : int;
  mutable truncated_to : int; (* lsns below this are gone *)
  mutable synced_lsn : int; (* records above this may vanish at crash *)
  mutable unsynced_bytes : int;
  mutable bytes : int;
  mutable appended_bytes : int; (* lifetime, for write amplification *)
  mutable torn_tail_drops : int; (* torn tail records truncated by replay *)
  mutable dropped_unsynced : int; (* records lost to the group-commit window *)
  floors : (string, int) Hashtbl.t;
      (* per-client truncation floors: with several trees sharing one log
         (partitioned stores), the log may only drop records below every
         client's floor *)
}

let create ?(durability = Full) ?(group_commit_bytes = 4096) disk =
  { disk; durability; group_commit_bytes;
    faults = Simdisk.Faults.create ();
    trace = Obs.Trace.create ();
    records = []; next_lsn = 1; truncated_to = 1;
    synced_lsn = 0; unsynced_bytes = 0;
    bytes = 0; appended_bytes = 0;
    torn_tail_drops = 0; dropped_unsynced = 0;
    floors = Hashtbl.create 4 }

let set_faults t f = t.faults <- f
let set_trace t tr = t.trace <- tr

(* Each record pays a fixed framing overhead:
   u64 lsn @0, u32 payload length @8, u32 CRC32C @12 (over bytes [0,12)
   then the payload), payload from @16. *)
let framing = 16

let get_u32s s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let get_u64s s pos =
  let lo = get_u32s s pos and hi = get_u32s s (pos + 4) in
  lo lor (hi lsl 32)

let frame_crc s =
  let c = Repro_util.Crc32c.update 0xFFFFFFFF s 0 12 in
  let c = Repro_util.Crc32c.update c s framing (String.length s - framing) in
  c lxor 0xFFFFFFFF

(* The frame of a [len]-byte payload that [write x b framing] writes in
   place: the one buffer a record's bytes are copied into. *)
let frame ~lsn ~len write x =
  let b = Bytes.create (framing + len) in
  Page.set_u64 b 0 lsn;
  Page.set_u32 b 8 len;
  write x b framing;
  Page.set_u32 b 12 (frame_crc (Bytes.unsafe_to_string b));
  Bytes.unsafe_to_string b

(* [`Ok (lsn, payload)] for an intact frame; [`Torn] when the frame is
   physically incomplete (a tear); [`Bad lsn] when complete but failing
   its checksum (rot). *)
let verify_frame frame =
  let n = String.length frame in
  if n < framing then `Torn
  else begin
    let lsn = get_u64s frame 0 in
    let len = get_u32s frame 8 in
    if n <> framing + len then `Torn
    else if frame_crc frame <> get_u32s frame 12 then `Bad lsn
    else `Ok (lsn, String.sub frame framing len)
  end

let sync t =
  (match t.records with r :: _ -> t.synced_lsn <- max t.synced_lsn r.lsn | [] -> ());
  if Obs.Trace.enabled t.trace && t.unsynced_bytes > 0 then
    Obs.Trace.instant t.trace ~cat:"wal" ~name:"group_commit_sync"
      ~args:
        [ ("bytes", Obs.Trace.I t.unsynced_bytes);
          ("synced_lsn", Obs.Trace.I t.synced_lsn) ];
  t.unsynced_bytes <- 0

let store_record t ~lsn frame =
  let cost = String.length frame in
  Simdisk.Disk.seq_write t.disk ~bytes:cost;
  t.bytes <- t.bytes + cost;
  t.appended_bytes <- t.appended_bytes + cost;
  t.records <- { lsn; frame } :: t.records

(** [append_with t ~len write x] appends one logical record of [len]
    payload bytes, which [write x b pos] writes into the frame buffer [b]
    at [pos]; returns its LSN — the acknowledgement. In [None_]
    durability mode the record is dropped (but still assigned an LSN so
    callers can reason uniformly) and [write] is not called. [Full] syncs
    before acking; [Degraded] syncs once per group-commit window, so the
    unsynced tail is lost if the machine dies first. A scheduled fault can
    tear or drop the in-flight record and kill the machine before the
    ack ({!Simdisk.Faults.Crash_point} propagates to the caller). *)
let append_with t ~len write x =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  (match t.durability with
  | None_ -> ()
  | Full | Degraded ->
      let frame = frame ~lsn ~len write x in
      (match Simdisk.Faults.on_wal_append t.faults ~frame_bytes:(String.length frame) with
      | Simdisk.Faults.Wa_ok -> store_record t ~lsn frame
      | Simdisk.Faults.Wa_crash ->
          raise (Simdisk.Faults.Crash_point "wal append")
      | Simdisk.Faults.Wa_crash_torn keep ->
          store_record t ~lsn (String.sub frame 0 (min keep (String.length frame)));
          raise (Simdisk.Faults.Crash_point "wal append (torn)"));
      (match t.durability with
      | Full -> t.synced_lsn <- lsn
      | Degraded ->
          t.unsynced_bytes <- t.unsynced_bytes + String.length frame;
          if t.unsynced_bytes >= t.group_commit_bytes then sync t
      | None_ -> ()));
  lsn

let blit_payload payload b pos =
  Bytes.blit_string payload 0 b pos (String.length payload)

(** [append t payload] appends a record whose payload is already a
    string. *)
let append t payload =
  append_with t ~len:(String.length payload) blit_payload payload

(** [register_client t ~client] declares a log client with a floor at
    the current truncation point: until the client proposes a higher
    floor, nothing it might still need can be dropped. Trees register at
    creation, so a tree that has never merged still holds the log. *)
let register_client t ~client =
  if not (Hashtbl.mem t.floors client) then
    Hashtbl.replace t.floors client t.truncated_to

(** [propose_truncate t ~client ~upto_lsn] records that [client] no
    longer needs records below [upto_lsn], then truncates to the minimum
    over all clients' floors — so one tree's merge commit never drops
    records a co-hosted tree still needs for recovery. *)
let rec propose_truncate t ~client ~upto_lsn =
  let current = Option.value (Hashtbl.find_opt t.floors client) ~default:1 in
  if upto_lsn > current then begin
    Hashtbl.replace t.floors client upto_lsn;
    (* Order-insensitive fold (min is commutative): the result cannot
       observe the hash order. *)
    let min_floor =
      (Hashtbl.fold [@lint.allow "D002"]) (fun _ v acc -> min v acc) t.floors
        max_int
    in
    if min_floor > t.truncated_to && min_floor < max_int then
      truncate t ~upto_lsn:min_floor
  end

(** [truncate t ~upto_lsn] discards records with [lsn < upto_lsn]
    unconditionally (single-client logs; multi-tree stores must use
    {!propose_truncate}). *)
and truncate t ~upto_lsn =
  if upto_lsn > t.truncated_to then begin
    let keep, drop = List.partition (fun r -> r.lsn >= upto_lsn) t.records in
    let dropped = List.fold_left (fun a r -> a + String.length r.frame) 0 drop in
    t.records <- keep;
    t.bytes <- t.bytes - dropped;
    t.truncated_to <- upto_lsn;
    if Obs.Trace.enabled t.trace then
      Obs.Trace.instant t.trace ~cat:"wal" ~name:"truncate"
        ~args:
          [ ("upto_lsn", Obs.Trace.I upto_lsn);
            ("dropped_bytes", Obs.Trace.I dropped) ]
  end

(* Drop one specific record (the torn tail found by replay). *)
let drop_record t victim =
  t.records <- List.filter (fun r -> r != victim) t.records;
  t.bytes <- t.bytes - String.length victim.frame

(** [replay t ~from_lsn f] feeds surviving records (oldest first, lsn >=
    [from_lsn]) to [f], verifying each frame's checksum. Replay is
    "extremely expensive" (§4.4.2): we charge a sequential read of the
    replayed bytes. An invalid record at the tail is a torn group-commit
    write: it is truncated away (counted in {!torn_tail_drops}) and
    replay succeeds with the acked prefix. An invalid record anywhere
    else raises {!Corrupt}. *)
let replay t ~from_lsn f =
  let ordered = List.rev t.records in
  let rec go = function
    | [] -> ()
    | r :: rest -> (
        match verify_frame r.frame with
        | `Ok (lsn, payload) ->
            Simdisk.Disk.seq_read t.disk ~bytes:(String.length r.frame);
            if lsn >= from_lsn then f lsn payload;
            go rest
        | (`Torn | `Bad _) when rest = [] ->
            (* tail tear: the in-flight record at power loss; the write
               was never acked, so dropping it restores the acked prefix *)
            t.torn_tail_drops <- t.torn_tail_drops + 1;
            drop_record t r
        | `Torn -> raise (Corrupt { what = "torn record mid-log"; lsn = r.lsn })
        | `Bad lsn -> raise (Corrupt { what = "wal record checksum"; lsn }))
  in
  go ordered

(** [verify t] re-checks every stored frame without replaying: the WAL
    half of the scrubber. Returns (records checked, errors as
    [(what, lsn)]); a torn tail is reported but not counted fatal. *)
let verify t =
  let ordered = List.rev t.records in
  let n = List.length ordered in
  let errors = ref [] in
  List.iteri
    (fun i r ->
      match verify_frame r.frame with
      | `Ok _ -> ()
      | `Torn when i = n - 1 -> errors := ("wal torn tail", r.lsn) :: !errors
      | `Torn -> errors := ("wal torn record mid-log", r.lsn) :: !errors
      | `Bad lsn -> errors := ("wal record checksum", lsn) :: !errors)
    ordered;
  (n, List.rev !errors)

(** [crash t] applies power-loss semantics to the log itself: under
    [Degraded] durability the unsynced group-commit tail is discarded
    (§5.1 — "none of the systems sync their logs at commit"); [Full]
    synced every append, so nothing is lost. *)
let crash t =
  match t.durability with
  | Full | None_ -> ()
  | Degraded ->
      let keep, drop =
        List.partition (fun r -> r.lsn <= t.synced_lsn) t.records
      in
      let dropped = List.fold_left (fun a r -> a + String.length r.frame) 0 drop in
      t.records <- keep;
      t.bytes <- t.bytes - dropped;
      t.dropped_unsynced <- t.dropped_unsynced + List.length drop;
      t.unsynced_bytes <- 0

(** [stored_frame t ~lsn] is record [lsn]'s stored frame, header
    included (test instrumentation); [None] when the record is gone. *)
let stored_frame t ~lsn =
  Option.map (fun r -> r.frame) (List.find_opt (fun r -> r.lsn = lsn) t.records)

(** [flip_bit t ~lsn ~byte ~bit] rots one stored bit of record [lsn]
    (test/scrub instrumentation). Returns false when the record is gone. *)
let flip_bit t ~lsn ~byte ~bit =
  match List.find_opt (fun r -> r.lsn = lsn) t.records with
  | Some r when byte < String.length r.frame ->
      let b = Bytes.of_string r.frame in
      Bytes.set b byte
        (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit land 7))));
      r.frame <- Bytes.unsafe_to_string b;
      true
  | _ -> false

let next_lsn t = t.next_lsn
let truncated_to t = t.truncated_to
let synced_lsn t = t.synced_lsn
let size_bytes t = t.bytes
let appended_bytes t = t.appended_bytes
let durability t = t.durability
let torn_tail_drops t = t.torn_tail_drops
let dropped_unsynced t = t.dropped_unsynced
