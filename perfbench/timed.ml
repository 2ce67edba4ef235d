(* Engine-call timing. [wrap] returns an engine whose get/put/scan time
   only the wrapped engine's own call on a monotonic ns clock: keys,
   values and scan lengths arrive already generated, and the shadow
   model is fed and every answer checked after the clock stops. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The machine-speed kernel runs after every [probe_every]-th call,
   outside the timed region. *)
let probe_every = 20

(* One timed call: an engine call (layer "kv") or, in the traced run, a
   replayed call into a lower layer. Simulated times are 0 for replays. *)
type span = {
  id : int;
  layer : string;
  name : string;
  wall_start : int;  (* ns *)
  wall_end : int;
  sim_start : float;  (* simulated µs *)
  sim_end : float;
  words : float;  (* minor-heap words allocated inside the call *)
}

(* A whole block of [probe_every] calls. *)
type block = {
  engine_ns : int;  (* wall ns inside the block's calls *)
  on_cpu : float;
      (* share of the block's wall time the process ran: below 1 when the
         host took the CPU away (steal), which the engine did not cause *)
  slowdown : float;  (* of the probe that follows the block *)
}

type t = {
  oracle : Oracle.t;
  disk : Simdisk.Disk.t;
  mutable recording : bool;  (* keep each call's wall latency *)
  mutable tracing : bool;  (* also keep spans and the calls' inputs *)
  mutable busy_ns : int;  (* raw, since set-up or phase start *)
  mutable calls : int;
  mutable blocks : block list;  (* newest first *)
  mutable block_ns : int;  (* the block under way: engine ns, *)
  mutable block_wall0 : int;  (* its start on the monotonic clock, *)
  mutable block_cpu0 : float;  (* and on the process CPU clock, in s *)
  mutable lat_ns : float array;  (* per-call wall ns of the phase, raw *)
  mutable sim_start : float array;  (* per-call simulated µs, this phase *)
  mutable sim_end : float array;
  mutable exceptions : int;
  mutable first_exn : string option;
  mutable spans : span list;  (* newest first *)
  mutable span_count : int;
  mutable put_log : (string * string) list;  (* newest first *)
  mutable get_log : string list;
  mutable scan_log : (string * int) list;
}

let create oracle disk =
  {
    oracle;
    disk;
    recording = false;
    tracing = false;
    busy_ns = 0;
    calls = 0;
    blocks = [];
    block_ns = 0;
    block_wall0 = now_ns ();
    block_cpu0 = Sys.time ();
    lat_ns = [||];
    sim_start = [||];
    sim_end = [||];
    exceptions = 0;
    first_exn = None;
    spans = [];
    span_count = 0;
    put_log = [];
    get_log = [];
    scan_log = [];
  }

(* Start a measured phase: counters restart, per-call latencies are kept
   from here on. *)
let start_phase t ~capacity ~tracing =
  t.recording <- true;
  t.tracing <- tracing;
  t.busy_ns <- 0;
  t.calls <- 0;
  t.blocks <- [];
  t.block_ns <- 0;
  t.block_wall0 <- now_ns ();
  t.block_cpu0 <- Sys.time ();
  t.lat_ns <- Array.make capacity 0.0;
  t.sim_start <- Array.make capacity 0.0;
  t.sim_end <- Array.make capacity 0.0

let whole_blocks t =
  match t.blocks with
  | [] -> invalid_arg "Timed: fewer calls than one block"
  | l -> Array.of_list (List.rev l)

(* How much slower than reference speed the machine ran since set-up or
   phase start: the median probe. *)
let slowdown t = Measure.median (Array.map (fun k -> k.slowdown) (whole_blocks t))

(* Blocks are scaled in segments of [segment] blocks, each by its median
   probe, the block under way with the last segment. A segment is long
   enough that one probe's noise does not move it, and short enough (a
   fraction of a second) to follow the machine's changes of speed within
   a repetition: in trials, one figure per repetition left scan-short's
   long repetitions further apart. *)
let segment = 50

let block_slowdowns t =
  let probes = Array.map (fun k -> k.slowdown) (whole_blocks t) in
  let n = Array.length probes in
  let medians =
    Array.init ((n + segment - 1) / segment) (fun i ->
        (* a short last segment joins the one before it *)
        let hi = min n ((i + 1) * segment) in
        let lo = if hi - (i * segment) < segment / 2 then max 0 (hi - segment) else i * segment in
        Measure.median (Array.sub probes lo (hi - lo)))
  in
  Array.init (n + 1) (fun b -> medians.(min b (n - 1) / segment))

(* Share of the time inside engine calls since set-up or phase start that
   the host let the process run. *)
let on_cpu t =
  let blocks = whole_blocks t in
  let ns = Array.fold_left (fun a k -> a + k.engine_ns) 0 blocks in
  Array.fold_left (fun a k -> a +. (float_of_int k.engine_ns *. k.on_cpu)) 0.0 blocks
  /. float_of_int ns

(* Engine CPU ns since set-up or phase start, at reference speed: each
   block's time inside engine calls, less the host's share of it, scaled.
   Stolen time is spread over a block in proportion, as a pause is as
   likely to land in one wall ns as in another. The block under way takes
   the on-CPU share of the last whole one. *)
let scaled_cpu_ns t =
  let blocks = whole_blocks t and s = block_slowdowns t in
  let n = Array.length blocks in
  let cpu b ns = float_of_int ns *. blocks.(min b (n - 1)).on_cpu /. s.(b) in
  let total = ref (cpu n t.block_ns) in
  Array.iteri (fun b k -> total := !total +. cpu b k.engine_ns) blocks;
  !total

(* The phase's per-call wall latencies at reference speed, ascending. *)
let phase_latencies t =
  let s = block_slowdowns t in
  let a = Array.init t.calls (fun i -> t.lat_ns.(i) /. s.(i / probe_every)) in
  Array.sort Float.compare a;
  a

let add_span t ~layer ~name ~wall_start ~wall_end ~sim_start ~sim_end ~words =
  t.spans <-
    { id = t.span_count; layer; name; wall_start; wall_end; sim_start; sim_end; words }
    :: t.spans;
  t.span_count <- t.span_count + 1

let finish t name ~sim0 ~words0 t0 t1 =
  let dt = t1 - t0 in
  t.busy_ns <- t.busy_ns + dt;
  t.block_ns <- t.block_ns + dt;
  let sim1 = Simdisk.Disk.now_us t.disk in
  if t.recording then begin
    (* one call per offered op, so [start_phase]'s capacity suffices *)
    t.lat_ns.(t.calls) <- float_of_int dt;
    t.sim_start.(t.calls) <- sim0;
    t.sim_end.(t.calls) <- sim1
  end;
  if t.tracing then
    add_span t ~layer:"kv" ~name ~wall_start:t0 ~wall_end:t1 ~sim_start:sim0 ~sim_end:sim1
      ~words:(Gc.minor_words () -. words0);
  t.calls <- t.calls + 1;
  if t.calls mod probe_every = 0 then begin
    let wall = now_ns () - t.block_wall0 and cpu = Sys.time () -. t.block_cpu0 in
    let on_cpu = Float.min 1.0 (cpu *. 1e9 /. float_of_int wall) in
    t.blocks <- { engine_ns = t.block_ns; on_cpu; slowdown = Speed.probe () } :: t.blocks;
    t.block_ns <- 0;
    t.block_cpu0 <- Sys.time ();
    t.block_wall0 <- now_ns ()
  end

(* [call t name f]: [Some (f ())], timed; [None] if [f] raised, which is
   counted as a failed operation. *)
let call t name f =
  let sim0 = if t.recording then Simdisk.Disk.now_us t.disk else 0.0 in
  let words0 = if t.tracing then Gc.minor_words () else 0.0 in
  let t0 = now_ns () in
  match f () with
  | r ->
      let t1 = now_ns () in
      finish t name ~sim0 ~words0 t0 t1;
      Some r
  | exception e ->
      let t1 = now_ns () in
      finish t name ~sim0 ~words0 t0 t1;
      t.exceptions <- t.exceptions + 1;
      if Option.is_none t.first_exn then t.first_exn <- Some (Printexc.to_string e);
      None

(* As [call], for a replayed call into a layer below the engine surface:
   only a span is kept. *)
let replay t ~layer ~name f =
  let words0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  add_span t ~layer ~name ~wall_start:t0 ~wall_end:t1 ~sim_start:0.0 ~sim_end:0.0
    ~words:(Gc.minor_words () -. words0);
  r

let wrap t (e : Kv.Kv_intf.engine) =
  {
    e with
    Kv.Kv_intf.get =
      (fun key ->
        if t.tracing then t.get_log <- key :: t.get_log;
        match call t "get" (fun () -> e.get key) with
        | Some got ->
            Oracle.check_get t.oracle key got;
            got
        | None -> None);
    put =
      (fun key value ->
        if t.tracing then t.put_log <- (key, value) :: t.put_log;
        match call t "put" (fun () -> e.put key value) with
        | Some () -> Oracle.put t.oracle key value
        | None -> ());
    scan =
      (fun start n ->
        if t.tracing then t.scan_log <- (start, n) :: t.scan_log;
        match call t "scan" (fun () -> e.scan start n) with
        | Some got ->
            Oracle.check_scan t.oracle start n got;
            got
        | None -> []);
  }
