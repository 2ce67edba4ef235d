(** Incremental merge state machines.

    Each merge pulls from its inputs in key order and streams output pages
    through an {!Sstable.Builder}, doing at most [quota] bytes of input per
    {!step}. Because work is metered in small steps, the schedulers can
    interleave merge progress with application writes at any granularity —
    the "smooth" progress property §4.1 requires.

    Two shapes:
    - {!c0_merge}: C0 (live snowshovel cursor, or a frozen C0' snapshot)
      merged with the old C1 into a new C1. With snowshoveling the C0 side
      re-queries the live memtable on every record, so inserts landing
      ahead of the cursor join the current run (§4.2); records consumed
      from C0 are kept readable in a shadow table until the merge commits.
    - {!c12_merge}: C1' merged with the old C2 into a new C2. C2 is the
      bottom level, so tombstones are elided and orphan deltas resolve to
      base records — preserving the all-base invariant behind one-seek
      reads (§3.1.1). *)

type progress = {
  bytes_read : int;  (** input bytes consumed so far *)
  bytes_total : int;  (** current estimate of total input bytes *)
  output_bytes : int;
}

type outcome = [ `More | `Done ]

(** {1 C0 : C1 merge} *)

type c0_source =
  | Live of {
      mem : Memtable.t;
      shadow : (Kv.Entry.t * int) Memtable.Skiplist.t;
          (** consumed-but-uncommitted records (entry, newest lsn),
              readable by the tree *)
    }
  | Frozen of Memtable.t  (** C0' snapshot; discarded wholesale at the end *)

type c0_merge = {
  persist_bloom : bool;
  resolver : Kv.Entry.resolver;
  source : c0_source;
  mutable cursor : string option;  (** last key taken from C0 *)
  c1 : Component.t option;  (** old C1 being rewritten (input) *)
  c1_iter : Sstable.Reader.iter option;
  mutable c1_peek : (string * Kv.Entry.t * int) option;
  c1_total : int;
  builder : Sstable.Builder.t;
  bloom : Bloom.t option;
  run_cap : int;  (** end the run early once output exceeds this *)
  denom : int;  (** |C0'| + |C1| at run start: the gear denominator *)
  mutable mem_bytes_read : int;
  mutable c1_bytes_read : int;
  tr : Obs.Trace.t;  (** the store's tracer, captured at creation *)
}

let record_bytes key entry =
  String.length key + Kv.Entry.encoded_size entry

let peek_c0 m =
  let mem = match m.source with Live { mem; _ } | Frozen mem -> mem in
  match m.cursor with
  | None -> Memtable.peek_geq_lsn mem ""
  | Some k -> Memtable.peek_gt_lsn mem k

let take_c0 m (key, entry, lsn) =
  m.mem_bytes_read <- m.mem_bytes_read + record_bytes key entry;
  match m.source with
  | Live { mem; shadow } ->
      ignore (Memtable.remove mem key);
      Memtable.Skiplist.set shadow key (entry, lsn)
  | Frozen _ -> ()

let advance_c1 m =
  match m.c1_iter with
  | None -> ()
  | Some it ->
      (match m.c1_peek with
      | Some (k, e, _) -> m.c1_bytes_read <- m.c1_bytes_read + record_bytes k e
      | None -> ());
      m.c1_peek <- Sstable.Reader.iter_next_full it

let create_c0_merge ~config ~store ~source ~c1 ~run_cap ~expected_items =
  let c1_iter = Option.map Component.iterator c1 in
  let c1_peek =
    match c1_iter with Some it -> Sstable.Reader.iter_next_full it | None -> None
  in
  let c1_total = match c1 with Some c -> Component.data_bytes c | None -> 0 in
  let source_bytes =
    match source with
    | Live { mem; _ } -> Memtable.bytes mem
    | Frozen mem -> Memtable.bytes mem
  in
  let bloom =
    if Config.bloom_enabled config then
      Some
        (Bloom.create ~bits_per_item:config.Config.bloom_bits_per_key
           ~expected_items ())
    else None
  in
  let tr = Pagestore.Store.trace store in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"merge" ~name:"merge1.start"
      ~args:
        [ ("source", Obs.Trace.S (match source with Live _ -> "live" | Frozen _ -> "frozen"));
          ("c0_bytes", Obs.Trace.I source_bytes);
          ("c1_bytes", Obs.Trace.I c1_total);
          ("run_cap", Obs.Trace.I run_cap) ];
  {
    persist_bloom = config.Config.persist_bloom;
    resolver = config.Config.resolver;
    source;
    cursor = None;
    c1;
    c1_iter;
    c1_peek;
    c1_total;
    builder =
      Sstable.Builder.create ~extent_pages:config.Config.extent_pages store;
    bloom;
    run_cap;
    denom = source_bytes + c1_total;
    mem_bytes_read = 0;
    c1_bytes_read = 0;
    tr;
  }

(* The snowshovel cursor is "the lowest key that comes after the last
   value written" (§4.2) — it tracks the last key *emitted*, from either
   input, so a fresh C0 insert of an already-emitted key waits for the
   next run instead of breaking output order. *)
let emit m key entry ~lsn =
  m.cursor <- Some key;
  Sstable.Builder.add ~lsn m.builder key entry;
  match m.bloom with Some b -> Bloom.add b key | None -> ()

(* One merge element; returns bytes of input consumed, or None when the
   run is over. *)
let step_one_c0 m =
  let c0_next = peek_c0 m in
  match (c0_next, m.c1_peek) with
  | None, None -> None
  | Some (k, e, l), None ->
      if Sstable.Builder.data_bytes m.builder >= m.run_cap then None
      else begin
        take_c0 m (k, e, l);
        emit m k e ~lsn:l;
        Some (record_bytes k e)
      end
  | None, Some (k, e, l) ->
      advance_c1 m;
      emit m k e ~lsn:l;
      Some (record_bytes k e)
  | Some (k0, e0, l0), Some (k1, e1, l1) ->
      let c = String.compare k0 k1 in
      if c < 0 then begin
        take_c0 m (k0, e0, l0);
        emit m k0 e0 ~lsn:l0;
        Some (record_bytes k0 e0)
      end
      else if c > 0 then begin
        advance_c1 m;
        emit m k1 e1 ~lsn:l1;
        Some (record_bytes k1 e1)
      end
      else begin
        take_c0 m (k0, e0, l0);
        advance_c1 m;
        emit m k0 (Kv.Entry.merge m.resolver ~newer:e0 ~older:e1)
          ~lsn:(max l0 l1);
        Some (record_bytes k0 e0 + record_bytes k1 e1)
      end

(** [step_c0 m ~quota] consumes up to [quota] input bytes. *)
let step_c0 m ~quota : outcome =
  let traced = Obs.Trace.enabled m.tr in
  let ts = if traced then Obs.Trace.now_us m.tr else 0.0 in
  let before = if traced then m.mem_bytes_read + m.c1_bytes_read else 0 in
  let rec go budget =
    if budget <= 0 then `More
    else
      match step_one_c0 m with
      | None -> `Done
      | Some consumed -> go (budget - consumed)
  in
  let r = go quota in
  if traced then
    Obs.Trace.complete m.tr ~cat:"merge" ~name:"merge1.quantum" ~ts_us:ts
      ~dur_us:(Obs.Trace.now_us m.tr -. ts)
      ~args:
        [ ("quota", Obs.Trace.I quota);
          ("consumed", Obs.Trace.I (m.mem_bytes_read + m.c1_bytes_read - before));
          ("done", Obs.Trace.B (r = `Done)) ];
  r

let c0_progress m =
  let read = m.mem_bytes_read + m.c1_bytes_read in
  let remaining_mem =
    match m.source with
    | Live { mem; _ } -> Memtable.bytes mem
    | Frozen mem -> max 0 (Memtable.bytes mem - m.mem_bytes_read)
  in
  let total =
    match m.source with
    | Live _ -> read + remaining_mem + max 0 (m.c1_total - m.c1_bytes_read)
    | Frozen _ -> max m.denom read
  in
  {
    bytes_read = read;
    bytes_total = max 1 total;
    output_bytes = Sstable.Builder.data_bytes m.builder;
  }

(** inprogress_i = bytes read by merge_i / (|C'_{i-1}| + |C_i|)  (§4.1) *)
let c0_inprogress m =
  let p = c0_progress m in
  min 1.0 (float_of_int p.bytes_read /. float_of_int p.bytes_total)

(** [finish_c0 m ~store ~timestamp] seals the output component. The caller
    swaps it in, clears the shadow, and frees the old C1. *)
let bloom_blob_of ~persist bloom =
  match (persist, bloom) with
  | true, Some b -> Bloom.to_string b
  | _ -> ""

let finish_c0 m ~timestamp =
  if Obs.Trace.enabled m.tr then
    Obs.Trace.instant m.tr ~cat:"merge" ~name:"merge1.commit"
      ~args:
        [ ("output_bytes", Obs.Trace.I (Sstable.Builder.data_bytes m.builder));
          ("input_bytes", Obs.Trace.I (m.mem_bytes_read + m.c1_bytes_read)) ];
  let footer =
    Sstable.Builder.finish m.builder ~timestamp
      ~bloom_blob:(bloom_blob_of ~persist:m.persist_bloom m.bloom)
  in
  (footer, Sstable.Builder.index_blob m.builder, m.bloom)

let abandon_c0 m =
  if Obs.Trace.enabled m.tr then
    Obs.Trace.instant m.tr ~cat:"merge" ~name:"merge1.abort" ~args:[];
  Sstable.Builder.abandon m.builder

let c0_shadow m =
  match m.source with Live { shadow; _ } -> Some shadow | Frozen _ -> None

let c0_old_c1 m = m.c1

let c0_source_kind m =
  match m.source with Live _ -> `Live | Frozen _ -> `Frozen

let c0_frozen_mem m =
  match m.source with Frozen mem -> Some mem | Live _ -> None

(** {1 C1' : C2 merge} *)

type c12_merge = {
  persist_bloom12 : bool;
  resolver12 : Kv.Entry.resolver;
  c1p : Component.t;
  c2 : Component.t option;
  merge : Sstable.Merge_iter.t;
  builder12 : Sstable.Builder.t;
  bloom12 : Bloom.t option;
  total12 : int;
  mutable read12 : int;
  tr12 : Obs.Trace.t;  (** the store's tracer, captured at creation *)
}

let create_c12_merge ~config ~store ~c1_prime ~c2 =
  let count src (k, e, l) =
    src := !src + record_bytes k e;
    (k, e, l)
  in
  let read_counter = ref 0 in
  let wrap it () =
    match Sstable.Reader.iter_next_full it with
    | None -> None
    | Some r -> Some (count read_counter r)
  in
  let inputs =
    (0, wrap (Component.iterator c1_prime))
    ::
    (match c2 with Some c -> [ (1, wrap (Component.iterator c)) ] | None -> [])
  in
  let merge =
    Sstable.Merge_iter.create ~resolver:config.Config.resolver
      ~drop_tombstones:true inputs
  in
  let expected =
    Component.record_count c1_prime
    + (match c2 with Some c -> Component.record_count c | None -> 0)
  in
  let bloom12 =
    if Config.bloom_enabled config then
      Some
        (Bloom.create ~bits_per_item:config.Config.bloom_bits_per_key
           ~expected_items:(max 1 expected) ())
    else None
  in
  let tr12 = Pagestore.Store.trace store in
  let total12 =
    Component.data_bytes c1_prime
    + match c2 with Some c -> Component.data_bytes c | None -> 0
  in
  if Obs.Trace.enabled tr12 then
    Obs.Trace.instant tr12 ~cat:"merge" ~name:"merge2.start"
      ~args:
        [ ("c1p_bytes", Obs.Trace.I (Component.data_bytes c1_prime));
          ("c2_bytes",
           Obs.Trace.I
             (match c2 with Some c -> Component.data_bytes c | None -> 0)) ];
  let m =
    {
      persist_bloom12 = config.Config.persist_bloom;
      resolver12 = config.Config.resolver;
      c1p = c1_prime;
      c2;
      merge;
      builder12 =
        Sstable.Builder.create ~extent_pages:config.Config.extent_pages store;
      bloom12;
      total12;
      read12 = 0;
      tr12;
    }
  in
  (m, read_counter)

type c12 = { m12 : c12_merge; counter : int ref }

let create_c12 ~config ~store ~c1_prime ~c2 =
  let m, counter = create_c12_merge ~config ~store ~c1_prime ~c2 in
  { m12 = m; counter }

(** [step_c12 t ~quota] advances the bottom merge by up to [quota] input
    bytes. *)
let step_c12 t ~quota : outcome =
  let m = t.m12 in
  let traced = Obs.Trace.enabled m.tr12 in
  let ts = if traced then Obs.Trace.now_us m.tr12 else 0.0 in
  let start = !(t.counter) in
  let rec go () =
    if !(t.counter) - start >= quota then begin
      m.read12 <- !(t.counter);
      `More
    end
    else
      match Sstable.Merge_iter.next m.merge with
      | None ->
          m.read12 <- !(t.counter);
          `Done
      | Some (k, e, lsn) ->
          Sstable.Builder.add ~lsn m.builder12 k e;
          (match m.bloom12 with Some b -> Bloom.add b k | None -> ());
          go ()
  in
  let r = go () in
  if traced then
    Obs.Trace.complete m.tr12 ~cat:"merge" ~name:"merge2.quantum" ~ts_us:ts
      ~dur_us:(Obs.Trace.now_us m.tr12 -. ts)
      ~args:
        [ ("quota", Obs.Trace.I quota);
          ("consumed", Obs.Trace.I (!(t.counter) - start));
          ("done", Obs.Trace.B (r = `Done)) ];
  r

let c12_inprogress t =
  let m = t.m12 in
  if m.total12 = 0 then 1.0
  else min 1.0 (float_of_int m.read12 /. float_of_int m.total12)

let c12_progress t =
  let m = t.m12 in
  {
    bytes_read = m.read12;
    bytes_total = max 1 m.total12;
    output_bytes = Sstable.Builder.data_bytes m.builder12;
  }

let finish_c12 t ~timestamp =
  let m = t.m12 in
  if Obs.Trace.enabled m.tr12 then
    Obs.Trace.instant m.tr12 ~cat:"merge" ~name:"merge2.commit"
      ~args:
        [ ("output_bytes", Obs.Trace.I (Sstable.Builder.data_bytes m.builder12));
          ("input_bytes", Obs.Trace.I m.read12) ];
  let footer =
    Sstable.Builder.finish m.builder12 ~timestamp
      ~bloom_blob:(bloom_blob_of ~persist:m.persist_bloom12 m.bloom12)
  in
  (footer, Sstable.Builder.index_blob m.builder12, m.bloom12)

let abandon_c12 t =
  if Obs.Trace.enabled t.m12.tr12 then
    Obs.Trace.instant t.m12.tr12 ~cat:"merge" ~name:"merge2.abort" ~args:[];
  Sstable.Builder.abandon t.m12.builder12

let c12_inputs t = (t.m12.c1p, t.m12.c2)
