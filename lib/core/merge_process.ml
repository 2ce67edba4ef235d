(** The merge executor: the one loop behind every merge an engine runs.

    A merge pulls records in key order from one sorted input and streams
    them through an {!Sstable.Builder} and a Bloom filter, doing at most
    [quota] input bytes per {!step}. Progress is metered in input bytes
    read (§4.1), so the schedulers can interleave merge work with
    application writes at any granularity — the "smooth" progress
    property the paper requires. A merge ends in {!finish}, which seals
    its output, or in {!abandon}, which frees every page it wrote.

    What varies between merges is only the input:
    - {!c0_input}: C0 (a live snowshovel cursor or a frozen C0' snapshot)
      merged with the old C1 ({!Tree}'s C0:C1 merge);
    - {!merge_input}: sorted pulls through a {!Sstable.Merge_iter}
      ({!Tree}'s C1':C2 merge, every {!Policy_tree} compaction, and
      {!Policy_tree}'s flush of its memtable). *)

type progress = {
  bytes_read : int;  (** input bytes consumed so far *)
  bytes_total : int;  (** current estimate of total input bytes *)
}

type outcome = [ `More | `Done ]

type group =
  | Record of string * Kv.Entry.t * int
  | Framed of Sstable.Sst_format.Framed.t
  | Elided
  | End

type input = {
  pull : output_bytes:int -> group;
  meter : int ref;
  total : unit -> int;
}

type output = Level | Runs of int

type t = {
  store : Pagestore.Store.t;
  extent_pages : int;
  bloom_bits : int;  (** bits per key; 0 = no filter *)
  persist_bloom : bool;
  input : input;
  bloom_items : int;
  output : output;
  stamp : unit -> int;
  label : string;  (** trace event prefix *)
  tr : Obs.Trace.t;  (** the store's tracer, captured at creation *)
  mutable builder : Sstable.Builder.t option;  (** the open output *)
  mutable bloom : Bloom.t option;  (** the open output's filter *)
  mutable sealed : Component.t list;  (** sealed outputs, newest first *)
  mutable sealed_bytes : int;
  mutable read : int;  (** input bytes as of the last step *)
}

let record_bytes key entry = String.length key + Kv.Entry.encoded_size entry

let create ~config ~store ~label ~args ~input ~bloom_items ~output ~stamp =
  let tr = Pagestore.Store.trace store in
  if Obs.Trace.enabled tr then
    Obs.Trace.instant tr ~cat:"merge" ~name:(label ^ ".start") ~args;
  {
    store;
    extent_pages = config.Config.extent_pages;
    bloom_bits =
      (if Config.bloom_enabled config then config.Config.bloom_bits_per_key
       else 0);
    persist_bloom = config.Config.persist_bloom;
    input;
    bloom_items;
    output;
    stamp;
    label;
    tr;
    builder = None;
    bloom = None;
    sealed = [];
    sealed_bytes = 0;
    read = 0;
  }

let output_bytes m =
  match m.builder with
  | Some b -> m.sealed_bytes + Sstable.Builder.data_bytes b
  | None -> m.sealed_bytes

let open_output m =
  let b = Sstable.Builder.create ~extent_pages:m.extent_pages m.store in
  m.builder <- Some b;
  m.bloom <-
    (if m.bloom_bits = 0 then None
     else
       Some (Bloom.create ~bits_per_item:m.bloom_bits ~expected_items:m.bloom_items ()));
  b

(* Seal the open output into a mounted component. The builder stays
   owned by [m] until [finish] returns, so a crash inside it is still
   rolled back by [abandon]. *)
let seal m b =
  let timestamp = m.stamp () in
  let bloom_blob =
    if m.persist_bloom then Option.map Bloom.to_string m.bloom else None
  in
  let footer = Sstable.Builder.finish ?bloom_blob b ~timestamp in
  let sst =
    Sstable.Reader.open_in_ram m.store footer ~index:(Sstable.Builder.index_blob b)
  in
  m.sealed <- Component.of_sst ?bloom:m.bloom sst :: m.sealed;
  m.sealed_bytes <- m.sealed_bytes + Sstable.Builder.data_bytes b;
  m.builder <- None;
  m.bloom <- None

(* The output a record goes to: the open one, unless it has reached the
   split size, in which case it is sealed and the next one opened. *)
let target m =
  match (m.builder, m.output) with
  | Some b, Runs split when split > 0 && Sstable.Builder.data_bytes b >= split ->
      seal m b;
      open_output m
  | Some b, _ -> b
  | None, _ -> open_output m

let emit m key entry ~lsn =
  Sstable.Builder.add ~lsn (target m) key entry;
  match m.bloom with Some bl -> Bloom.add bl key | None -> ()

let emit_framed m fr =
  Sstable.Builder.add_framed (target m) fr;
  match m.bloom with
  | Some bl -> Bloom.add bl (Sstable.Sst_format.Framed.key fr)
  | None -> ()

let step m ~quota : outcome =
  let traced = Obs.Trace.enabled m.tr in
  let ts = if traced then Obs.Trace.now_us m.tr else 0.0 in
  let meter = m.input.meter in
  let start = !meter in
  (* The meter is checked once per key group, so a step reads at most
     [quota] plus one group, however many groups the input elides. *)
  let rec go () =
    if !meter - start >= quota then `More
    else
      match m.input.pull ~output_bytes:(output_bytes m) with
      | End -> `Done
      | Elided -> go ()
      | Record (key, entry, lsn) ->
          emit m key entry ~lsn;
          go ()
      | Framed fr ->
          emit_framed m fr;
          go ()
  in
  let r = go () in
  m.read <- !meter;
  if traced then
    Obs.Trace.complete m.tr ~cat:"merge" ~name:(m.label ^ ".quantum") ~ts_us:ts
      ~dur_us:(Obs.Trace.now_us m.tr -. ts)
      ~args:
        [ ("quota", Obs.Trace.I quota);
          ("consumed", Obs.Trace.I (!meter - start));
          ("done", Obs.Trace.B (r = `Done)) ];
  r

let progress m = { bytes_read = m.read; bytes_total = max 1 (m.input.total ()) }

(** inprogress_i = bytes read by merge_i / (|C'_{i-1}| + |C_i|)  (§4.1) *)
let inprogress m =
  let p = progress m in
  min 1.0 (float_of_int p.bytes_read /. float_of_int p.bytes_total)

let finish m =
  if Obs.Trace.enabled m.tr then
    Obs.Trace.instant m.tr ~cat:"merge" ~name:(m.label ^ ".commit")
      ~args:
        [ ("output_bytes", Obs.Trace.I (output_bytes m));
          ("input_bytes", Obs.Trace.I m.read) ];
  (match (m.builder, m.output) with
  | Some b, _ -> seal m b
  | None, Level -> seal m (open_output m)
  | None, Runs _ -> ());
  let outputs = List.rev m.sealed in
  m.sealed <- [];
  outputs

let abandon m =
  if Obs.Trace.enabled m.tr then
    Obs.Trace.instant m.tr ~cat:"merge" ~name:(m.label ^ ".abort") ~args:[];
  (match m.builder with Some b -> Sstable.Builder.abandon b | None -> ());
  List.iter Component.free m.sealed;
  m.builder <- None;
  m.sealed <- []

(** {1 Inputs} *)

let metered meter pull () =
  match pull () with
  | Some (key, entry, _) as r ->
      meter := !meter + record_bytes key entry;
      r
  | None -> None

let merge_input ~resolver ~drop_tombstones ~total pulls =
  let meter = ref 0 in
  let it =
    Sstable.Merge_iter.create ~resolver ~drop_tombstones
      (List.mapi (fun i pull -> (i, metered meter pull)) pulls)
  in
  {
    pull =
      (fun ~output_bytes:_ ->
        match Sstable.Merge_iter.next_group it with
        | Record (key, entry, lsn) -> Record (key, entry, lsn)
        | Elided -> Elided
        | End -> End);
    meter;
    total = (fun () -> total);
  }

(** {2 The snowshovel shadow} *)

module Shadow = struct
  type record = string * Kv.Entry.t * int

  (* [recs.(0 .. len-1)] in strictly increasing key order. [cells] is an
     open-addressing table of indices into [recs] (-1: empty), built
     lazily: it holds [recs.(0 .. indexed-1)] and catches up with the
     appends at the first {!find} after them, so a merge that no read
     consults hashes nothing. *)
  type t = {
    mutable recs : record array;
    mutable len : int;
    mutable cells : int array;
    mutable indexed : int;
  }

  let dummy : record = ("", Kv.Entry.Tombstone, 0)

  let create ~capacity =
    { recs = Array.make (max 1 capacity) dummy; len = 0; cells = [||]; indexed = 0 }

  let key_at t i =
    let k, _, _ = t.recs.(i) in
    k

  let append t ((key, _, _) as r) =
    if t.len > 0 && String.compare key (key_at t (t.len - 1)) <= 0 then
      invalid_arg "Merge_process.Shadow.append: keys must increase";
    if t.len = Array.length t.recs then begin
      let recs = Array.make (2 * t.len) dummy in
      Array.blit t.recs 0 recs 0 t.len;
      t.recs <- recs
    end;
    t.recs.(t.len) <- r;
    t.len <- t.len + 1

  (* The cell holding [key]'s record index, or the empty cell ending its
     probe run. *)
  let cell t key =
    let mask = Array.length t.cells - 1 in
    let i = ref (String.hash key land mask) in
    while
      let r = Array.unsafe_get t.cells !i in
      r >= 0 && not (String.equal (key_at t r) key)
    do
      i := (!i + 1) land mask
    done;
    !i

  (* Hash the records appended since the last catch-up. A table that
     would pass half full is rebuilt at four cells per record, so
     rebuilds are rare as the shadow grows. Keys are distinct, so each
     lands in an empty cell. *)
  let catch_up t =
    if t.indexed < t.len then begin
      if 2 * t.len > Array.length t.cells then begin
        let size = ref 16 in
        while !size < 4 * t.len do
          size := 2 * !size
        done;
        t.cells <- Array.make !size (-1);
        t.indexed <- 0
      end;
      for r = t.indexed to t.len - 1 do
        t.cells.(cell t (key_at t r)) <- r
      done;
      t.indexed <- t.len
    end

  let find t key =
    if t.len = 0 then None
    else begin
      catch_up t;
      let r = t.cells.(cell t key) in
      if r >= 0 then Some t.recs.(r) else None
    end

  (* Index of the first record with key >= [key]. *)
  let lower_bound t key =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) lsr 1 in
        if String.compare (key_at t mid) key < 0 then go (mid + 1) hi
        else go lo mid
    in
    go 0 t.len

  let find_sorted t key =
    let i = lower_bound t key in
    if i < t.len && String.equal (key_at t i) key then Some t.recs.(i) else None

  let pull_from t ~from =
    let i = ref (lower_bound t from) in
    fun () ->
      (* Until the first record is returned, a record appended since the
         pull opened may still sort below [from]. *)
      while !i < t.len && String.compare (key_at t !i) from < 0 do
        incr i
      done;
      if !i < t.len then begin
        let r = t.recs.(!i) in
        incr i;
        Some r
      end
      else None
end

type c0_source =
  | Live of { mem : Memtable.t; shadow : Shadow.t }
  | Frozen of Memtable.t

(* The snowshovel cursor is "the lowest key that comes after the last
   value written" (§4.2) — it tracks the last key *emitted*, from either
   input, so a fresh C0 insert of an already-emitted key waits for the
   next run instead of breaking output order. Only a C0-only tail may
   end the run early, once the output holds [run_cap] bytes: C1 must be
   drained because it is freed at commit. A live C0 record is peeked and
   then popped at the same cursor, so the memtable's remembered
   successor turns both into the one descent that unlinks it.

   C1 records are framed, not decoded: one that no C0 record shadows
   goes to the output as its stored bytes ([Framed]), and only a key
   both inputs hold is decoded and merged. The next C1 record is framed
   as the current one is taken, before the executor writes it, so every
   C1 page fetch lands at the same point of the pull as a decoding read
   would put it. Two frames alternate for that: the one handed out stays
   intact while the other takes its successor. *)
let c0_input ~resolver ~source ~c1 ~run_cap =
  let mem = match source with Live { mem; _ } | Frozen mem -> mem in
  let meter = ref 0 in
  let c1_read = ref 0 in
  let started = ref false and cursor = ref "" in
  let c1_iter = Option.map Component.iterator c1 in
  let module F = Sstable.Sst_format.Framed in
  let fa = F.create () and fb = F.create () in
  let ga = Framed fa and gb = Framed fb in
  (* [fa] holds the C1 peek when [on_a], else [fb]; [c1_live]: it holds one. *)
  let on_a = ref true in
  let frame_next fr =
    match c1_iter with Some it -> Sstable.Reader.iter_next_framed it fr | None -> false
  in
  let c1_live = ref (frame_next fa) in
  let c1_total = match c1 with Some c -> Component.data_bytes c | None -> 0 in
  let denom = Memtable.bytes mem + c1_total in
  let take_c0 ((key, entry, _) as r) =
    meter := !meter + record_bytes key entry;
    match source with
    | Live { mem; shadow } ->
        ignore
          (if !started then Memtable.pop_next mem !cursor
           else Memtable.consume_geq_lsn mem "");
        Shadow.append shadow r
    | Frozen _ -> ()
  in
  (* Take the C1 peek and frame its successor into the other frame;
     returns the group holding the taken record. *)
  let take fr g ~next =
    let n = F.record_bytes fr in
    c1_read := !c1_read + n;
    meter := !meter + n;
    on_a := not !on_a;
    c1_live := frame_next next;
    started := true;
    cursor := F.key fr;
    g
  in
  let take_c1 () = if !on_a then take fa ga ~next:fb else take fb gb ~next:fa in
  let record (key, entry, lsn) =
    started := true;
    cursor := key;
    Record (key, entry, lsn)
  in
  let pull ~output_bytes =
    let c0_next =
      if !started then Memtable.peek_gt_lsn mem !cursor
      else Memtable.peek_geq_lsn mem ""
    in
    match c0_next with
    | None when not !c1_live -> End
    | None -> take_c1 ()
    | Some r0 when not !c1_live ->
        if output_bytes >= run_cap then End
        else begin
          take_c0 r0;
          record r0
        end
    | Some ((k0, e0, l0) as r0) ->
        let f1 = if !on_a then fa else fb in
        let c = String.compare k0 (F.key f1) in
        if c < 0 then begin
          take_c0 r0;
          record r0
        end
        else if c > 0 then take_c1 ()
        else begin
          let e1 = F.entry f1 and l1 = F.lsn f1 in
          take_c0 r0;
          ignore (take_c1 ());
          record (k0, Kv.Entry.merge resolver ~newer:e0 ~older:e1, max l0 l1)
        end
  in
  let total =
    match source with
    | Live _ ->
        fun () -> !meter + Memtable.bytes mem + max 0 (c1_total - !c1_read)
    | Frozen _ -> fun () -> max denom !meter
  in
  { pull; meter; total }
