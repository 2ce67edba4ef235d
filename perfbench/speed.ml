(* Machine-speed probe.

   On a shared host, neighbours slow this CPU for seconds at a time with
   no steal time to show for it: consecutive repetitions of one workload
   ran at anywhere from 84k to 139k engine ops/s, and the kernel below
   slowed down with them. It is run between engine calls ([Timed]), and
   engine time is scaled by it to reference speed.

   The kernel uses only the standard library and allocates nothing, so
   no change to the code under test can move it: it cannot start a minor
   collection or a major slice, and [probe] fails if its timed pass
   allocates a single word. Its first pass refills the caches the engine
   evicted and services any collection already pending, so the second,
   timed pass sees neither; only its copy streams memory no pass has
   just touched, as the engine's page copies and allocation do. *)

module SMap = Map.Make (String)

(* Kernel time, in ns, that defines reference speed. Any constant would
   do; this is about the kernel's time on a quiet 2 GHz Xeon vCPU, so
   scaled figures read close to raw ones there. *)
let nominal_ns = 70_000.0

let entries = 10_000

(* YCSB-style key: a 64-bit mix of [i], zero-padded. *)
let key i =
  let h = Int64.mul (Int64.add (Int64.of_int i) 0x9E3779B97F4A7C15L) 0xFF51AFD7ED558CCDL in
  Printf.sprintf "user%019Ld" (Int64.logand h 0x7FFFFFFFFFFFFFFFL)

(* Keys are formatted once, here, so a pass only looks them up. *)
let keys = Array.init entries key

let map =
  let m = ref SMap.empty in
  Array.iteri (fun i k -> m := SMap.add k i !m) keys;
  !m

let page = Bytes.init 4096 (fun i -> Char.chr (i * 131 land 0xFF))

(* CRC-32 table: byte-at-a-time table lookups over a page. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 1 to 8 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* Two 16 MiB regions outside the OCaml heap, far larger than the L2
   cache, for a streaming copy. *)
let stream_words = 1 lsl 21

let src = Bigarray.(Array1.init int c_layout stream_words (fun i -> i))
let dst = Bigarray.(Array1.create int c_layout stream_words)

(* Words copied per pass: 128 KiB read and 128 KiB written. *)
let copy_words = 16_384

(* 100 lookups in a 10k-entry string map, a table-driven checksum of a
   4 KiB page, then a copy of [copy_words] words from [at]: pointer
   chasing, key comparison, table lookups and memory traffic, as an engine
   call does, without allocating. *)
let pass cursor at =
  let acc = ref 0 in
  for i = 0 to 99 do
    acc := !acc + SMap.find keys.((cursor + (i * 7)) mod entries) map
  done;
  let crc = ref 0xFFFFFFFF in
  for i = 0 to Bytes.length page - 1 do
    crc := table.((!crc lxor Char.code (Bytes.unsafe_get page i)) land 0xFF) lxor (!crc lsr 8)
  done;
  for i = at to at + copy_words - 1 do
    Bigarray.Array1.unsafe_set dst i (Bigarray.Array1.unsafe_get src i)
  done;
  !acc + !crc

let cursor = ref 0
let stream_at = ref 0

(* The next [copy_words] words of the regions, round and round, so a copy
   streams memory the last few did not touch. *)
let next_stream () =
  let at = !stream_at in
  stream_at := (at + copy_words) mod stream_words;
  at

(* One probe, a warm pass then a timed one: how much slower than reference
   speed the machine ran, > 1 when slow. Divide a measured time by it,
   multiply a measured rate by it. *)
let probe () =
  let warm = pass !cursor (next_stream ()) in
  let at = next_stream () in
  let words = Gc.minor_words () in
  let t0 = Monotonic_clock.now () in
  let acc = pass !cursor at in
  let t1 = Monotonic_clock.now () in
  if Gc.minor_words () <> words then failwith "Speed.probe: the timed pass allocated";
  cursor := (warm + acc) land 0xFFFF;
  Int64.to_float (Int64.sub t1 t0) /. nominal_ns
