let prefix_at s off =
  let len = String.length s in
  let p = ref 0 in
  for i = off to off + 6 do
    p := (!p lsl 8) lor (if i < len then Char.code (String.unsafe_get s i) else 0)
  done;
  !p

let mismatch a b =
  let n = Int.min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && Char.equal (String.unsafe_get a !i) (String.unsafe_get b !i) do
    incr i
  done;
  !i

let against_common common key =
  let i = mismatch common key in
  if i = String.length common then 0
  else if i = String.length key then -1
  else Char.compare (String.unsafe_get key i) (String.unsafe_get common i)
