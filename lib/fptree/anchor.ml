(* Prefix-truncated integer anchors (see anchor.mli).  Layout of an
   anchor: suffix bytes 0..6 at bits 52..59, 44..51, ..., 4..11
   (zero-padded past the suffix's end), the length code in bits 0..3.
   The largest anchor is below 2^60, so every anchor is a
   non-negative tagged int and [<] on anchors is unsigned order. *)

let long_code = 8

(* Eight bytes at [i] as loaded (equality) or big-endian (order).
   The stdlib accessors inline to a checked load, and each is used
   inside one expression, so the [int64]s stay unboxed. *)
let get64u = String.get_int64_ne
let get64_be = String.get_int64_be

(* Suffix bytes [pl, pl + 7) of [k] as a 56-bit big-endian int,
   zero-padded: one 8-byte load when the key holds eight bytes there
   (at [pl]) or before its end (at [kl - 8], the suffix shifted to the
   top), else byte by byte. *)
let[@inline] bytes7 k pl =
  let kl = String.length k in
  let sl = kl - pl in
  if sl >= 8 then Int64.to_int (Int64.shift_right_logical (get64_be k pl) 8)
  else if sl <= 0 then 0
  else if kl >= 8 then
    Int64.to_int
      (Int64.shift_right_logical
         (Int64.shift_left (get64_be k (kl - 8)) (8 * (8 - sl)))
         8)
  else begin
    let a = ref 0 in
    for j = 0 to 6 do
      let c = if j < sl then Char.code k.[pl + j] else 0 in
      a := (!a lsl 8) lor c
    done;
    !a
  end

let[@inline] encode k pl =
  let sl = String.length k - pl in
  (bytes7 k pl lsl 4) lor (if sl > 7 then long_code else max sl 0)

let[@inline] is_long a = a land 15 >= long_code

let key p a =
  let pl = String.length p and sl = min 7 (a land 15) in
  String.init (pl + sl) (fun j ->
      if j < pl then p.[j]
      else Char.unsafe_chr ((a lsr (52 - (8 * (j - pl)))) land 255))

let lcp a b =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while !i < n && a.[!i] = b.[!i] do
    incr i
  done;
  !i

(* [against_prefix] byte by byte from [j].  Top level over plain
   arguments, as are the loops below: no closure per call. *)
let rec against_bytes p pl k kl j =
  if j >= pl then 0
  else if j >= kl then -1
  else
    let d = Char.code k.[j] - Char.code p.[j] in
    if d <> 0 then d else against_bytes p pl k kl (j + 1)

(* [k] and [p] agree on [p]'s bytes from [j] on, for [8 <= pl <=
   String.length k]: eight bytes per compare, the last eight loaded
   at [pl - 8] (overlapping the previous load). *)
let rec prefix_equal p pl k j =
  if j + 8 >= pl then Int64.equal (get64u k (pl - 8)) (get64u p (pl - 8))
  else Int64.equal (get64u k j) (get64u p j) && prefix_equal p pl k (j + 8)

(* Where [k] lies against every string that starts with [p]: < 0 below
   them all (it differs lower inside [p], or is a proper prefix of
   it), > 0 above them all, 0 when it starts with [p]. *)
let[@inline] against_prefix p pl k kl =
  if pl >= 8 && kl >= pl && prefix_equal p pl k 0 then 0
  else against_bytes p pl k kl 0

(* The first [i] in [[lo, lo + n)] with [a <= anchors.(i)], for
   [n >= 1]: a branch-free step per halving (the compare becomes a
   mask), so the loop runs a fixed [ceil (log2 n)] times and no
   mispredicted branch depends on the data.  Anchors are below 2^60,
   so [b - a] is negative exactly when [b < a]. *)
let[@inline] lower_bound (anchors : int array) lo n a =
  let base = ref lo and n = ref n in
  while !n > 1 do
    let half = !n lsr 1 in
    let b = Array.unsafe_get anchors (!base + half) in
    base := !base + (half land ((b - a) asr 62));
    n := !n - half
  done;
  !base + (((Array.unsafe_get anchors !base - a) asr 62) land 1)

(* The first [i] in [[lo, hi)] with [k <= keys.(i)], [hi] if none. *)
let rec key_bound k (keys : string array) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if String.compare k (Array.unsafe_get keys mid) <= 0 then
      key_bound k keys lo mid
    else key_bound k keys (mid + 1) hi

let search p (anchors : int array) (keys : string array) n k =
  let hi = min n (Array.length anchors) in
  if hi <= 0 then 0
  else
    let pl = String.length p in
    let c = against_prefix p pl k (String.length k) in
    if c < 0 then 0
    else if c > 0 then hi
    else
      let a = encode k pl in
      let i = lower_bound anchors 0 hi a in
      if is_long a && i < hi && Array.unsafe_get anchors i = a then
        (* a run of separators sharing [a]'s seven bytes: their order
           is their full keys' (the only read of [keys], so only here
           is it clamped to them) *)
        key_bound k keys i
          (min (Array.length keys) (lower_bound anchors i (hi - i) (a + 1)))
      else i

let has_prefix p k = against_prefix p (String.length p) k (String.length k) = 0
