(** Persistent leaf-node layout (Figure 2b).

    A leaf is a fixed-size block in SCM:

    {v
      fingerprints[m]   (only when fingerprinting is on)
      bitmap            one 8-byte word: bit s set <=> slot s holds a
                        valid entry; the p-atomic commit word
      lock              one byte (layout fidelity; concurrency uses
                        volatile per-leaf locks, and the paper never
                        persists leaf locks either)
      pNext             16-byte persistent pointer to the next leaf
      data              m key/value cells: interleaved (FPTree) or as
                        two parallel arrays (PTree)
    v}

    With m <= 56, 8-byte key cells and fingerprinting on, the
    fingerprints + bitmap + lock fit exactly in the first cache line —
    which is why the paper picks 56 as the FPTree leaf size. *)

type t = {
  m : int;            (** max entries per leaf; <= 64 so the bitmap is one p-atomic word *)
  key_bytes : int;    (** in-leaf key cell: 8 (inline key) or 16 (pptr to key) *)
  value_bytes : int;  (** >= 8, multiple of 8; first 8 bytes = value word, rest payload *)
  fingerprints : bool;
  split_arrays : bool; (** PTree keeps keys and values in separate arrays *)
  checksums : bool;
      (** Optional 16-byte integrity cell (checksum word + bitmap
          snapshot) between pNext and the data cells; off by default so
          persist counts match the paper. *)
  fp_off : int;
  bitmap_off : int;
  lock_off : int;
  next_off : int;
  csum_off : int;     (** -1 when [checksums] is off *)
  data_off : int;
  bytes : int;
}

let align8 n = (n + 7) land lnot 7

let make ~m ~key_bytes ~value_bytes ~fingerprints ~split_arrays =
  if m < 2 || m > 64 then invalid_arg "Layout.make: m must be in [2, 64]";
  if value_bytes < 8 || value_bytes mod 8 <> 0 then
    invalid_arg "Layout.make: value_bytes must be a positive multiple of 8";
  if key_bytes <> 8 && key_bytes <> 16 then
    invalid_arg "Layout.make: key cell must be 8 or 16 bytes";
  let fp_off = 0 in
  let bitmap_off = align8 (if fingerprints then m else 0) in
  let lock_off = bitmap_off + 8 in
  let next_off = align8 (lock_off + 1) in
  let data_off = next_off + Pmem.Pptr.size_bytes in
  let bytes = data_off + (m * (key_bytes + value_bytes)) in
  { m; key_bytes; value_bytes; fingerprints; split_arrays; checksums = false;
    fp_off; bitmap_off; lock_off; next_off; csum_off = -1; data_off; bytes }

(** Derive the same layout with the 16-byte integrity cell (checksum
    word + bitmap snapshot) inserted between pNext and the data cells. *)
let with_checksums t =
  if t.checksums then t
  else begin
    let csum_off = t.next_off + Pmem.Pptr.size_bytes in
    let data_off = csum_off + 16 in
    {
      t with
      checksums = true;
      csum_off;
      data_off;
      bytes = data_off + (t.m * (t.key_bytes + t.value_bytes));
    }
  end

(* ---- cell addressing (absolute offsets, given the leaf base) ---- *)

let key_off t ~leaf ~slot =
  if t.split_arrays then leaf + t.data_off + (slot * t.key_bytes)
  else leaf + t.data_off + (slot * (t.key_bytes + t.value_bytes))

let value_off t ~leaf ~slot =
  if t.split_arrays then
    leaf + t.data_off + (t.m * t.key_bytes) + (slot * t.value_bytes)
  else key_off t ~leaf ~slot + t.key_bytes

(* Both offsets are affine in the slot: slot [s]'s cell sits [s]
   strides past slot 0's, which lets a whole-leaf scan step through
   the cells with one add per slot whatever the layout. *)
let key_stride t =
  if t.split_arrays then t.key_bytes else t.key_bytes + t.value_bytes

let value_stride t =
  if t.split_arrays then t.value_bytes else t.key_bytes + t.value_bytes

(* ---- bitmap: the p-atomic commit word ---- *)

let full_mask t =
  if t.m = 64 then -1 else (1 lsl t.m) - 1

let read_bitmap r ~leaf t = Scm.Region.read_word r (leaf + t.bitmap_off)

(** Atomically publish a new validity bitmap and persist it: the single
    point at which an insert/delete/update becomes visible and durable. *)
let commit_bitmap r ~leaf t bm =
  let c = Scope.enter Obs.Attrib.comp_bitmap in
  Scm.Region.write_word_atomic r (leaf + t.bitmap_off) bm;
  Scope.persist_in_scope r (leaf + t.bitmap_off) 8;
  Scope.leave c;
  Obs.Flight.publish ~region:(Scm.Region.id r) ~off:(leaf + t.bitmap_off)
    ~len:8 ~site:Obs.Event.publish_bitmap

let bitmap_count bm =
  let rec go bm acc = if bm = 0 then acc else go (bm lsr 1) (acc + (bm land 1)) in
  go bm 0

let bitmap_is_full t bm = bm land full_mask t = full_mask t

(** Index of the first zero bit, or [None] when the leaf is full. *)
(* Lowest clear bit of the usable bitmap, or -1: isolate the lowest
   zero with two bit operations, then take its log2 — no loop, no
   allocation (the insert hot path runs this once per operation).
   Must go through [full_mask]: for m = 64 the mask is [-1] (bits
   0..62; OCaml ints have 63 bits, slot 63 is never used) and a naive
   [(1 lsl m) - 1] would be 0. *)
let first_zero t bm =
  let z = lnot bm land full_mask t in
  if z = 0 then -1
  else
    let b = z land -z in
    let s5 = if b land 0xFFFFFFFF = 0 then 32 else 0 in
    let b = b lsr s5 in
    let s4 = if b land 0xFFFF = 0 then 16 else 0 in
    let b = b lsr s4 in
    let s3 = if b land 0xFF = 0 then 8 else 0 in
    let b = b lsr s3 in
    let s2 = if b land 0xF = 0 then 4 else 0 in
    let b = b lsr s2 in
    let s1 = if b land 0x3 = 0 then 2 else 0 in
    let b = b lsr s1 in
    let s0 = if b land 0x1 = 0 then 1 else 0 in
    s5 + s4 + s3 + s2 + s1 + s0

let find_first_zero t bm =
  match first_zero t bm with -1 -> None | s -> Some s

(* ---- fingerprints ---- *)

let read_fp r ~leaf t slot = Scm.Region.read_u8 r (leaf + t.fp_off + slot)
let write_fp r ~leaf t slot v =
  let c = Scope.enter Obs.Attrib.comp_fingerprint in
  Scm.Region.write_u8 r (leaf + t.fp_off + slot) v;
  Scope.leave c

let persist_fp r ~leaf t slot =
  Scope.persist ~comp:Obs.Attrib.comp_fingerprint r (leaf + t.fp_off + slot) 1

(* ---- next pointer ---- *)

let read_next r ~leaf t = Pmem.Pptr.read r (leaf + t.next_off)

(* The 16-byte next-pointer overwrite is not p-atomic; it is legal only
   under an armed micro-log (SplitLeaf step 8, DeleteLeaf step 4), which
   is exactly what the pmcheck analyzer verifies via this annotation. *)
let write_next_persist r ~leaf t p =
  let c = Scope.enter Obs.Attrib.comp_tree_meta in
  Pmem.Pptr.write r (leaf + t.next_off) p;
  Scope.persist_in_scope r (leaf + t.next_off) Pmem.Pptr.size_bytes;
  Scope.leave c;
  Obs.Flight.link_write ~region:(Scm.Region.id r) ~off:(leaf + t.next_off)
    ~len:Pmem.Pptr.size_bytes

(* ---- whole-leaf helpers ---- *)

let zero_leaf r ~leaf t =
  let c = Scope.enter Obs.Attrib.comp_kv in
  Scm.Region.fill r leaf t.bytes '\000';
  Scope.persist_in_scope r leaf t.bytes;
  Scope.leave c

(** Persistently copy the full content of [src] into [dst]
    (SplitLeaf step 6–7). *)
let copy_leaf r t ~src ~dst =
  let c = Scope.enter Obs.Attrib.comp_kv in
  Scm.Region.blit_internal r ~src ~dst ~len:t.bytes;
  Scope.persist_in_scope r dst t.bytes;
  Scope.leave c

(* ---- optional per-leaf integrity checksum ---- *)

type csum_status = Csum_ok | Csum_stale | Csum_corrupt

(* FNV-1a-style word mix (64-bit prime, wrapping 63-bit native ints):
   deterministic, allocation-free, good enough to catch torn cells and
   flipped bits — this is an integrity check, not a cryptographic one. *)
let[@inline] mix h w = (h lxor w) * 0x100000001B3

(** Checksum of the committed content of a leaf under bitmap [bm]: the
    bitmap word plus, for every {e occupied} slot, its fingerprint byte
    and key/value cells.  Free slots are excluded — pre-publish writes
    into them must not invalidate the cell — and so is the next
    pointer: it is rewritten by micro-logged link updates (DeleteLeaf
    step 4) that do not touch the bitmap, so covering it would make
    every such update a false corruption. *)
let compute_checksum r ~leaf t bm =
  let bm = bm land full_mask t in
  let h = ref (mix 0x5DEECE66D bm) in
  for slot = 0 to t.m - 1 do
    if bm land (1 lsl slot) <> 0 then begin
      if t.fingerprints then h := mix !h (read_fp r ~leaf t slot);
      let k = key_off t ~leaf ~slot in
      for i = 0 to (t.key_bytes / 8) - 1 do
        h := mix !h (Scm.Region.read_word r (k + (i * 8)))
      done;
      let v = value_off t ~leaf ~slot in
      for i = 0 to (t.value_bytes / 8) - 1 do
        h := mix !h (Scm.Region.read_word r (v + (i * 8)))
      done
    end
  done;
  !h

(** Recompute and persist the integrity cell against the current
    committed bitmap; no-op when the layout has no checksum cell.  Two
    ordered p-atomic persists — checksum word first, then the bitmap
    snapshot — so a crash at any point leaves either an old snapshot
    (≠ bitmap ⇒ {!Csum_stale}, refreshed on recovery) or a fully
    durable cell, never a current snapshot guarding a torn checksum. *)
let write_checksum r ~leaf t =
  if t.checksums then begin
    let bm = read_bitmap r ~leaf t in
    let c = compute_checksum r ~leaf t bm in
    let sc = Scope.enter Obs.Attrib.comp_bitmap in
    Scm.Region.write_word_atomic r (leaf + t.csum_off) c;
    Scope.persist_in_scope r (leaf + t.csum_off) 8;
    Scm.Region.write_word_atomic r (leaf + t.csum_off + 8) bm;
    Scope.persist_in_scope r (leaf + t.csum_off + 8) 8;
    Scope.leave sc
  end

(** Validate a leaf against its integrity cell.  {!Csum_stale} means
    the snapshot word differs from the (p-atomic, trusted) bitmap — the
    crash hit the window between a commit and its checksum refresh; the
    caller refreshes.  {!Csum_corrupt} means the snapshot matches but
    the content does not hash to the stored checksum, or the bitmap has
    bits outside the layout's mask: the leaf is unreadable. *)
let verify_checksum r ~leaf t =
  if not t.checksums then Csum_ok
  else begin
    let bm = read_bitmap r ~leaf t in
    if bm land lnot (full_mask t) <> 0 then Csum_corrupt
    else begin
      let snap = Scm.Region.read_word r (leaf + t.csum_off + 8) in
      if snap <> bm then Csum_stale
      else if
        compute_checksum r ~leaf t bm
        = Scm.Region.read_word r (leaf + t.csum_off)
      then Csum_ok
      else Csum_corrupt
    end
  end
