(** Persistent leaf-node layout (Figure 2b of the paper): fingerprints,
    the p-atomic validity bitmap, the lock byte, the next pointer, and
    the key/value cells — interleaved (FPTree) or as two parallel
    arrays (PTree). *)

type t = {
  m : int;
  key_bytes : int;
  value_bytes : int;
  fingerprints : bool;
  split_arrays : bool;
  checksums : bool;
      (** Optional 16-byte integrity cell (checksum word + bitmap
          snapshot) between pNext and the data cells; off by default so
          persist counts match the paper. *)
  fp_off : int;
  bitmap_off : int;
  lock_off : int;
  next_off : int;
  csum_off : int;  (** -1 when [checksums] is off *)
  data_off : int;
  bytes : int;  (** total leaf footprint *)
}

val align8 : int -> int

(** @raise Invalid_argument on m outside [2,64], value widths that are
    not positive multiples of 8, or key cells other than 8/16 bytes.
    The layout has no checksum cell; see {!with_checksums}. *)
val make :
  m:int ->
  key_bytes:int ->
  value_bytes:int ->
  fingerprints:bool ->
  split_arrays:bool ->
  t

(** The same layout with the 16-byte integrity cell inserted between
    pNext and the data cells (idempotent). *)
val with_checksums : t -> t

(** {1 Cell addressing} (absolute offsets, given the leaf base) *)

val key_off : t -> leaf:int -> slot:int -> int
val value_off : t -> leaf:int -> slot:int -> int

(** Cell offsets are affine in the slot:
    [key_off t ~leaf ~slot:s = key_off t ~leaf ~slot:0 + s * key_stride t],
    and likewise for values with {!value_stride}. *)

val key_stride : t -> int
val value_stride : t -> int

(** {1 The p-atomic commit word} *)

val full_mask : t -> int
val read_bitmap : Scm.Region.t -> leaf:int -> t -> int

(** Atomically publish a new validity bitmap and persist it: the single
    point at which a leaf mutation becomes visible and durable. *)
val commit_bitmap : Scm.Region.t -> leaf:int -> t -> int -> unit

val bitmap_count : int -> int
val bitmap_is_full : t -> int -> bool
val find_first_zero : t -> int -> int option

(** [first_zero t bm] is the lowest free slot in [bm], or [-1] if the
    leaf is full — the allocation-free form of {!find_first_zero}
    (insert runs it once per operation). *)
val first_zero : t -> int -> int

(** {1 Fingerprints} *)

val read_fp : Scm.Region.t -> leaf:int -> t -> int -> int
val write_fp : Scm.Region.t -> leaf:int -> t -> int -> int -> unit
val persist_fp : Scm.Region.t -> leaf:int -> t -> int -> unit

(** {1 Next pointer and whole-leaf helpers} *)

val read_next : Scm.Region.t -> leaf:int -> t -> Pmem.Pptr.t
val write_next_persist : Scm.Region.t -> leaf:int -> t -> Pmem.Pptr.t -> unit
val zero_leaf : Scm.Region.t -> leaf:int -> t -> unit

(** Persistently copy the full content of [src] into [dst]
    (SplitLeaf steps 6–7). *)
val copy_leaf : Scm.Region.t -> t -> src:int -> dst:int -> unit

(** {1 Optional per-leaf integrity checksum}

    When the layout carries a checksum cell, every committed leaf
    mutation is followed by {!write_checksum}, and recovery validates
    each leaf with {!verify_checksum} before trusting its content. *)

type csum_status =
  | Csum_ok
  | Csum_stale
      (** Snapshot word ≠ bitmap: crash hit the window between a
          p-atomic commit and its checksum refresh.  The bitmap is
          trusted; refresh the cell. *)
  | Csum_corrupt
      (** Content does not hash to the stored checksum under a current
          snapshot (or the bitmap has bits outside the mask): torn or
          media-damaged leaf. *)

(** Checksum of the committed content under bitmap [bm]: bitmap plus
    fingerprint/key/value of every occupied slot.  Free slots and the
    next pointer are excluded (pre-publish writes and micro-logged link
    updates must not invalidate the cell). *)
val compute_checksum : Scm.Region.t -> leaf:int -> t -> int -> int

(** Recompute and persist the integrity cell against the current
    bitmap; no-op when the layout has no checksum cell. *)
val write_checksum : Scm.Region.t -> leaf:int -> t -> unit

val verify_checksum : Scm.Region.t -> leaf:int -> t -> csum_status
