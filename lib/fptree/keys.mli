(** Key representations for the tree functor: {!Fixed} integer keys
    inline in the leaf cell, {!Var} string keys as persistent pointers
    to separately allocated key blocks (Appendix C).

    Each representation carries the loops that compare many keys at
    once, specialised to its key type: {!KEY.search} picks an inner
    node's child on every level of every descent, {!KEY.gather} scans
    a leaf for a range.  It also carries the steps that make an inner
    node of its keys, one {!Inner.kind} record ({!KEY.inner_kind}):
    every node holds a prefix and one int anchor per separator, and
    only these steps know what an anchor is — a fixed key is its own,
    a string's is the {!Anchor} encoding of its bytes after the
    prefix.  A node carries its kind, so a descent level costs one
    indirect call to [search] with the compares inline, and
    {!KEY.compare} remains for single pairs. *)

type ctx = {
  region : Scm.Region.t;
  alloc : Pmem.Palloc.t;
}

val max_var_key_len : int

module type KEY = sig
  type t

  val kind : int
  (** persisted tag: 0 = fixed, 1 = var *)

  val cell_bytes : int

  val inline : bool
  (** [true] when the key bytes live in the cell itself; the tree then
      persists the cell range together with the value. *)

  val dummy : t
  val compare : t -> t -> int

  val search : t Inner.search
  (** [search n k] is the first [i < n.nkeys] with [k <=] separator
      [i], or [nkeys] when there is none, where [nkeys] is first
      clamped to the node's arrays (a negative [nkeys] gives 0): an
      inner node's child choice, a binary search over the separators
      without a call per comparison.  The clamp keeps a torn [nkeys]
      from reading past the arrays, so the loads are unchecked.
      [Fixed] compares ints inline over the anchors, which are its
      keys; [Var] searches the unboxed anchors and compares strings
      only on a tie of two long anchors ({!Anchor.search}); nothing is
      allocated. *)

  val inner_kind : t Inner.kind
  (** The inner-node steps of this key type ({!Inner.kind}), [search]
      among them.  [Fixed]: a key is its own anchor under the empty
      prefix, never long; no key slots, no bytes beyond the anchors.
      [Var]: {!Anchor} ints after the separators' common prefix, the
      full key of a long one kept, [""] in every other key slot; the
      prefix and each kept key cost [dram_bytes]. *)

  val gather :
    ctx -> Layout.t -> leaf:int -> bm:int -> lo:t -> hi:t -> t array ->
    int array -> int
  (** [gather ctx l ~leaf ~bm ~lo ~hi ks vs] is a range scan's pass over
      one unsorted leaf of layout [l].  It visits the slots set in [bm]
      (those below [l.m]) in ascending slot order and reads each one's
      key and, only for a hit, its value: the same SCM reads in the
      same order as reading slot by slot with {!read} and
      [Layout.value_off].  A hit is a key [k] with [lo <= k <= hi].
      Hits are appended in slot order to [ks.(0) .. ks.(n-1)], values
      alongside in [vs], then stably insertion-sorted by key; the
      result is [n].  A leaf read under its version word holds each key
      once, so the prefix is then strictly ascending; a torn read may
      repeat a key, which the caller's failed validation discards.
      Under the model checker each value read is a read-only schedule
      point on the leaf's version object.  [ks] and [vs] must hold
      [l.m] elements ([Invalid_argument] otherwise); the sort then
      indexes them unchecked.  Specialised per representation:
      compares are direct (an inline int test, or [String.compare]),
      and nothing is allocated beyond the keys read. *)

  val fingerprint : t -> int
  val dram_bytes : t -> int

  val read : ctx -> off:int -> t
  (** Read the key at cell [off]; must not raise on garbage (defensive
      for concurrent dirty reads). *)

  val write : ctx -> off:int -> t -> unit
  (** Store a fresh key into cell [off].  Var keys allocate their block
      through the allocator (which persistently publishes the cell) and
      persist the content; fixed keys just write the cell. *)

  val matches : ctx -> off:int -> t -> bool
  (** [matches ctx ~off k] is [read ctx ~off = k], reading the same
      words in the same order.  [Var] compares the key bytes in place
      ({!Scm.Region.equal_string}) instead of copying them, so neither
      representation allocates. *)

  val cell_ref : ctx -> off:int -> Pmem.Pptr.t option
  (** [Some p] for out-of-line keys — drives the recovery leak audit. *)

  val move : ctx -> src:int -> dst:int -> unit
  (** Copy the cell without allocating (update path); not persisted. *)

  val reset_ref : ctx -> off:int -> unit
  (** Persistently null the cell without deallocating. *)

  val clear_cell : ctx -> off:int -> unit
  (** Null the cell WITHOUT persisting (bulk stale-cell clearing after
      a split; a torn null still reads as null). *)

  val dealloc : ctx -> off:int -> unit
  (** Free the key block via the allocator (nulls the cell). *)
end

module Fixed : KEY with type t = int
module Var : KEY with type t = string
