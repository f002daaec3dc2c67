(** Key representations for the tree functor: {!Fixed} integer keys
    inline in the leaf cell, {!Var} string keys as persistent pointers
    to separately allocated key blocks (Appendix C). *)

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

  val insert_ord : t array -> int array -> int -> unit
  (** [insert_ord keys ord i] extends the key-order permutation
      [ord.(0) .. ord.(i-1)] of [keys.(0) .. keys.(i-1)] with index
      [i] by plain insertion (ties keep index order), leaving
      [ord.(0) .. ord.(i)] sorted by key.  Requires
      [i < Array.length keys] and [i < Array.length ord].  Specialised
      per representation so the shift loop compares directly, without
      an indirect call. *)

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
