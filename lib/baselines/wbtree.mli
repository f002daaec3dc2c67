(** wBTree (Chen & Jin, reimplemented as in Section 6.1 of the FPTree
    paper: the undo-redo logs replaced by lightweight micro-logs).

    The write-atomic B-Tree lives ENTIRELY in SCM: both leaves and
    inner nodes are unsorted slotted nodes with a validity bitmap (the
    p-atomic commit word) and a sorted indirection slot array that
    enables binary search — giving the log2(m) in-leaf key probes of
    Figure 4 at the price of extra SCM writes per update (the slot
    array maintenance) and SCM-resident inner nodes (every level of
    the traversal pays the SCM latency).

    Routing uses min-key separators, so a child split only ever INSERTS
    one (min, child) entry into the parent — committed atomically by
    the parent's bitmap, never an in-place pointer overwrite.

    Recovery is near-instantaneous (the paper reports ~1 ms): nothing
    transient needs rebuilding; [recover] re-reads the root pointer.
    A crashed slot array (torn between its persist and the bitmap
    commit) is a cache of the bitmap+keys and is repaired by
    [verify_and_repair].  Faithful to the paper's critique, leaf
    DEallocation goes through a scratch cell rather than a micro-log
    and is therefore leak-prone across crashes (the deficiency the
    FPTree fixes); split allocations use a proper micro-log. *)

module Fixed : sig
  include Fptree.Tree_intf.FIXED

  val create :
    ?leaf_m:int -> ?inner_m:int -> ?value_bytes:int -> Pmem.Palloc.t -> t

  val recover :
    ?leaf_m:int -> ?inner_m:int -> ?value_bytes:int -> Pmem.Palloc.t -> t
  (** Re-open the tree in the allocator's region: re-read the root
      pointer and replay the split micro-log. *)

  val verify_and_repair : t -> unit
  (** Rebuild every node's slot array from its bitmap and keys (a
      crash may have torn one between its persist and the bitmap
      commit). *)
end

module Var : sig
  include Fptree.Tree_intf.VAR

  val create :
    ?leaf_m:int -> ?inner_m:int -> ?value_bytes:int -> Pmem.Palloc.t -> t

  val recover :
    ?leaf_m:int -> ?inner_m:int -> ?value_bytes:int -> Pmem.Palloc.t -> t

  val verify_and_repair : t -> unit
end
