(** NV-Tree (Yang et al., reimplemented as in Section 6.1 of the
    FPTree paper: inner nodes placed in DRAM for a fair comparison).

    Leaves are append-only unsorted SCM nodes: an entry carries a flag
    (insert or tombstone) and is made visible by a p-atomic increment
    of the leaf's entry counter.  Search scans a leaf in REVERSE so the
    first hit is the most recent version — the linear cost Figure 4
    contrasts with fingerprinting.  Entries are cache-line aligned,
    which is why the NV-Tree consumes noticeably more SCM.

    The DRAM side mirrors the CSB+-style two-level structure: an array
    of parent-of-leaf nodes (PLNs) under a contiguous sorted directory.
    When a PLN overflows, the whole inner structure is rebuilt — the
    costly operation that hurts the NV-Tree under skewed insertion
    (Section 6.4). *)

module Fixed : sig
  include Fptree.Tree_intf.FIXED

  val create :
    ?cap:int -> ?pln_cap:int -> ?value_bytes:int -> Pmem.Palloc.t -> t

  val recover :
    ?cap:int -> ?pln_cap:int -> ?value_bytes:int -> Pmem.Palloc.t -> t
  (** Re-open the tree in the allocator's region: the leaf list is
      persistent, the DRAM inner structure is rebuilt from it. *)

  val rebuild_count : t -> int
  (** Whole-inner-structure rebuilds since creation (a PLN
      overflowed). *)
end

module Var : sig
  include Fptree.Tree_intf.VAR

  val create :
    ?cap:int -> ?pln_cap:int -> ?value_bytes:int -> Pmem.Palloc.t -> t

  val recover :
    ?cap:int -> ?pln_cap:int -> ?value_bytes:int -> Pmem.Palloc.t -> t

  val rebuild_count : t -> int
end
