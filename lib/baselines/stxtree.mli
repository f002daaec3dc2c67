(** STXTree: the transient main-memory B+-Tree reference baseline
    (https://panthema.net/2007/stx-btree/, reimplemented).

    A classical cache-conscious B+-Tree living entirely in DRAM: sorted
    nodes, binary search, linked leaves.  It has no persistence — a
    restart loses everything, which is exactly the gap the FPTree
    closes (the paper measures its full-rebuild time as the recovery
    baseline). *)

module Fixed : sig
  include Fptree.Tree_intf.FIXED

  val create :
    ?leaf_cap:int -> ?inner_cap:int -> ?value_bytes:int -> unit -> t

  val rebuild_from : t -> (key * int) list -> t
  (** A fresh tree with [t]'s node capacities, bulk-loaded from sorted
      pairs: the restart cost of a transient tree (the recovery
      baseline). *)
end

module Var : sig
  include Fptree.Tree_intf.VAR

  val create :
    ?leaf_cap:int -> ?inner_cap:int -> ?value_bytes:int -> unit -> t

  val rebuild_from : t -> (key * int) list -> t
end
