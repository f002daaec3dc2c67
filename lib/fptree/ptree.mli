(** PTree: the light FPTree variant (Section 5) implementing only
    selective persistence and unsorted leaves — no fingerprints, no
    leaf groups — with keys and values kept in separate in-leaf arrays
    for better locality of the linear key scan ({!Tree.ptree_config}). *)

module Fixed : sig
  include module type of struct
    include Tree.Make (Keys.Fixed)
  end

  val create :
    ?m:int -> ?value_bytes:int -> ?inner_keys:int -> Pmem.Palloc.t -> t
end

module Var : sig
  include module type of struct
    include Tree.Make (Keys.Var)
  end

  val create :
    ?m:int -> ?value_bytes:int -> ?inner_keys:int -> Pmem.Palloc.t -> t
end
