(** FPTree with variable-size (string) keys (Appendix C): leaf cells
    hold persistent pointers to separately allocated key blocks.
    [name] is ["FPTreeVar"]. *)

include module type of struct
  include Tree.Make (Keys.Var)
end

val var_single_config : Tree.config
(** FPTreeVar (Table 1: inner nodes of 2048 keys). *)

val var_concurrent_config : Tree.config
(** FPTreeCVar: inner nodes of 256 keys (Table 1 has 64, sized for
    TSX; see DESIGN.md §2). *)

val create_single :
  ?m:int -> ?value_bytes:int -> ?inner_keys:int -> Pmem.Palloc.t -> t
(** Single-threaded FPTreeVar ({!var_single_config}). *)

val create_concurrent :
  ?m:int -> ?value_bytes:int -> ?inner_keys:int -> Pmem.Palloc.t -> t
(** Concurrent FPTreeVar ({!var_concurrent_config}). *)
