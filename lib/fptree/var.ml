(** FPTree with variable-size (string) keys (Appendix C): leaf cells
    hold persistent pointers to separately allocated key blocks. *)

include Tree.Make (Keys.Var)

let var_single_config =
  { Tree.fptree_config with Tree.inner_keys = 2048 } (* Table 1: FPTreeVar *)

let var_concurrent_config =
  { Tree.fptree_concurrent_config with Tree.inner_keys = 64 } (* FPTreeCVar *)

let create_single ?(m = 56) ?(value_bytes = 8) ?(inner_keys = 2048) alloc =
  create ~config:{ var_single_config with Tree.m; value_bytes; inner_keys } alloc

let create_concurrent ?(m = 64) ?(value_bytes = 8) ?(inner_keys = 64) alloc =
  create
    ~config:{ var_concurrent_config with Tree.m; value_bytes; inner_keys }
    alloc
