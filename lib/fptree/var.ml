(** FPTree with variable-size (string) keys (Appendix C): leaf cells
    hold persistent pointers to separately allocated key blocks. *)

include Tree.Make (Keys.Var)

let var_single_config =
  { Tree.fptree_config with Tree.inner_keys = 2048 } (* Table 1: FPTreeVar *)

(* FPTreeCVar: inner nodes of 256 keys, not Table 1's 64 (DESIGN.md
   §2): two inner levels at 1M keys instead of three. *)
let var_concurrent_config =
  { Tree.fptree_concurrent_config with Tree.inner_keys = 256 }

let create_single ?(m = var_single_config.Tree.m) ?(value_bytes = 8)
    ?(inner_keys = var_single_config.Tree.inner_keys) alloc =
  create ~config:{ var_single_config with Tree.m; value_bytes; inner_keys } alloc

let create_concurrent ?(m = var_concurrent_config.Tree.m) ?(value_bytes = 8)
    ?(inner_keys = var_concurrent_config.Tree.inner_keys) alloc =
  create
    ~config:{ var_concurrent_config with Tree.m; value_bytes; inner_keys }
    alloc
