(** FPTree with fixed-size (8-byte integer) keys. *)

include Tree.Make (Keys.Fixed)

(** Single-threaded FPTree (selective persistence, fingerprints,
    amortized leaf-group allocations, unsorted leaves). *)
let create_single ?(m = Tree.fptree_config.Tree.m) ?(value_bytes = 8)
    ?(inner_keys = Tree.fptree_config.Tree.inner_keys) alloc =
  create ~config:{ Tree.fptree_config with m; value_bytes; inner_keys } alloc

(** Concurrent FPTree (selective persistence + selective concurrency,
    fingerprints, unsorted leaves; no leaf groups). *)
let create_concurrent ?(m = Tree.fptree_concurrent_config.Tree.m)
    ?(value_bytes = 8)
    ?(inner_keys = Tree.fptree_concurrent_config.Tree.inner_keys) alloc =
  create
    ~config:{ Tree.fptree_concurrent_config with m; value_bytes; inner_keys }
    alloc
