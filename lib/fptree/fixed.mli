(** FPTree with fixed-size (8-byte integer) keys.  [name] is
    ["FPTree"]. *)

include module type of struct
  include Tree.Make (Keys.Fixed)
end

val create_single :
  ?m:int -> ?value_bytes:int -> ?inner_keys:int -> Pmem.Palloc.t -> t
(** Single-threaded FPTree ({!Tree.fptree_config}: selective
    persistence, fingerprints, amortized leaf-group allocation,
    unsorted leaves). *)

val create_concurrent :
  ?m:int -> ?value_bytes:int -> ?inner_keys:int -> Pmem.Palloc.t -> t
(** Concurrent FPTree ({!Tree.fptree_concurrent_config}: selective
    persistence and selective concurrency; no leaf groups). *)
