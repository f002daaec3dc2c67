(** First-class handles over the variable-key trees, so the cache and
    the benchmarks can swap the index implementation at run time (the
    paper's memcached experiment replaces the internal hash table by
    each evaluated tree). *)

type t = {
  name : string;
  insert : string -> int -> (bool, [ `Out_of_space ]) result;
      (** [Error `Out_of_space] when the index refused the insert
          (watermark admission) or its arena is exhausted; the tree is
          unchanged in that case. *)
  update : string -> int -> (bool, [ `Out_of_space ]) result;
  find : string -> int option;
  delete : string -> bool;
  concurrent : bool;
      (** [true] when the tree has its own concurrency scheme;
          otherwise the cache wraps operations in a global lock,
          mirroring how the paper drives single-threaded trees. *)
  htm_stats : unit -> (string * int) list;
      (** Speculative-concurrency abort counters of the underlying
          tree ({!Fptree.Tree_intf.S.htm_stats}); empty for trees
          without a speculative path. *)
}

val of_tree :
  name:string -> concurrent:bool ->
  (module Fptree.Tree_intf.VAR with type t = 'a) -> 'a -> t
(** The cache index over any variable-key tree; [name] labels the
    backend in reports. *)

val of_fptree_concurrent : Fptree.Var.t -> t
(** ["FPTreeC"]: the concurrent variable-key FPTree. *)

val of_hashmap : unit -> t
(** The vanilla-memcached stand-in: a plain DRAM hash table behind a
    bucket-style lock. *)
