(** Amortized leaf-group allocation (Section 4.3, Algorithms 10–13).

    In the single-threaded configuration ([use_groups]) leaves are not
    allocated one by one: [group_size] leaves are carved out of one
    allocator block, the groups form a persistent linked list anchored
    in the descriptor ({!Descriptor.meta_group_head}), and a volatile
    pool hands out the free leaves.  The get-leaf and free-leaf
    micro-logs make every group-list update crash-consistent; recovery
    replays them ({!recover}) and then rebuilds the pool and the list's
    tail ({!rebuild}). *)

type t

(** The allocator state of the tree whose descriptor is at [meta]:
    an empty pool over the image's two group micro-logs. *)
val create : Keys.ctx -> meta:int -> Descriptor.config -> Layout.t -> t

(** GetLeaf (Algorithm 10): a free leaf, allocating and linking a
    fresh group when the pool is empty.
    @raise Pmem.Palloc.Out_of_scm before any persistent change. *)
val get_leaf : t -> int

(** FreeLeaf (Algorithm 12): return an unlinked leaf to the pool, and
    unlink and deallocate its group once all of its leaves are free:
    {!Descriptor.unlink} on the group list, whose predecessor becomes
    the tail when the group was the last one. *)
val free_leaf : t -> int -> unit

(** Emergency reclamation: unlink and deallocate every group whose
    leaves are all free. *)
val free_idle_groups : t -> unit

(** Replay the get-leaf and free-leaf micro-logs (Algorithms 11 and
    13): finish or roll back a group-list update a crash interrupted.
    A group free is redone by {!Descriptor.redo_unlink}; it leaves the
    tail word as it was, and {!rebuild} derives it again. *)
val recover : t -> unit

(** Rebuild the volatile pool from the persistent group list: every
    group leaf for which [in_use] is false is free.  The descriptor's
    tail word is derived from the same walk: when it does not name the
    last group visited (a crash-cut group free, or a damaged image), it
    is rewritten with one committed publish.
    @raise Failure ["Tree.recover: …"] at a dangling or repeated group
    link ({!Descriptor.refuse}). *)
val rebuild : t -> in_use:(int -> bool) -> unit

(** Visit the group blocks along the persistent list.
    @raise Failure ["Tree.recover: …"] at a dangling or repeated group
    link ({!Descriptor.refuse}). *)
val iter_groups : t -> (int -> unit) -> unit

(** DRAM footprint of the pool and the leaf-to-group table. *)
val dram_bytes : t -> int

(** Both group micro-logs are disarmed. *)
val logs_idle : t -> bool
