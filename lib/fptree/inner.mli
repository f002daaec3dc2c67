(** Transient inner nodes (Selective Persistence, Section 4.1):
    classical sorted main-memory B+-Tree nodes living in DRAM, rebuilt
    from the persistent leaf linked list on recovery.  [keys.(i)] is
    the greatest key reachable through [children.(i)].  Parametric in
    the key type.  The tree's descents and structural updates choose
    children through the key representation's {!search}
    ({!Keys.KEY.search}), passed explicitly: one indirect call per
    level, with the compares inline.  A comparison function is passed
    only where a single pair is compared (the range descent's test for
    a separator equal to the key), and to the generic {!find_leaf} /
    {!find_leaf_rs} walk.

    Each node (inner node and leaf reference) embeds its own
    {!Htm.Node_versions.cell} version word: every speculative section
    descends with the [_rs] traversals, which record the versions of
    the nodes they touch (whether the section runs optimistically or
    under the fallback mutex), and structural writers bump only the
    nodes they modify — per-node conflict detection modeling TSX
    read-set granularity, with the version word co-located with the
    node it protects.  The unrecorded descents, {!descend} and
    {!find_leaf}, are for callers with no concurrent writer. *)

type leaf_ref = {
  off : int;             (** leaf payload offset inside the tree's region *)
  lock : bool Htm.Sched.atom;
      (** volatile leaf lock (never persisted); accessed through the
          {!Htm.Sched} shim so the model checker can interleave it *)
  ver : Htm.Node_versions.cell;
      (** the leaf's version word (content + liveness) *)
}

val leaf_ref : int -> leaf_ref

type 'k node = Inner of 'k inner | Leaf of leaf_ref

and 'k inner = {
  mutable nkeys : int;
  keys : 'k array;
  children : 'k node array;
  ver : Htm.Node_versions.cell;  (** this node's version word *)
  id : int;
      (** stable negative identity for abort attribution (flight
          recorder); leaves are identified by their non-negative SCM
          offset and the root pointer cell by 0 *)
}

type 'k t = {
  fanout : int;
  dummy_key : 'k;
  mutable root : 'k node;
  root_ver : Htm.Node_versions.cell;
      (** guards the [root] pointer: observed by the [_rs] traversals
          before dereferencing [root], bumped around a root-split swap
          (the root has no parent cell to invalidate through) *)
}

(** A tree over a single leaf: root is an inner node with one child.
    @raise Invalid_argument if [fanout < 2]. *)
val create : fanout:int -> dummy_key:'k -> leaf_ref -> 'k t

val reset_ids : unit -> unit
(** Reset the process-wide inner-id sequence (test-only): the mcheck
    harness rebuilds a fresh tree per model-checking execution and
    needs it to receive the same negative inner ids, or replayed
    schedules would not name the same objects. *)

val regression_root_ver_hole : bool ref
(** Test-only: re-open the PR 5 root-pointer validation hole (fixed in
    cb21ac0) by skipping the [root_ver] bump around the root-split
    swap.  Consulted only on the cold root-split path; armed by the
    mcheck regression mode to prove the checker finds the bug. *)

(** [search keys n key] is the first [i < n] with [key <= keys.(i)],
    or [n] when there is none, with [n] clamped to
    [Array.length keys]: the child to descend into.  The tree passes
    its key representation's {!Keys.KEY.search}. *)
type 'k search = 'k array -> int -> 'k -> int

(** [child_index cmp n key]: the child {!search} picks in [n]
    ([search n.keys n.nkeys key]), found by a binary search that calls
    [cmp] per comparison.  The reference for {!Keys.KEY.search}. *)
val child_index : ('k -> 'k -> int) -> 'k inner -> 'k -> int

(** Descend to the leaf responsible for [key], recording nothing
    (invariant checks, tests, single-threaded harnesses). *)
val descend : 'k search -> 'k node -> 'k -> leaf_ref

(** {!descend} for speculative sections: observes [root_ver] before
    dereferencing the root pointer, then each traversed inner node's
    version into the read set before reading its fields.
    Allocation-free.
    @raise Htm.Node_versions.Conflict if a writer is inside a node. *)
val descend_rs :
  Htm.Node_versions.readset -> 'k search -> 'k t -> 'k -> leaf_ref

(** {!descend} choosing each child with {!child_index}: the generic
    walk, for callers that hold a comparison function only. *)
val find_leaf : ('k -> 'k -> int) -> 'k node -> 'k -> leaf_ref

(** {!descend_rs} choosing each child with {!child_index}: the same
    nodes observed in the same order.  Allocation-free. *)
val find_leaf_rs :
  Htm.Node_versions.readset -> ('k -> 'k -> int) -> 'k t -> 'k -> leaf_ref

(** Where a bounded descent ended: the leaf's routing upper bound
    [key], valid when [bounded] (the rightmost leaf has none), and the
    leaf's parent. *)
type 'k upper = {
  mutable key : 'k;
  mutable bounded : bool;
  mutable parent : 'k node;
}

(** A record holding [key], unbounded, with no parent yet. *)
val upper : 'k -> 'k upper

(** [find_leaf_upper_rs rs search cmp t key ~above u] descends to the
    leaf for [key] ([above = false]), or to the leaf holding the keys
    just above [key] ([above = true]), recording the path as
    {!descend_rs}, and leaves in [u] that leaf's upper bound (the
    key of the nearest ancestor entry the path took below its [nkeys])
    and its parent position.  With [above], when the parent [u]
    recorded holds [key] as a separator with another after it, the
    leaf is that parent's next child, reached by observing the parent
    alone; otherwise the descent starts at the root.  [cmp] only tests
    whether a separator equals [key].  Allocation-free.
    @raise Htm.Node_versions.Conflict if a writer is inside a node. *)
val find_leaf_upper_rs :
  Htm.Node_versions.readset -> 'k search -> ('k -> 'k -> int) -> 'k t ->
  'k -> above:bool -> 'k upper -> leaf_ref

(** The leaf for [key] plus the leaf immediately to its left in key
    order, if any (FindLeafAndPrevLeaf), recording the root pointer
    and both descents as {!descend_rs}.
    @raise Htm.Node_versions.Conflict if a writer is inside a node. *)
val find_leaf_and_prev_rs :
  Htm.Node_versions.readset ->
  'k search -> 'k t -> 'k -> leaf_ref * leaf_ref option

(** Register the new right half of a leaf split next to the leaf
    currently responsible for [sep] (UpdateParents); splits inner
    nodes and grows the root as needed.  Run under the writer lock;
    bumps the version of each modified node, keeping a split child's
    write phase open until its parent holds the new separator. *)
val update_parents : 'k t -> 'k search -> sep:'k -> right:leaf_ref -> unit

(** Unlink the (emptied) leaf responsible for [key]; empty inner nodes
    are removed on the way up, a single-inner-child root collapses.
    Run under the writer lock; bumps each modified ancestor. *)
val remove_leaf : 'k t -> 'k search -> 'k -> unit

(** Bulk rebuild from the leaves in key order (recovery, Algorithm 9),
    packed to ~[fill] of [fanout].
    @raise Invalid_argument on an empty leaf array. *)
val rebuild :
  fanout:int -> dummy_key:'k -> ?fill:float -> ('k * leaf_ref) array -> 'k t

(** {1 Introspection} *)

val inner_node_count : 'k t -> int
val height : 'k node -> int
val dram_bytes : 'k t -> key_bytes:int -> int
