(** Transient inner nodes (Selective Persistence, Section 4.1):
    classical sorted main-memory B+-Tree nodes living in DRAM, rebuilt
    from the persistent leaf linked list on recovery.  Separator [i]
    ({!key}; [keys.(i)] on a plain node) is the greatest key reachable
    through [children.(i)].  Parametric in
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
    {!find_leaf}, are for callers with no concurrent writer.

    {b Anchored separators} (string keys, {!repr} [Anchored]).  A node
    keeps the longest common prefix of its separators once, in
    [prefix], and per separator one int in [anchors]: the seven bytes
    after the prefix, big-endian and zero-padded, shifted left four,
    with the suffix length in the low four bits (0–7, or 8 for longer;
    {!Anchor}).  Anchor order is [String.compare] order, so a child is
    chosen by an int binary search; the one tie it cannot settle, two
    equal long anchors, compares the probe with the full key, which
    [keys.(i)] holds for a long separator only ([""] elsewhere).

    The form is canonical (a function of the separators alone), which
    is how it is maintained: an insert whose key keeps the prefix
    shifts the anchors like the keys and encodes one; an insert that
    breaks the prefix, or into an empty node, re-encodes the node from
    its separators ({!key} rebuilds each as prefix ^ anchor bytes); so
    does a removal of the first or last separator when the remaining
    ends share a longer prefix, and each half of a split.  {!check}
    recomputes it.

    A torn read (an optimistic section racing a writer) may pair one
    write's [prefix] with another's anchors, keys or [nkeys].  Every
    index is clamped to the arrays and every byte read is bounded by
    its string's length, so such a read misroutes at worst, and the
    section's validation rejects it.

    {!dram_bytes} counts per node 24 bytes of record, 8 per child slot
    and, for the separators: on a plain node [key_bytes dummy_key] per
    key slot; on an anchored node 8 per anchor slot, 8 per key-pointer
    slot, [key_bytes prefix] and [key_bytes k] per long separator [k]
    it keeps. *)

type leaf_ref = {
  off : int;             (** leaf payload offset inside the tree's region *)
  lock : bool Htm.Sched.atom;
      (** volatile leaf lock (never persisted); accessed through the
          {!Htm.Sched} shim so the model checker can interleave it *)
  ver : Htm.Node_versions.cell;
      (** the leaf's version word (content + liveness) *)
}

val leaf_ref : int -> leaf_ref

(** How a node holds its separators: [Plain], separator [i] in
    [keys.(i)]; [Anchored], a prefix and anchors (module header). *)
type _ repr = Plain : 'k repr | Anchored : string repr

type 'k node = Inner of 'k inner | Leaf of leaf_ref

and 'k inner = {
  mutable nkeys : int;
  repr : 'k repr;
  mutable prefix : string;
      (** [Anchored]: the separators' longest common prefix ([""] with
          none); [Plain]: [""] *)
  anchors : int array;
      (** [Anchored]: one anchor per separator slot; [Plain]: [[||]] *)
  keys : 'k array;
      (** [Plain]: the separators; [Anchored]: a long separator's full
          key, [""] in every other slot *)
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
  repr : 'k repr;  (** every node's *)
  mutable root : 'k node;
  root_ver : Htm.Node_versions.cell;
      (** guards the [root] pointer: observed by the [_rs] traversals
          before dereferencing [root], bumped around a root-split swap
          (the root has no parent cell to invalidate through) *)
}

(** A tree over a single leaf: root is an inner node with one child.
    @raise Invalid_argument if [fanout < 2]. *)
val create : fanout:int -> dummy_key:'k -> repr:'k repr -> leaf_ref -> 'k t

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

(** [search n key] is the first [i < n.nkeys] with [key <=]
    separator [i], or [nkeys] when there is none, with [nkeys] clamped
    to the node's arrays: the child to descend into.  The tree passes
    its key representation's {!Keys.KEY.search}. *)
type 'k search = 'k inner -> 'k -> int

(** Separator [i] of the node ([i < nkeys]); on an anchored node a
    short one is rebuilt, a fresh string. *)
val key : 'k inner -> int -> 'k

(** [child_index cmp n key]: the child {!search} picks in [n], found by
    a binary search that calls [cmp] on the separators {!key} gives.
    The reference for {!Keys.KEY.search}. *)
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

(** {!descend} choosing each child with {!child_index} on a plain
    node, the anchored search on an anchored one ([cmp] is then
    [String.compare]'s order, which the anchors encode): the generic
    walk, for callers that hold a comparison function only.  It reaches
    the leaf {!descend} does and allocates nothing. *)
val find_leaf : ('k -> 'k -> int) -> 'k node -> 'k -> leaf_ref

(** {!descend_rs} choosing each child as {!find_leaf} does: the same
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
    whether a plain node's separator equals [key].  Allocation-free on
    plain nodes; an anchored node's bound is a rebuilt key.
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
  fanout:int -> dummy_key:'k -> repr:'k repr -> ?fill:float ->
  ('k * leaf_ref) array -> 'k t

(** {1 Node edits}

    The steps {!update_parents}, {!remove_leaf} and {!rebuild} are made
    of, exported for the node-level tests.  None bumps a version. *)

(** An empty node of [t]'s fanout and representation. *)
val make_inner : 'k t -> 'k inner

(** Make the ascending keys the node's separators ([nkeys] too); the
    children are the caller's. *)
val set_keys : 'k inner -> 'k array -> unit

(** [insert_at n pos key right]: [key] becomes separator [pos] and
    [right] child [pos + 1], shifting the rest; the node must have
    room. *)
val insert_at : 'k inner -> int -> 'k -> 'k node -> unit

(** [remove_at n pos] removes child [pos] and the separator next to
    it (separator [pos - 1], or 0 for the first child). *)
val remove_at : 'k inner -> int -> unit

(** Split a node in two at its median separator, which is returned
    with the new right half; the node keeps the left half. *)
val split_inner : 'k t -> 'k inner -> 'k * 'k inner

(** {1 Introspection} *)

val inner_node_count : 'k t -> int
val height : 'k node -> int

(** The nodes' DRAM footprint, summed as the module header sets out;
    [key_bytes] sizes one key. *)
val dram_bytes : 'k t -> key_bytes:('k -> int) -> int

(** Every node's separators ascend under [cmp], and an anchored node is
    in the canonical form of its separators.
    @raise Failure naming the broken property. *)
val check : ('k -> 'k -> int) -> 'k t -> unit
