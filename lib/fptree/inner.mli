(** Transient inner nodes (Selective Persistence, Section 4.1):
    classical sorted main-memory B+-Tree nodes living in DRAM, rebuilt
    from the persistent leaf linked list on recovery.  Separator [i]
    ({!key}) is the greatest key reachable through child [i].
    Parametric in the key type, not functorised: what depends on the
    key is one {!kind} record per key module ({!Keys.KEY.inner_kind}),
    which every node carries.

    Each node (inner node and leaf reference) embeds its own
    {!Htm.Node_versions.cell} version word: every speculative section
    descends with the [_rs] traversals, which record the versions of
    the nodes they touch (whether the section runs optimistically or
    under the fallback mutex), and structural writers bump only the
    nodes they modify — per-node conflict detection modeling TSX
    read-set granularity, with the version word co-located with the
    node it protects.  The unrecorded descent, {!descend}, is for
    callers with no concurrent writer.

    {b One node form.}  A node keeps the longest common prefix of its
    separators once, in [prefix], one int per separator in [anchors],
    and in [keys.(i)] the full key of a separator whose anchor is long
    (one the anchor cannot rebuild), the kind's [blank] in every other
    slot.  Anchor order is key order, so a child is chosen by an int
    binary search, the kind's [search]; the one tie it cannot settle,
    two equal long anchors, compares the probe with the kept keys.
    - Fixed keys ({!Keys.Fixed}): a key is already an order-preserving
      int, so it is its own anchor, under the empty prefix; no anchor
      is long and [keys] is [[||]].
    - String keys ({!Keys.Var}): the seven bytes after the prefix,
      big-endian and zero-padded, shifted left four, with the suffix
      length in the low four bits (0–7, or 8 for longer; {!Anchor}).

    The form is canonical (a function of the separators alone), which
    is how it is maintained: an edit whose separators keep the node's
    prefix (every edit of a fixed node) shifts or blits the anchors
    and kept keys in place and encodes at most one; an insert that
    breaks the prefix, a removal of an end separator that lengthens
    it, and a split half whose prefix lengthens re-encode the node
    from its separators ({!key} rebuilds each).  {!check} recomputes
    it.

    {b Torn reads.}  An optimistic section racing a writer may pair
    one write's [nkeys], [prefix], [anchors] and [keys] with
    another's.  Every index a read takes is clamped to the node's
    arrays ([search] clamps [nkeys] to them; a separator index stays
    below [nkeys], never above the capacity the arrays share), and
    every byte read is bounded by its string's length, so such a read
    misroutes at worst, and the section's validation rejects it.

    {b Layout.}  Children are typed by level.  A bottom node keeps
    its children in [leaves], every other node in [inners], each with
    [fanout] slots; the other array is [[||]], and the immutable
    [bottom] says which.  Per level, a descent loads:
    - before (one [Inner n | Leaf l] variant per child slot): the
      constructor block, the node record it wraps, the version cell,
      the anchor array (and a kept key on a tie), the child array, and
      at the last level the [Leaf] block before the leaf reference;
    - now: the node record, read straight from the parent's [inners]
      (the root from [root]), its version cell, the anchor array (and a
      kept key on a tie), and the child array, [leaves] at the bottom.
    The version word stays its own block ({!Htm.Node_versions.cell},
    an [int Atomic.t]): co-locating it in the record needs atomic
    record fields, which OCaml has from 5.4 on.  Unused child slots
    hold {!no_leaf} in a bottom node and the tree's [nil] in any
    other: an empty bottom node whose one child is {!no_leaf}, which
    no writer touches, so a torn descent that reaches a cleared slot
    ends at {!no_leaf} and fails validation.

    {b Bytes.}  {!dram_bytes} counts per node 24 bytes of record, 8
    per child slot ([leaves] plus [inners]: [fanout] slots), 8 per
    anchor slot, 8 per key slot and the kind's [held_bytes]: for
    string keys [String.length s + 24] for the prefix and each kept
    long key; 0 for fixed keys, whose nodes have no key slots. *)

type leaf_ref = {
  off : int;             (** leaf payload offset inside the tree's region *)
  lock : bool Htm.Sched.atom;
      (** volatile leaf lock (never persisted); accessed through the
          {!Htm.Sched} shim so the model checker can interleave it *)
  ver : Htm.Node_versions.cell;
      (** the leaf's version word (content + liveness) *)
}

val leaf_ref : int -> leaf_ref

val no_leaf : leaf_ref
(** No leaf (offset -1), one shared value: what every unused slot of
    a bottom node holds, and the one child of each tree's [nil]. *)

type 'k inner = {
  mutable nkeys : int;
  bottom : bool;
      (** the children are leaves; fixed when the node is made *)
  kind : 'k kind;  (** the key kind's steps, shared by its nodes *)
  mutable prefix : string;
      (** the separators' longest common prefix ([""] with none;
          always [""] for fixed keys) *)
  anchors : int array;  (** one anchor per separator slot *)
  keys : 'k array;
      (** a long separator's full key, [blank] in every other slot;
          [[||]] for a kind that has no long anchors *)
  leaves : leaf_ref array;
      (** a bottom node's children ([nkeys + 1] in use); [[||]] in any
          other *)
  inners : 'k inner array;
      (** the children of a node that is not bottom, one level down;
          [[||]] in a bottom node *)
  ver : Htm.Node_versions.cell;  (** this node's version word *)
  id : int;
      (** stable negative identity for abort attribution (flight
          recorder); leaves are identified by their non-negative SCM
          offset and the root pointer cell by 0 *)
}

(** The key-dependent steps, one record per key module
    ({!Keys.KEY.inner_kind}).  Only [search] runs on a descent;
    [compare] and the steps under it run on structural edits, a range
    scan's separator test and {!key}. *)
and 'k kind = {
  search : 'k inner -> 'k -> int;
      (** the first [i < nkeys] with [k <=] separator [i], or [nkeys]
          when there is none, [nkeys] clamped to the arrays
          ({!Keys.KEY.search}) *)
  compare : 'k -> 'k -> int;
  encode : string -> 'k -> int;
      (** [encode p k]: [k]'s anchor under the prefix [p], which [k]
          keeps *)
  short : string -> int -> 'k;
      (** [short p a]: the separator with the short anchor [a] under
          [p] *)
  is_long : int -> bool;
      (** the anchor does not determine its separator: the node keeps
          the key *)
  common_prefix : 'k -> 'k -> string;
      (** the prefix a node holding these first and last separators
          keeps *)
  keeps : string -> 'k -> bool;  (** [keeps p k]: [k] starts with [p] *)
  long_keys : int -> 'k array;
      (** the [keys] array of a fresh node of this capacity *)
  blank : 'k;  (** a key slot's content when it keeps no key *)
  held_bytes : 'k inner -> int;
      (** the DRAM bytes of the node's prefix and kept keys *)
}

type 'k t = {
  fanout : int;
  kind : 'k kind;  (** every node's *)
  nil : 'k inner;
      (** the empty node every cleared [inners] slot and a fresh
          {!upper}'s [parent] hold; never a live subtree *)
  mutable root : 'k inner;
  root_ver : Htm.Node_versions.cell;
      (** guards the [root] pointer: observed by the [_rs] traversals
          before dereferencing [root], bumped around a root-split swap
          (the root has no parent cell to invalidate through) *)
}

(** A tree over a single leaf: root is a bottom node with one child.
    @raise Invalid_argument if [fanout < 2]. *)
val create : fanout:int -> kind:'k kind -> leaf_ref -> 'k t

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
    to the node's arrays: the child to descend into ({!kind}'s
    [search]). *)
type 'k search = 'k inner -> 'k -> int

(** Separator [i] of the node ([i < nkeys]): a long one's kept key, or
    rebuilt from the prefix and its anchor (for string keys a fresh
    string). *)
val key : 'k inner -> int -> 'k

(** Descend to the leaf responsible for [key] through each node's
    [search], recording nothing (invariant checks, tests,
    single-threaded harnesses).  Allocation-free. *)
val descend : 'k inner -> 'k -> leaf_ref

(** {!descend} for speculative sections: observes [root_ver] before
    dereferencing the root pointer, then each traversed inner node's
    version into the read set before reading its fields.
    Allocation-free.
    @raise Htm.Node_versions.Conflict if a writer is inside a node. *)
val descend_rs : Htm.Node_versions.readset -> 'k t -> 'k -> leaf_ref

(** [find_leaf cmp] is {!descend}; [cmp] is unused.  The benchmark
    harness's descent probe calls this name. *)
val find_leaf : ('k -> 'k -> int) -> 'k inner -> 'k -> leaf_ref

(** [find_leaf_rs rs cmp] is {!descend_rs}[ rs]; [cmp] is unused. *)
val find_leaf_rs :
  Htm.Node_versions.readset -> ('k -> 'k -> int) -> 'k t -> 'k -> leaf_ref

(** Where a bounded descent ended: the leaf's routing upper bound
    [key], valid when [bounded] (the rightmost leaf has none), and the
    leaf's parent. *)
type 'k upper = {
  mutable key : 'k;
  mutable bounded : bool;
  mutable parent : 'k inner;
}

(** A record holding [key], unbounded, with no parent yet (the tree's
    [nil]). *)
val upper : 'k t -> 'k -> 'k upper

(** [find_leaf_upper_rs rs t key ~above u] descends to the leaf for
    [key] ([above = false]), or to the leaf holding the keys just
    above [key] ([above = true]), recording the path as {!descend_rs},
    and leaves in [u] that leaf's upper bound (the key of the nearest
    ancestor entry the path took below its [nkeys]) and its parent
    position.  With [above], when the parent [u] recorded holds [key]
    as a separator with another after it, the leaf is that parent's
    next child, reached by observing the parent alone; otherwise the
    descent starts at the root.  Whether a separator equals [key] is
    tested on its anchor, without building it.  Allocation-free for
    fixed keys; a string bound is a rebuilt key.
    @raise Htm.Node_versions.Conflict if a writer is inside a node. *)
val find_leaf_upper_rs :
  Htm.Node_versions.readset -> 'k t -> 'k -> above:bool -> 'k upper ->
  leaf_ref

(** The leaf for [key] plus the leaf immediately to its left in key
    order, if any (FindLeafAndPrevLeaf), recording the root pointer
    and both descents as {!descend_rs}.
    @raise Htm.Node_versions.Conflict if a writer is inside a node. *)
val find_leaf_and_prev_rs :
  Htm.Node_versions.readset -> 'k t -> 'k -> leaf_ref * leaf_ref option

(** Register the new right half of a leaf split next to the leaf
    currently responsible for [sep] (UpdateParents); splits inner
    nodes and grows the root as needed.  Run under the writer lock;
    bumps the version of each modified node, keeping a split child's
    write phase open until its parent holds the new separator. *)
val update_parents : 'k t -> sep:'k -> right:leaf_ref -> unit

(** Unlink the (emptied) leaf responsible for [key]; empty inner nodes
    are removed on the way up, a single-inner-child root collapses.
    Run under the writer lock; bumps each modified ancestor. *)
val remove_leaf : 'k t -> 'k -> unit

(** Bulk rebuild from the leaves in key order (recovery, Algorithm 9),
    each node packed to 85% of [fanout].
    @raise Invalid_argument on an empty leaf array. *)
val rebuild : fanout:int -> kind:'k kind -> ('k * leaf_ref) array -> 'k t

(** {1 Node edits}

    The steps {!update_parents}, {!remove_leaf} and {!rebuild} are made
    of, exported for the node-level tests.  None bumps a version. *)

(** An empty node of [t]'s fanout and kind, on the bottom level or
    not. *)
val make_inner : 'k t -> bottom:bool -> 'k inner

(** Make the ascending keys the node's separators ([nkeys] too); the
    children are the caller's. *)
val set_keys : 'k inner -> 'k array -> unit

(** [insert_at n children pos key right]: [key] becomes separator
    [pos] and [right] child [pos + 1], shifting the rest; the node
    must have room.  [children] is the node's own child array,
    [n.leaves] or [n.inners] by its level. *)
val insert_at : 'k inner -> 'c array -> int -> 'k -> 'c -> unit

(** [remove_at t n pos] removes child [pos] and the separator next to
    it (separator [pos - 1], or 0 for the first child); the freed slot
    holds {!no_leaf} or [t.nil]. *)
val remove_at : 'k t -> 'k inner -> int -> unit

(** Split a node in two at its median separator, which is returned
    with the new right half, on the node's level; the node keeps the
    left half. *)
val split_inner : 'k t -> 'k inner -> 'k * 'k inner

(** {1 Introspection} *)

val inner_node_count : 'k t -> int
val height : 'k inner -> int
(** Levels of nodes from this one down to the leaves: 1 for a bottom
    node. *)

(** The nodes' DRAM footprint, summed as the module header sets out. *)
val dram_bytes : 'k t -> int

(** Every node's separators ascend under its kind's [compare], the
    node is in the canonical form of its separators, and its live
    children are on one level: real leaves (not {!no_leaf}) below a
    bottom node, nodes of equal {!height} below any other.
    @raise Failure naming the broken property. *)
val check : 'k t -> unit
