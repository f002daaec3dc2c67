(** Transient inner nodes (Selective Persistence, Section 4.1).

    Inner nodes live in DRAM as classical sorted main-memory B+-Tree
    nodes and are rebuilt from the leaf linked list on recovery.
    Separator [i] is the greatest key reachable through child [i] (the
    discriminator recovery extracts from each leaf), so search descends
    into the first child whose separator is >= the probe.  Children are
    typed by level: a bottom node's are leaf references ([leaves]),
    every other node's are nodes ([inners]); the immutable [bottom]
    says which, so a descent loads each node record straight from its
    parent's array, with no box around it.

    {b Conflict granularity.}  Every node — inner node and leaf
    reference alike — embeds its own {!Htm.Node_versions.cell} version
    word.  Speculative sections descend with the [_rs] traversals —
    optimistically or under the fallback mutex alike — which
    {e observe} each node's version before touching its fields
    (recording it into the caller's read set); structural writers
    ([update_parents], [remove_leaf]) bracket the mutation of each
    node they touch with [begin_write]/[end_write] on that node's cell
    only.  A reader is invalidated exactly when a writer modified a
    node it read — the cache-line-granular conflict detection of real
    TSX, instead of the tree-global version word the seed used.  Each
    node record points at its own cell, so the reader's version probe
    needs no shared side table (nothing to miss on, no cross-node
    collisions); the word itself is a separate [int Atomic.t] block
    until OCaml has atomic record fields (inner.mli, Layout).

    A split keeps the {e child's} write phase open until the parent
    holds the new separator: between those two steps the key range is
    split across [n]/[right'] but only reachable through the old
    routing, and a reader that slipped through would otherwise validate
    successfully against a half-committed shape.

    The root pointer itself has no parent cell to invalidate through,
    so the tree carries a dedicated [root_ver] cell: the [_rs]
    traversals observe it before dereferencing [root], and a root
    split bumps it around the swap.  Without it, a descent that loaded
    [root] just before the swap could validate against the detached
    pre-split root and miss every key above the new separator.

    {b One node form.}  Every node holds its separators the same way:
    the longest common prefix of them once, in [prefix], one int per
    separator in [anchors], and in [keys.(i)] the full key of a
    separator its anchor cannot rebuild (a long one).  What an anchor
    is belongs to the key kind ({!kind}), which each node carries: a
    fixed key is its own anchor, under an empty prefix, and never
    long, so a fixed node's [keys] is empty; a string's anchor is the
    {!Anchor} encoding of the seven bytes after the prefix, and its
    node keeps a long separator's full key and the kind's [blank] in
    every other key slot.  The form is canonical, a function of the
    separators alone: an edit that keeps the prefix (every edit of a
    fixed node) shifts or blits the slots in place, one that changes
    it re-encodes the node from its separators ({!key}), and {!check}
    recomputes it.  Descents and structural updates choose children
    through the kind's [search] ({!Keys.KEY.search}: one indirect call
    per level, its compares inline). *)

module Nv = Htm.Node_versions
module Sched = Htm.Sched

type leaf_ref = {
  off : int;                 (** leaf payload offset inside the tree's region *)
  lock : bool Sched.atom;    (** volatile leaf lock (never persisted) *)
  ver : Nv.cell;             (** the leaf's version word (content + liveness) *)
}

let leaf_ref off = { off; lock = Sched.make false; ver = Nv.fresh () }

type 'k inner = {
  mutable nkeys : int;
  bottom : bool;             (* children are leaves; fixed at creation *)
  kind : 'k kind;            (* the key kind's steps, shared by its nodes *)
  mutable prefix : string;   (* the separators' common prefix *)
  anchors : int array;       (* capacity fanout - 1; slots >= nkeys are junk *)
  keys : 'k array;           (* long separators: fanout - 1 slots, or [||] *)
  leaves : leaf_ref array;   (* bottom: capacity fanout, nkeys + 1 in use; else [||] *)
  inners : 'k inner array;   (* not bottom: the same; else [||] *)
  ver : Nv.cell;             (* this node's version word *)
  id : int;
      (* Stable negative identity for abort attribution (the flight
         recorder's htm_abort events name the failing node).  Leaves
         are identified by their non-negative SCM offset and the root
         pointer cell by 0, so inner ids draw from a process-wide
         negative sequence — disjoint from both by construction. *)
}

and 'k kind = {
  search : 'k inner -> 'k -> int;
  compare : 'k -> 'k -> int;
  encode : string -> 'k -> int;
  short : string -> int -> 'k;
  is_long : int -> bool;
  common_prefix : 'k -> 'k -> string;
  keeps : string -> 'k -> bool;
  long_keys : int -> 'k array;
  blank : 'k;
  held_bytes : 'k inner -> int;
}

(* Opaque (un-scheduled) atomic: id allocation is process-local
   bookkeeping, not part of the checked protocol. *)
let inner_id_seq = Sched.Opaque.make 0
let fresh_inner_id () = -(1 + Sched.Opaque.fetch_and_add inner_id_seq 1)

(** Reset the inner-id sequence (test-only, used by the mcheck
    harness): each model-checking execution rebuilds a fresh tree and
    must assign it the {e same} negative inner ids, or replayed
    schedules would not name the same objects. *)
let reset_ids () = Sched.Opaque.set inner_id_seq 0

(** Test-only: re-open the PR 5 root-pointer validation hole (fixed in
    cb21ac0) by skipping the [root_ver] bump around the root-split
    swap.  Only consulted on the (cold) root-split path; the mcheck
    regression mode arms it to prove the model checker finds the bug. *)
let regression_root_ver_hole = ref false

type 'k t = {
  fanout : int;
  kind : 'k kind;
  nil : 'k inner;
  mutable root : 'k inner;
  root_ver : Nv.cell;
      (* Guards the [root] pointer itself.  Every node below the root
         is reached through a parent cell the reader has already
         observed, so a swap of any interior edge invalidates the
         reader; the root pointer has no parent, so without this cell a
         descent that loaded [root] just before a root split was
         swapped in — and observed the old root's cell only after its
         write phase closed — would validate against the detached
         pre-split root and miss every key above the new separator. *)
}

(* What every unused child slot holds: [no_leaf] in a bottom node,
   the tree's [nil] in any other, so clearing a slot allocates
   nothing.  [nil] is an empty bottom node whose one child is
   [no_leaf], and no writer ever touches it: a torn descent that
   reaches it ends at [no_leaf] and fails validation, and [sibling_rs]
   answers [no_leaf] for it, falling back to the root.  Its identity
   is outside the id sequence, so it shifts no node's id. *)
let no_leaf = leaf_ref (-1)

let empty ~fanout ~kind =
  if fanout < 2 then invalid_arg "Inner.create: fanout must be >= 2";
  let nil =
    { nkeys = 0; bottom = true; kind; prefix = ""; anchors = [||];
      keys = [||]; leaves = [| no_leaf |]; inners = [||];
      ver = Nv.fresh (); id = min_int }
  in
  { fanout; kind; nil; root = nil; root_ver = Nv.fresh () }

let make_inner (t : 'k t) ~bottom : 'k inner =
  {
    nkeys = 0;
    bottom;
    kind = t.kind;
    prefix = "";
    anchors = Array.make (t.fanout - 1) 0;
    keys = t.kind.long_keys (t.fanout - 1);
    leaves = (if bottom then Array.make t.fanout no_leaf else [||]);
    inners = (if bottom then [||] else Array.make t.fanout t.nil);
    ver = Nv.fresh ();
    id = fresh_inner_id ();
  }

let create ~fanout ~kind first_leaf =
  let t = empty ~fanout ~kind in
  let root = make_inner t ~bottom:true in
  root.leaves.(0) <- first_leaf;
  t.root <- root;
  t

(* [search n key]: the first index i in [0, n.nkeys) with
   key <= separator i, nkeys if none ([Keys.KEY.search]). *)
type 'k search = 'k inner -> 'k -> int

(** Separator [i] of [n]: a long one's kept key, or rebuilt from the
    prefix and its anchor (for string keys a fresh string). *)
let[@inline] key (n : 'k inner) i =
  let a = n.anchors.(i) in
  if n.kind.is_long a then n.keys.(i) else n.kind.short n.prefix a

(** [k] is separator [i] of [n], tested without building it. *)
let equal_at (n : 'k inner) i k =
  let kind = n.kind and p = n.prefix and a = n.anchors.(i) in
  kind.keeps p k && kind.encode p k = a
  && ((not (kind.is_long a)) || kind.compare k n.keys.(i) = 0)

(** Descend to the leaf responsible for [key]. *)
let rec descend (n : 'k inner) key =
  let i = n.kind.search n key in
  if n.bottom then n.leaves.(i) else descend n.inners.(i) key

(* Node-level descent shared by the [_rs] entry points below; the
   caller must already have observed the cell guarding [n] (the
   parent's cell, or [root_ver] for the root).  [search] is the tree's
   kind's, read once per descent. *)
let rec descend_node_rs rs search n key =
  Nv.observe_id rs n.ver n.id;
  let i = search n key in
  if n.bottom then n.leaves.(i) else descend_node_rs rs search n.inners.(i) key

(** {!descend} for speculative sections: observes [t.root_ver] before
    dereferencing the root pointer, then each inner node's version
    {e before} reading its fields, so commit-time validation fails iff
    a writer modified a node on this path — or swapped the root out
    from under it.  Allocation-free.
    @raise Nv.Conflict when a writer is inside a node on the path. *)
let descend_rs rs t key =
  Nv.observe_id rs t.root_ver 0;
  descend_node_rs rs t.kind.search t.root key

(* The names the benchmark harness's descent probe calls; [cmp] is
   unused. *)
let find_leaf _cmp root key = descend root key
let find_leaf_rs rs _cmp t key = descend_rs rs t key

type 'k upper = {
  mutable key : 'k;
  mutable bounded : bool;
  mutable parent : 'k inner;
}

let upper t key = { key; bounded = false; parent = t.nil }

(* One level of a bounded descent: the child index for [key] in [n]
   (with [above], for the keys just above [key]: keys are unique
   within a node, so that is the next child when [key] is itself a
   separator here), with [n] recorded as the leaf's parent and the
   child's key as the upper bound when there is one.  The deepest
   level gives the tightest bound and the parent, so each level
   overwrites the last. *)
let upper_index search n k above u =
  let i = search n k in
  let i = if above && i < n.nkeys && equal_at n i k then i + 1 else i in
  if i < n.nkeys then begin
    u.key <- key n i;
    u.bounded <- true
  end;
  u.parent <- n;
  i

let rec upper_node_rs rs search n key above u =
  Nv.observe_id rs n.ver n.id;
  let i = upper_index search n key above u in
  if n.bottom then n.leaves.(i)
  else upper_node_rs rs search n.inners.(i) key above u

(* The leaf just above [key] through the parent [u] recorded, when
   [key] is one of that parent's separators and not its last: the next
   child then routes the keys above [key] up to the next separator,
   whatever changed since, and however the parent was reached (a
   failed attempt's torn descent may record any node, a bottom one or
   not).  A node holding keys is attached (only an emptied node is
   unlinked) and its keys lie inside its routing range.  [no_leaf]
   otherwise, and at once, observing nothing, while no parent is
   recorded yet. *)
let sibling_rs rs t key u =
  let n = u.parent in
  if n == t.nil then no_leaf
  else begin
    Nv.observe_id rs n.ver n.id;
    let i = upper_index t.kind.search n key true u in
    if i = 0 || i >= n.nkeys || not (equal_at n (i - 1) key) || not n.bottom
    then no_leaf
    else n.leaves.(i)
  end

let find_leaf_upper_rs rs t key ~above u =
  let l = if above then sibling_rs rs t key u else no_leaf in
  if l != no_leaf then l
  else begin
    Nv.observe_id rs t.root_ver 0;
    u.bounded <- false;
    upper_node_rs rs t.kind.search t.root key above u
  end

let rec rightmost_leaf_rs rs n =
  Nv.observe_id rs n.ver n.id;
  if n.bottom then n.leaves.(n.nkeys) else rightmost_leaf_rs rs n.inners.(n.nkeys)

(* The leaf for [key] and the leaf immediately to its left in key
   order, if any (FindLeafAndPrevLeaf): each inner node on the path is
   observed before it is read; the left leaf is the bottom node's
   previous child, or else the rightmost leaf of [left], the nearest
   subtree to the left of the path so far (meaningful only when
   [has_left]).  A top-level recursive function over plain arguments:
   without flambda a local [let rec], a [Some] per level or an
   [Option.map] partial application would each allocate on every
   delete. *)
let rec leaf_and_prev_rs rs search n key left has_left =
  Nv.observe_id rs n.ver n.id;
  let i = search n key in
  if n.bottom then
    ( n.leaves.(i),
      if i > 0 then Some n.leaves.(i - 1)
      else if has_left then Some (rightmost_leaf_rs rs left)
      else None )
  else if i > 0 then
    leaf_and_prev_rs rs search n.inners.(i) key n.inners.(i - 1) true
  else leaf_and_prev_rs rs search n.inners.(i) key left has_left

let find_leaf_and_prev_rs rs t key =
  Nv.observe_id rs t.root_ver 0;
  let root = t.root in
  leaf_and_prev_rs rs t.kind.search root key root false

(* ---- structural updates (run under the writer lock) ---- *)

(* Slots [i, i + len) of [src] to [j, j + len) of [dst]: the anchors,
   and the kept keys of a kind that has them.  Array.blit (memmove)
   rather than an element loop: nodes hold up to fanout - 1 = 4096
   separators, and a split moves half of them. *)
let blit_slots src i dst j len =
  Array.blit src.anchors i dst.anchors j len;
  if Array.length src.keys > 0 then Array.blit src.keys i dst.keys j len

(* Blank key slots [i, i + len) of [n], so no stale key stays
   reachable. *)
let clear_keys n i len =
  if Array.length n.keys > 0 then Array.fill n.keys i len n.kind.blank

(* Slot [i] of [n] holds separator [k], whose anchor is [a]. *)
let set_slot n i k a =
  n.anchors.(i) <- a;
  if Array.length n.keys > 0 then
    n.keys.(i) <- (if n.kind.is_long a then k else n.kind.blank)

(* Store the ascending separators [ks] into [n] in canonical form:
   their common prefix (that of the first and the last), one anchor
   each, a long separator's full key, and [blank] in every other key
   slot, junk slots included.  The caller sets [nkeys]. *)
let encode_all (n : 'k inner) ks =
  let kind = n.kind and cnt = Array.length ks in
  let p = if cnt = 0 then "" else kind.common_prefix ks.(0) ks.(cnt - 1) in
  Array.iteri (fun i k -> set_slot n i k (kind.encode p k)) ks;
  clear_keys n cnt (Array.length n.keys - cnt);
  n.prefix <- p

(* The common prefix of separators [i] and [j] of [n], [""] when
   [i > j] (no separator): what a node keeping them would hold. *)
let ends_prefix (n : 'k inner) i j =
  if i > j then "" else n.kind.common_prefix (key n i) (key n j)

(** Make the ascending [ks] the separators of [n] ([nkeys] included);
    its children are the caller's. *)
let set_keys n ks =
  encode_all n ks;
  n.nkeys <- Array.length ks

(* The key edits below are one body for both levels: [children] is the
   node's own child array ([leaves] or [inners]), and [none] what a
   cleared slot of it holds. *)

(* Insert (key, right) just after [pos] in [n]; caller guarantees room.
   A key that keeps the prefix shifts the slots and encodes one;
   otherwise the prefix shortens and the node is re-encoded from its
   built separators. *)
let insert_at (n : 'k inner) children pos k right =
  let cnt = n.nkeys and kind = n.kind in
  let kept =
    if cnt = 0 then String.equal n.prefix (kind.common_prefix k k)
    else kind.keeps n.prefix k
  in
  if kept then begin
    blit_slots n pos n (pos + 1) (cnt - pos);
    set_slot n pos k (kind.encode n.prefix k)
  end
  else
    encode_all n
      (Array.init (cnt + 1) (fun i ->
           if i < pos then key n i else if i = pos then k else key n (i - 1)));
  Array.blit children (pos + 1) children (pos + 2) (cnt - pos);
  children.(pos + 1) <- right;
  n.nkeys <- cnt + 1

(* Children [mid + 1, cnt] of [src] become [dst]'s first ones, and
   their slots in [src] hold [none]. *)
let move_children src dst mid cnt none =
  Array.blit src (mid + 1) dst 0 (cnt - mid);
  Array.fill src (mid + 1) (cnt - mid) none

(* Split a full inner node into (left = n, sep, right), on n's level.
   A half whose ends share the node's prefix takes its slots as they
   are; any other is re-encoded (its prefix lengthened).  The right
   half goes first: re-encoding the left changes what {!key}
   rebuilds. *)
let split_inner (t : 'k t) (n : 'k inner) =
  let cnt = n.nkeys in
  let mid = cnt / 2 in
  let right = make_inner t ~bottom:n.bottom in
  let moved = cnt - mid - 1 in
  if n.bottom then move_children n.leaves right.leaves mid cnt no_leaf
  else move_children n.inners right.inners mid cnt t.nil;
  let sep = key n mid in
  if String.equal n.prefix (ends_prefix n (mid + 1) (cnt - 1)) then begin
    blit_slots n (mid + 1) right 0 moved;
    right.prefix <- n.prefix
  end
  else encode_all right (Array.init moved (fun i -> key n (mid + 1 + i)));
  if String.equal n.prefix (ends_prefix n 0 (mid - 1)) then
    clear_keys n mid (cnt - mid)
  else encode_all n (Array.init mid (key n));
  right.nkeys <- moved;
  n.nkeys <- mid;
  (sep, right)

(** After a leaf split: register [right] (greatest-key discriminator
    [sep]) next to the leaf currently responsible for [sep]
    (UpdateParents).  Splits inner nodes on the way up as needed.  Run
    under the writer lock; each modified node's version is bumped, and
    a node that splits stays in its write phase until its parent holds
    the new separator (see the module header). *)
let update_parents t ~sep ~right =
  let search = t.kind.search in
  let rec go n =
    (* Returns Some (n, (sep', right')) if [n] split; [n]'s write phase
       is then still open and the caller closes it once the parent
       references [right']. *)
    let i = search n sep in
    let grew =
      if n.bottom then begin
        Nv.begin_write_id n.ver n.id;
        insert_at n n.leaves i sep right;
        true
      end
      else
        match go n.inners.(i) with
        | None -> false
        | Some (c, (sep', right')) ->
          Nv.begin_write_id n.ver n.id;
          insert_at n n.inners i sep' right';
          (* [right'] is reachable through [n] now: close the split
             child's phase. *)
          Nv.end_write_id c.ver c.id;
          true
    in
    if not grew then None
    else if n.nkeys = t.fanout - 1 then Some (n, split_inner t n)
    else begin
      Nv.end_write_id n.ver n.id;
      None
    end
  in
  match go t.root with
  | None -> ()
  | Some (c, (sep', right')) ->
    let old_root = t.root in
    let root = make_inner t ~bottom:false in
    root.inners.(0) <- old_root;
    insert_at root root.inners 0 sep' right';
    (* The swap changes which keys are reachable from the root
       pointer, and the pointer has no parent cell to invalidate
       through: bump [root_ver] around it so a reader that loaded the
       old root just before the swap fails validation instead of
       resolving keys above [sep'] against the detached pre-split
       root. *)
    if !regression_root_ver_hole then t.root <- root
    else begin
      Nv.begin_write_id t.root_ver 0;
      t.root <- root;
      Nv.end_write_id t.root_ver 0
    end;
    Nv.end_write_id c.ver c.id;
    if Obs.Gate.enabled () then Obs.Flight.root_swap ~dir:Obs.Flight.root_grow

(* Remove children.(pos) and the separator adjacent to it.  Removing
   the first or last separator can lengthen the prefix: the node is
   then re-encoded from its built separators. *)
let remove_slot (n : 'k inner) children pos none =
  let cnt = n.nkeys in
  let kpos = if pos = 0 then 0 else pos - 1 in
  let rest = cnt - 1 in
  let kept =
    (kpos > 0 && kpos < rest)
    || String.equal n.prefix
         (ends_prefix n (if kpos = 0 then 1 else 0)
            (if kpos = rest then rest - 1 else rest))
  in
  if kept then begin
    blit_slots n (kpos + 1) n kpos (rest - kpos);
    clear_keys n rest 1
  end
  else
    encode_all n (Array.init rest (fun i -> key n (if i < kpos then i else i + 1)));
  Array.blit children (pos + 1) children pos (cnt - pos);
  n.nkeys <- rest;
  (* Drop the stale trailing reference so DRAM is not retained. *)
  children.(rest + 1) <- none

let remove_at t n pos =
  if n.bottom then remove_slot n n.leaves pos no_leaf
  else remove_slot n n.inners pos t.nil

(** Unlink the leaf responsible for [key] from the inner structure
    (the leaf became empty and is being deleted).  Empty inner nodes
    are removed on the way up; no underflow rebalancing is attempted,
    matching the paper's physical-operation granularity.  Run under
    the writer lock; the single modified ancestor's version is
    bumped — every root→leaf path to the dying subtree passes through
    it, so any reader still holding a reference is invalidated. *)
let remove_leaf t key =
  let search = t.kind.search in
  let rec go n =
    (* Returns true if [n] ended up with zero children. *)
    let i = search n key in
    if not (n.bottom || go n.inners.(i)) then false
    else if n.nkeys = 0 then (* single-child node: removing empties it *)
      true
    else begin
      Nv.begin_write_id n.ver n.id;
      remove_at t n i;
      Nv.end_write_id n.ver n.id;
      false
    end
  in
  if go t.root then begin
    (* The whole tree emptied; keep an empty root. *)
    let n = t.root in
    Nv.begin_write_id n.ver n.id;
    n.nkeys <- 0;
    Nv.end_write_id n.ver n.id
  end;
  (* Collapse a root holding a single inner child.  Unlike a root
     split, this swap does not change reachability — the old root is a
     single-child inner routing every key into the new root — so a
     reader still descending through the old root sees a consistent
     current view and no [root_ver] bump is needed.  (Should the tree
     later grow a new root above [c], that swap bumps [root_ver] and
     invalidates any reader still holding the stale pointer.) *)
  let n = t.root in
  if n.nkeys = 0 && not n.bottom then begin
    t.root <- n.inners.(0);
    if Obs.Gate.enabled () then
      Obs.Flight.root_swap ~dir:Obs.Flight.root_collapse
  end

(* ---- bulk rebuild (recovery, Algorithm 9 / RebuildInnerNodes) ---- *)

(* How full a rebuilt node is packed, as a share of fanout. *)
let fill = 0.85

(** Rebuild the inner structure from the leaves in key order, given
    each leaf's greatest key.  Nodes are packed to ~[fill] of fanout,
    level by level up to a single root (a bottom node when the leaves
    fit in one).  Single-threaded (recovery): fresh version cells, no
    bumps. *)
let rebuild ~fanout ~kind (leaves : ('k * leaf_ref) array) =
  let t = empty ~fanout ~kind in
  let n_leaves = Array.length leaves in
  if n_leaves = 0 then invalid_arg "Inner.rebuild: no leaves";
  let per_node = max 2 (min fanout (int_of_float (float_of_int fanout *. fill))) in
  (* One level over [n] children, whose greatest keys are [max_key i]:
     the new nodes and their greatest keys.  [link node base cnt]
     stores children [base, base + cnt) in [node]. *)
  let level ~bottom n max_key link =
    let groups = (n + per_node - 1) / per_node in
    let maxes = Array.make groups (max_key (n - 1)) in
    let nodes = Array.make groups t.nil in
    for g = 0 to groups - 1 do
      let base = g * per_node in
      let cnt = min per_node (n - base) in
      let node = make_inner t ~bottom in
      link node base cnt;
      set_keys node (Array.init (cnt - 1) (fun i -> max_key (base + i)));
      maxes.(g) <- max_key (base + cnt - 1);
      nodes.(g) <- node
    done;
    (maxes, nodes)
  in
  let rec up (maxes, nodes) =
    if Array.length nodes = 1 then nodes.(0)
    else
      up
        (level ~bottom:false (Array.length nodes) (Array.get maxes)
           (fun node base cnt -> Array.blit nodes base node.inners 0 cnt))
  in
  t.root <-
    up
      (level ~bottom:true n_leaves
         (fun i -> fst leaves.(i))
         (fun node base cnt ->
           for i = 0 to cnt - 1 do
             node.leaves.(i) <- snd leaves.(base + i)
           done));
  t

(* ---- introspection ---- *)

let rec fold_nodes f acc n =
  let acc = f acc n in
  if n.bottom then acc
  else begin
    let acc = ref acc in
    for i = 0 to n.nkeys do
      acc := fold_nodes f !acc n.inners.(i)
    done;
    !acc
  end

let inner_node_count t = fold_nodes (fun c _ -> c + 1) 0 t.root

let rec height n = if n.bottom then 1 else 1 + height n.inners.(0)

(** DRAM footprint in bytes, summed over the nodes (see inner.mli). *)
let dram_bytes t =
  fold_nodes
    (fun b n ->
      b + 24
      + (8 * (Array.length n.leaves + Array.length n.inners
              + Array.length n.anchors + Array.length n.keys))
      + n.kind.held_bytes n)
    0 t.root

(* [n]'s separators ascend, and [n] equals the canonical form of them,
   rebuilt in a scratch copy. *)
let check_node (n : 'k inner) =
  let kind = n.kind in
  let ks = Array.init n.nkeys (key n) in
  for i = 1 to n.nkeys - 1 do
    if kind.compare ks.(i - 1) ks.(i) >= 0 then
      failwith "invariant: inner separators not ascending"
  done;
  let c =
    { n with anchors = Array.make (Array.length n.anchors) 0;
             keys = kind.long_keys (Array.length n.keys) }
  in
  encode_all c ks;
  if not (String.equal c.prefix n.prefix
          && Array.for_all2 (fun a b -> kind.compare a b = 0) c.keys n.keys
          && Array.sub c.anchors 0 n.nkeys = Array.sub n.anchors 0 n.nkeys)
  then failwith "invariant: inner node not in canonical form"

(* [n]'s live children are on one level: real leaves below a bottom
   node, nodes of equal height below any other. *)
let check_level (n : 'k inner) =
  if n.bottom then begin
    for i = 0 to n.nkeys do
      if n.leaves.(i) == no_leaf then
        failwith "invariant: bottom node child is not a leaf"
    done
  end
  else begin
    let h = height n.inners.(0) in
    for i = 1 to n.nkeys do
      if height n.inners.(i) <> h then
        failwith "invariant: inner node children of unequal height"
    done
  end

let check t =
  fold_nodes (fun () n -> check_node n; check_level n) () t.root
