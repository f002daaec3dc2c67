(** Transient inner nodes (Selective Persistence, Section 4.1).

    Inner nodes live in DRAM as classical sorted main-memory B+-Tree
    nodes and are rebuilt from the leaf linked list on recovery.  A key
    [keys.(i)] is the greatest key reachable through [children.(i)]
    (the discriminator recovery extracts from each leaf), so search
    descends into the first child whose key is >= the probe.

    {b Conflict granularity.}  Every node — inner node and leaf
    reference alike — embeds its own {!Htm.Node_versions.cell} version
    word.  Optimistic readers use the [_rs] traversals, which
    {e observe} each node's version before touching its fields
    (recording it into the caller's read set); structural writers
    ([update_parents], [remove_leaf]) bracket the mutation of each
    node they touch with [begin_write]/[end_write] on that node's cell
    only.  A reader is invalidated exactly when a writer modified a
    node it read — the cache-line-granular conflict detection of real
    TSX, instead of the tree-global version word the seed used.  The
    cell lives in the node record itself, so the reader's version
    probe touches memory the descent is already reading (no shared
    side table to miss on, and no cross-node collisions).

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

    The structure is parametric in the key type; all functions take the
    comparison explicitly. *)

module Nv = Htm.Node_versions
module Sched = Htm.Sched

type leaf_ref = {
  off : int;                 (** leaf payload offset inside the tree's region *)
  lock : bool Sched.atom;    (** volatile leaf lock (never persisted) *)
  ver : Nv.cell;             (** the leaf's version word (content + liveness) *)
}

let leaf_ref off = { off; lock = Sched.make false; ver = Nv.fresh () }

type 'k node = Inner of 'k inner | Leaf of leaf_ref

and 'k inner = {
  mutable nkeys : int;
  keys : 'k array;           (* capacity fanout - 1; slots >= nkeys are junk *)
  children : 'k node array;  (* capacity fanout; nkeys + 1 children in use *)
  ver : Nv.cell;             (* this node's version word *)
  id : int;
      (* Stable negative identity for abort attribution (the flight
         recorder's htm_abort events name the failing node).  Leaves
         are identified by their non-negative SCM offset and the root
         pointer cell by 0, so inner ids draw from a process-wide
         negative sequence — disjoint from both by construction. *)
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
  dummy_key : 'k;
  mutable root : 'k node;
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

let make_inner t =
  {
    nkeys = 0;
    keys = Array.make (t.fanout - 1) t.dummy_key;
    children = Array.make t.fanout (Leaf (leaf_ref (-1)));
    ver = Nv.fresh ();
    id = fresh_inner_id ();
  }

let create ~fanout ~dummy_key first_leaf =
  if fanout < 2 then invalid_arg "Inner.create: fanout must be >= 2";
  let t =
    { fanout; dummy_key; root = Leaf first_leaf; root_ver = Nv.fresh () }
  in
  let root = make_inner t in
  root.children.(0) <- Leaf first_leaf;
  t.root <- Inner root;
  t

(** First index i in [0, nkeys) with key <= keys.(i); nkeys if none:
    the child to descend into.  (A top-level recursive function over
    plain arguments: this runs on every level of every operation, and
    without flambda a local [let rec] capturing [cmp]/[n]/[key] — or a
    [ref]-based loop — would be a minor-heap allocation per call.) *)
let rec bsearch cmp (n : 'k inner) key lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if cmp key n.keys.(mid) <= 0 then bsearch cmp n key lo mid
    else bsearch cmp n key (mid + 1) hi

let child_index cmp (n : 'k inner) key = bsearch cmp n key 0 n.nkeys

(** Descend to the leaf responsible for [key]. *)
let rec find_leaf cmp node key =
  match node with
  | Leaf l -> l
  | Inner n -> find_leaf cmp n.children.(child_index cmp n key) key

(* Node-level descent shared by the [_rs] entry points below; the
   caller must already have observed the cell guarding [node] (the
   parent's cell, or [root_ver] for the root). *)
let rec find_node_rs rs cmp node key =
  match node with
  | Leaf l -> l
  | Inner n ->
    Nv.observe_id rs n.ver n.id;
    find_node_rs rs cmp n.children.(child_index cmp n key) key

(** {!find_leaf} for optimistic readers: observes [t.root_ver] before
    dereferencing the root pointer, then each inner node's version
    {e before} reading its fields, so commit-time validation fails iff
    a writer modified a node on this path — or swapped the root out
    from under it.  Allocation-free.
    @raise Nv.Conflict when a writer is inside a node on the path. *)
let find_leaf_rs rs cmp t key =
  Nv.observe_id rs t.root_ver 0;
  find_node_rs rs cmp t.root key

(* Shared-prefix descent for {!find_span_rs}: one path while [lo] and
   [hi] route to the same child, then one per key below the fork. *)
let rec span_node_rs rs cmp node lo hi =
  match node with
  | Leaf l -> (l, l)
  | Inner n ->
    Nv.observe_id rs n.ver n.id;
    let i = child_index cmp n lo and j = child_index cmp n hi in
    if i = j then span_node_rs rs cmp n.children.(i) lo hi
    else begin
      let start = find_node_rs rs cmp n.children.(i) lo in
      (start, find_node_rs rs cmp n.children.(j) hi)
    end

(** The leaves responsible for [lo] and for [hi], with read-set
    recording: the path the two keys share is observed once.
    @raise Nv.Conflict when a writer is inside a node on either path. *)
let find_span_rs rs cmp t lo hi =
  Nv.observe_id rs t.root_ver 0;
  span_node_rs rs cmp t.root lo hi

let rec rightmost_leaf = function
  | Leaf l -> l
  | Inner n -> rightmost_leaf n.children.(n.nkeys)

let rec rightmost_leaf_rs rs = function
  | Leaf l -> l
  | Inner n ->
    Nv.observe_id rs n.ver n.id;
    rightmost_leaf_rs rs n.children.(n.nkeys)

(* Descent for {!find_leaf_and_prev}: [left] is the nearest subtree to
   the left of the path so far, meaningful only when [has_left].  Top
   level over plain arguments (see {!bsearch}): a local [let rec], a
   [Some] per level or an [Option.map] partial application would each
   allocate on every delete. *)
let rec leaf_and_prev cmp node key left has_left =
  match node with
  | Leaf l -> (l, if has_left then Some (rightmost_leaf left) else None)
  | Inner n ->
    let i = child_index cmp n key in
    if i > 0 then leaf_and_prev cmp n.children.(i) key n.children.(i - 1) true
    else leaf_and_prev cmp n.children.(i) key left has_left

(** Descend to the leaf for [key] and also return the leaf immediately
    to its left in key order, if any (FindLeafAndPrevLeaf). *)
let find_leaf_and_prev cmp root key = leaf_and_prev cmp root key root false

(* {!leaf_and_prev} with read-set recording: each inner node on the
   path is observed before it is read, then the left subtree's
   rightmost path. *)
let rec leaf_and_prev_rs rs cmp node key left has_left =
  match node with
  | Leaf l -> (l, if has_left then Some (rightmost_leaf_rs rs left) else None)
  | Inner n ->
    Nv.observe_id rs n.ver n.id;
    let i = child_index cmp n key in
    if i > 0 then
      leaf_and_prev_rs rs cmp n.children.(i) key n.children.(i - 1) true
    else leaf_and_prev_rs rs cmp n.children.(i) key left has_left

(** {!find_leaf_and_prev} with read-set recording (root pointer and
    both descents). *)
let find_leaf_and_prev_rs rs cmp t key =
  Nv.observe_id rs t.root_ver 0;
  let root = t.root in
  leaf_and_prev_rs rs cmp root key root false

(* ---- structural updates (run under the writer lock) ---- *)

(* Insert (key, right) just after [pos] in [n]; caller guarantees room.
   Array.blit (memmove) rather than an element loop: nodes hold up to
   fanout - 1 = 4096 keys, and a split shifts half of them on average,
   so this is the dominant cost of propagating a leaf split upward. *)
let insert_at n pos key right =
  Array.blit n.keys pos n.keys (pos + 1) (n.nkeys - pos);
  Array.blit n.children (pos + 1) n.children (pos + 2) (n.nkeys - pos);
  n.keys.(pos) <- key;
  n.children.(pos + 1) <- right;
  n.nkeys <- n.nkeys + 1

(* Split a full inner node into (left = n, sep, right). *)
let split_inner t n =
  let mid = n.nkeys / 2 in
  let sep = n.keys.(mid) in
  let right = make_inner t in
  let moved = n.nkeys - mid - 1 in
  Array.blit n.keys (mid + 1) right.keys 0 moved;
  Array.blit n.children (mid + 1) right.children 0 (moved + 1);
  right.nkeys <- moved;
  (* Drop stale references so DRAM is not retained by junk slots. *)
  for i = mid to n.nkeys - 1 do
    n.keys.(i) <- t.dummy_key
  done;
  for i = mid + 1 to n.nkeys do
    n.children.(i) <- Leaf (leaf_ref (-1))
  done;
  n.nkeys <- mid;
  (sep, right)

(** After a leaf split: register [right] (greatest-key discriminator
    [sep]) next to the leaf currently responsible for [sep]
    (UpdateParents).  Splits inner nodes on the way up as needed.  Run
    under the writer lock; each modified node's version is bumped, and
    a node that splits stays in its write phase until its parent holds
    the new separator (see the module header). *)
let update_parents t cmp ~sep ~right =
  let right_node = Leaf right in
  let rec go node =
    (* Returns Some (n, sep', right') if [node = Inner n] split; [n]'s
       write phase is then still open and the caller closes it once the
       parent references [right']. *)
    match node with
    | Leaf _ -> assert false
    | Inner n -> (
      let i = child_index cmp n sep in
      match n.children.(i) with
      | Leaf _ ->
        Nv.begin_write_id n.ver n.id;
        insert_at n i sep right_node;
        if n.nkeys = t.fanout - 1 then Some (n, split_inner t n)
        else begin
          Nv.end_write_id n.ver n.id;
          None
        end
      | Inner _ as child -> (
        match go child with
        | None -> None
        | Some (c, (sep', right')) ->
          Nv.begin_write_id n.ver n.id;
          insert_at n i sep' (Inner right');
          (* [right'] is reachable through [n] now: close the split
             child's phase. *)
          Nv.end_write_id c.ver c.id;
          if n.nkeys = t.fanout - 1 then Some (n, split_inner t n)
          else begin
            Nv.end_write_id n.ver n.id;
            None
          end))
  in
  match go t.root with
  | None -> ()
  | Some (c, (sep', right')) ->
    let old_root = t.root in
    let root = make_inner t in
    root.nkeys <- 1;
    root.keys.(0) <- sep';
    root.children.(0) <- old_root;
    root.children.(1) <- Inner right';
    (* The swap changes which keys are reachable from the root
       pointer, and the pointer has no parent cell to invalidate
       through: bump [root_ver] around it so a reader that loaded the
       old root just before the swap fails validation instead of
       resolving keys above [sep'] against the detached pre-split
       root. *)
    if !regression_root_ver_hole then t.root <- Inner root
    else begin
      Nv.begin_write_id t.root_ver 0;
      t.root <- Inner root;
      Nv.end_write_id t.root_ver 0
    end;
    Nv.end_write_id c.ver c.id;
    if Obs.Gate.enabled () then Obs.Flight.root_swap ~dir:Obs.Flight.root_grow

let remove_at n pos =
  (* Remove children.(pos) and the separator adjacent to it. *)
  let kpos = if pos = 0 then 0 else pos - 1 in
  Array.blit n.keys (kpos + 1) n.keys kpos (n.nkeys - 1 - kpos);
  Array.blit n.children (pos + 1) n.children pos (n.nkeys - pos);
  n.nkeys <- n.nkeys - 1;
  (* Drop the stale trailing reference so DRAM is not retained. *)
  n.children.(n.nkeys + 1) <- Leaf (leaf_ref (-1))

(** Unlink the leaf responsible for [key] from the inner structure
    (the leaf became empty and is being deleted).  Empty inner nodes
    are removed on the way up; no underflow rebalancing is attempted,
    matching the paper's physical-operation granularity.  Run under
    the writer lock; the single modified ancestor's version is
    bumped — every root→leaf path to the dying subtree passes through
    it, so any reader still holding a reference is invalidated. *)
let remove_leaf t cmp key =
  let rec go node =
    (* Returns true if [node] ended up with zero children. *)
    match node with
    | Leaf _ -> assert false
    | Inner n -> (
      let i = child_index cmp n key in
      match n.children.(i) with
      | Leaf _ ->
        if n.nkeys = 0 then (* single-child node: removing empties it *)
          true
        else begin
          Nv.begin_write_id n.ver n.id;
          remove_at n i;
          Nv.end_write_id n.ver n.id;
          false
        end
      | Inner _ as child ->
        if go child then
          if n.nkeys = 0 then true
          else begin
            Nv.begin_write_id n.ver n.id;
            remove_at n i;
            Nv.end_write_id n.ver n.id;
            false
          end
        else false)
  in
  if go t.root then begin
    (* The whole tree emptied; keep an empty root. *)
    match t.root with
    | Inner n ->
      Nv.begin_write_id n.ver n.id;
      n.nkeys <- 0;
      Nv.end_write_id n.ver n.id
    | Leaf _ -> assert false
  end;
  (* Collapse a root holding a single inner child.  Unlike a root
     split, this swap does not change reachability — the old root is a
     single-child inner routing every key into the new root — so a
     reader still descending through the old root sees a consistent
     current view and no [root_ver] bump is needed.  (Should the tree
     later grow a new root above [c], that swap bumps [root_ver] and
     invalidates any reader still holding the stale pointer.) *)
  match t.root with
  | Inner n when n.nkeys = 0 -> (
    match n.children.(0) with
    | Inner _ as c ->
      t.root <- c;
      if Obs.Gate.enabled () then
        Obs.Flight.root_swap ~dir:Obs.Flight.root_collapse
    | Leaf _ -> ())
  | _ -> ()

(* ---- bulk rebuild (recovery, Algorithm 9 / RebuildInnerNodes) ---- *)

(** Rebuild the inner structure from the leaves in key order, given
    each leaf's greatest key.  Nodes are packed to ~[fill] of fanout.
    Single-threaded (recovery): fresh version cells, no bumps. *)
let rebuild ~fanout ~dummy_key ?(fill = 0.85) (leaves : ('k * leaf_ref) array) =
  let t =
    { fanout; dummy_key; root = Leaf (leaf_ref (-1)); root_ver = Nv.fresh () }
  in
  let n_leaves = Array.length leaves in
  if n_leaves = 0 then invalid_arg "Inner.rebuild: no leaves";
  let per_node = max 2 (min fanout (int_of_float (float_of_int fanout *. fill))) in
  (* level: array of (max key, node) *)
  let level =
    Array.map (fun (k, l) -> (k, Leaf l)) leaves
  in
  let rec build level =
    if Array.length level = 1 then snd level.(0)
    else begin
      let n = Array.length level in
      let groups = (n + per_node - 1) / per_node in
      let next =
        Array.init groups (fun g ->
            let base = g * per_node in
            let cnt = min per_node (n - base) in
            let node = make_inner t in
            node.nkeys <- cnt - 1;
            for i = 0 to cnt - 1 do
              node.children.(i) <- snd level.(base + i);
              if i < cnt - 1 then node.keys.(i) <- fst level.(base + i)
            done;
            (fst level.(base + cnt - 1), Inner node))
      in
      build next
    end
  in
  let root =
    match build level with
    | Inner _ as r -> r
    | Leaf _ as l ->
      (* Single leaf: wrap in a root so the shape invariant holds. *)
      let node = make_inner t in
      node.children.(0) <- l;
      Inner node
  in
  t.root <- root;
  t

(* ---- introspection ---- *)

let rec node_count = function
  | Leaf _ -> 0
  | Inner n ->
    let c = ref 1 in
    for i = 0 to n.nkeys do
      c := !c + node_count n.children.(i)
    done;
    !c

let inner_node_count t = node_count t.root

let rec height = function
  | Leaf _ -> 0
  | Inner n -> 1 + height n.children.(0)

(** Approximate DRAM footprint in bytes; [key_bytes] sizes one key. *)
let dram_bytes t ~key_bytes =
  let per_node = ((t.fanout - 1) * key_bytes) + (t.fanout * 8) + 24 in
  inner_node_count t * per_node

(** All leaves in key order, via the inner structure. *)
let iter_leaves t f =
  let rec go = function
    | Leaf l -> f l
    | Inner n ->
      for i = 0 to n.nkeys do
        go n.children.(i)
      done
  in
  go t.root
