(** Transient inner nodes (Selective Persistence, Section 4.1).

    Inner nodes live in DRAM as classical sorted main-memory B+-Tree
    nodes and are rebuilt from the leaf linked list on recovery.
    Separator [i] is the greatest key reachable through [children.(i)]
    (the discriminator recovery extracts from each leaf), so search
    descends into the first child whose separator is >= the probe.

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

    The structure is parametric in the key type.  The tree's descents
    and structural updates take the key representation's [search]
    ({!Keys.KEY.search}: one indirect call per level, its compares
    inline); a comparison is passed only where one pair is compared,
    and by the generic {!find_leaf}/{!find_leaf_rs} walk kept for
    callers that hold nothing else.

    {b Separators.}  A node's {!repr} says how it holds them.  [Plain]
    (fixed keys): [keys.(i)] is separator [i].  [Anchored] (string
    keys): the separators' longest common prefix once, in [prefix],
    one {!Anchor} int per separator in [anchors], and in [keys.(i)]
    the full key of a separator whose suffix is longer than seven
    bytes, [""] for every other slot.  The form is canonical: it is a
    function of the separators alone, so an insert that breaks the
    prefix, or a removal of the first or last separator, re-encodes
    the node, and {!check} can recompute it.  Whoever needs separator
    [i] itself (a split, the root a split grows, the range scan's
    upper bound, the invariant check) rebuilds it with {!key}. *)

module Nv = Htm.Node_versions
module Sched = Htm.Sched

type leaf_ref = {
  off : int;                 (** leaf payload offset inside the tree's region *)
  lock : bool Sched.atom;    (** volatile leaf lock (never persisted) *)
  ver : Nv.cell;             (** the leaf's version word (content + liveness) *)
}

let leaf_ref off = { off; lock = Sched.make false; ver = Nv.fresh () }

type _ repr = Plain : 'k repr | Anchored : string repr

type 'k node = Inner of 'k inner | Leaf of leaf_ref

and 'k inner = {
  mutable nkeys : int;
  repr : 'k repr;
  mutable prefix : string;   (* Anchored: the separators' common prefix *)
  anchors : int array;       (* Anchored: capacity fanout - 1; Plain: [||] *)
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
  repr : 'k repr;
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

let make_inner : type k. k t -> k inner =
 fun t ->
  {
    nkeys = 0;
    repr = t.repr;
    prefix = "";
    anchors =
      (match t.repr with
      | Plain -> [||]
      | Anchored -> Array.make (t.fanout - 1) 0);
    keys = Array.make (t.fanout - 1) t.dummy_key;
    children = Array.make t.fanout (Leaf (leaf_ref (-1)));
    ver = Nv.fresh ();
    id = fresh_inner_id ();
  }

let create ~fanout ~dummy_key ~repr first_leaf =
  if fanout < 2 then invalid_arg "Inner.create: fanout must be >= 2";
  let t =
    { fanout; dummy_key; repr; root = Leaf first_leaf; root_ver = Nv.fresh () }
  in
  let root = make_inner t in
  root.children.(0) <- Leaf first_leaf;
  t.root <- Inner root;
  t

(* [search n key]: the first index i in [0, n.nkeys) with
   key <= separator i, nkeys if none ([Keys.KEY.search]). *)
type 'k search = 'k inner -> 'k -> int

(** Separator [i] of [n] (an anchored node rebuilds a short one from
    the prefix and its anchor, a fresh string). *)
let[@inline] key : type k. k inner -> int -> k =
 fun n i ->
  match n.repr with
  | Plain -> n.keys.(i)
  | Anchored ->
    let a = n.anchors.(i) in
    if Anchor.is_long a then n.keys.(i) else Anchor.key n.prefix a

(** [cmp key (key n i) = 0], without building separator [i]. *)
let equal_at : type k. (k -> k -> int) -> k inner -> int -> k -> bool =
 fun cmp n i k ->
  match n.repr with
  | Plain -> cmp k n.keys.(i) = 0
  | Anchored -> Anchor.equal n.prefix n.anchors.(i) n.keys.(i) k

(** The child to descend into: the first index i in [0, nkeys) with
    key <= separator i, nkeys if none, found through [cmp] on the
    separators {!key} gives — the generic form of [search n key], and
    its reference.  (A top-level recursive function over plain
    arguments: without flambda a local [let rec] capturing
    [cmp]/[n]/[key] would be a minor-heap allocation per call.) *)
let rec bsearch cmp (n : 'k inner) k lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if cmp k (key n mid) <= 0 then bsearch cmp n k lo mid
    else bsearch cmp n k (mid + 1) hi

let child_index cmp (n : 'k inner) k = bsearch cmp n k 0 n.nkeys

(* The generic walk's child choice: [child_index cmp] on a plain node
   (no separator is built there), the anchored search on an anchored
   one, which picks the same child under [String.compare] without
   allocating. *)
let index : type k. (k -> k -> int) -> k inner -> k -> int =
 fun cmp n k ->
  match n.repr with
  | Plain -> child_index cmp n k
  | Anchored -> Anchor.search n.prefix n.anchors n.keys n.nkeys k

(** Descend to the leaf responsible for [key]. *)
let rec descend search node key =
  match node with
  | Leaf l -> l
  | Inner n -> descend search n.children.(search n key) key

(* Node-level descent shared by the [_rs] entry points below; the
   caller must already have observed the cell guarding [node] (the
   parent's cell, or [root_ver] for the root). *)
let rec descend_node_rs rs search node key =
  match node with
  | Leaf l -> l
  | Inner n ->
    Nv.observe_id rs n.ver n.id;
    descend_node_rs rs search n.children.(search n key) key

(** {!descend} for speculative sections: observes [t.root_ver] before
    dereferencing the root pointer, then each inner node's version
    {e before} reading its fields, so commit-time validation fails iff
    a writer modified a node on this path — or swapped the root out
    from under it.  Allocation-free.
    @raise Nv.Conflict when a writer is inside a node on the path. *)
let descend_rs rs search t key =
  Nv.observe_id rs t.root_ver 0;
  descend_node_rs rs search t.root key

(* The same two descents choosing children through [index cmp]. *)
let rec find_leaf cmp node key =
  match node with
  | Leaf l -> l
  | Inner n -> find_leaf cmp n.children.(index cmp n key) key

let rec find_node_rs rs cmp node key =
  match node with
  | Leaf l -> l
  | Inner n ->
    Nv.observe_id rs n.ver n.id;
    find_node_rs rs cmp n.children.(index cmp n key) key

let find_leaf_rs rs cmp t key =
  Nv.observe_id rs t.root_ver 0;
  find_node_rs rs cmp t.root key

type 'k upper = {
  mutable key : 'k;
  mutable bounded : bool;
  mutable parent : 'k node;
}

let no_leaf = leaf_ref (-1)
let upper key = { key; bounded = false; parent = Leaf no_leaf }

(* One level of a bounded descent: the child for [key] (with [above],
   for the keys just above [key]: keys are unique within a node, so
   that is the next child when [key] is itself a separator here),
   with [node] recorded as the leaf's parent and the child's key as
   the upper bound when there is one.  The deepest level gives the
   tightest bound and the parent, so each level overwrites the last. *)
let upper_index search cmp node n k above u =
  let i = search n k in
  let i = if above && i < n.nkeys && equal_at cmp n i k then i + 1 else i in
  if i < n.nkeys then begin
    u.key <- key n i;
    u.bounded <- true
  end;
  u.parent <- node;
  i

let rec upper_node_rs rs search cmp node key above u =
  match node with
  | Leaf l -> l
  | Inner n ->
    Nv.observe_id rs n.ver n.id;
    upper_node_rs rs search cmp
      n.children.(upper_index search cmp node n key above u) key above u

(* The leaf just above [key] through the parent [u] recorded, when
   [key] is one of that parent's separators and not its last: the next
   child then routes the keys above [key] up to the next separator,
   whatever changed since, and however the parent was reached (a
   failed attempt's torn descent may record any node).  A node holding
   keys is attached (only an emptied node is unlinked) and its keys lie
   inside its routing range.  [no_leaf] otherwise. *)
let sibling_rs rs search cmp key u =
  match u.parent with
  | Leaf _ -> no_leaf
  | Inner n as node -> (
    Nv.observe_id rs n.ver n.id;
    let i = upper_index search cmp node n key true u in
    if i = 0 || i >= n.nkeys || not (equal_at cmp n (i - 1) key) then no_leaf
    else match n.children.(i) with Leaf l -> l | Inner _ -> no_leaf)

let find_leaf_upper_rs rs search cmp t key ~above u =
  let l = if above then sibling_rs rs search cmp key u else no_leaf in
  if l != no_leaf then l
  else begin
    Nv.observe_id rs t.root_ver 0;
    u.bounded <- false;
    upper_node_rs rs search cmp t.root key above u
  end

let rec rightmost_leaf_rs rs = function
  | Leaf l -> l
  | Inner n ->
    Nv.observe_id rs n.ver n.id;
    rightmost_leaf_rs rs n.children.(n.nkeys)

(* The leaf for [key] and the leaf immediately to its left in key
   order, if any (FindLeafAndPrevLeaf): each inner node on the path is
   observed before it is read, then the left subtree's rightmost path.
   [left] is the nearest subtree to the left of the path so far,
   meaningful only when [has_left].  Top level over plain arguments
   (see {!bsearch}): a local [let rec], a [Some] per level or an
   [Option.map] partial application would each allocate on every
   delete. *)
let rec leaf_and_prev_rs rs search node key left has_left =
  match node with
  | Leaf l -> (l, if has_left then Some (rightmost_leaf_rs rs left) else None)
  | Inner n ->
    Nv.observe_id rs n.ver n.id;
    let i = search n key in
    if i > 0 then
      leaf_and_prev_rs rs search n.children.(i) key n.children.(i - 1) true
    else leaf_and_prev_rs rs search n.children.(i) key left has_left

let find_leaf_and_prev_rs rs search t key =
  Nv.observe_id rs t.root_ver 0;
  let root = t.root in
  leaf_and_prev_rs rs search root key root false

(* ---- structural updates (run under the writer lock) ---- *)

(* Store the ascending separators [ks] into the anchored node [n] in
   canonical form: their common prefix (that of the first and the
   last), one anchor each, a long separator's full key, and [""] in
   every other key slot, junk slots included, so no stale key stays
   reachable.  The caller sets [nkeys]. *)
let encode_all (n : string inner) ks =
  let cnt = Array.length ks in
  let p =
    if cnt = 0 then ""
    else
      let l = Anchor.lcp ks.(0) ks.(cnt - 1) in
      if l = String.length ks.(0) then ks.(0) else String.sub ks.(0) 0 l
  in
  let pl = String.length p in
  Array.iteri
    (fun i k ->
      let a = Anchor.encode k pl in
      n.anchors.(i) <- a;
      n.keys.(i) <- (if Anchor.is_long a then k else ""))
    ks;
  Array.fill n.keys cnt (Array.length n.keys - cnt) "";
  n.prefix <- p

(* Separators [0, cnt) of [n], built. *)
let separators n cnt = Array.init cnt (key n)

(** Make the ascending [ks] the separators of [n] ([nkeys] included);
    its children are the caller's. *)
let set_keys : type k. k inner -> k array -> unit =
 fun n ks ->
  (match n.repr with
  | Plain -> Array.blit ks 0 n.keys 0 (Array.length ks)
  | Anchored -> encode_all n ks);
  n.nkeys <- Array.length ks

(* Insert (key, right) just after [pos] in [n]; caller guarantees room.
   Array.blit (memmove) rather than an element loop: nodes hold up to
   fanout - 1 = 4096 keys, and a split shifts half of them on average,
   so this is the dominant cost of propagating a leaf split upward.
   An anchored node shifts its anchors alongside; a key outside its
   prefix (or a first key) shortens the prefix, and the node is then
   re-encoded from its built separators. *)
let insert_at : type k. k inner -> int -> k -> k node -> unit =
 fun n pos k right ->
  let cnt = n.nkeys in
  (match n.repr with
  | Plain ->
    Array.blit n.keys pos n.keys (pos + 1) (cnt - pos);
    n.keys.(pos) <- k
  | Anchored ->
    let pl = String.length n.prefix in
    if cnt > 0 && Anchor.lcp n.prefix k = pl then begin
      Array.blit n.anchors pos n.anchors (pos + 1) (cnt - pos);
      Array.blit n.keys pos n.keys (pos + 1) (cnt - pos);
      let a = Anchor.encode k pl in
      n.anchors.(pos) <- a;
      n.keys.(pos) <- (if Anchor.is_long a then k else "")
    end
    else
      encode_all n
        (Array.init (cnt + 1) (fun i ->
             if i < pos then key n i
             else if i = pos then k
             else key n (i - 1))));
  Array.blit n.children (pos + 1) n.children (pos + 2) (cnt - pos);
  n.children.(pos + 1) <- right;
  n.nkeys <- cnt + 1

(* Split a full inner node into (left = n, sep, right).  Each anchored
   half is re-encoded: its prefix can only lengthen. *)
let split_inner : type k. k t -> k inner -> k * k inner =
 fun t n ->
  let cnt = n.nkeys in
  let mid = cnt / 2 in
  let right = make_inner t in
  let moved = cnt - mid - 1 in
  Array.blit n.children (mid + 1) right.children 0 (moved + 1);
  let sep =
    match n.repr with
    | Plain ->
      let sep = n.keys.(mid) in
      Array.blit n.keys (mid + 1) right.keys 0 moved;
      (* Drop stale references so DRAM is not retained by junk slots. *)
      for i = mid to cnt - 1 do
        n.keys.(i) <- t.dummy_key
      done;
      sep
    | Anchored ->
      let ks = separators n cnt in
      encode_all right (Array.sub ks (mid + 1) moved);
      encode_all n (Array.sub ks 0 mid);
      ks.(mid)
  in
  right.nkeys <- moved;
  for i = mid + 1 to cnt do
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
let update_parents t search ~sep ~right =
  let right_node = Leaf right in
  let rec go node =
    (* Returns Some (n, sep', right') if [node = Inner n] split; [n]'s
       write phase is then still open and the caller closes it once the
       parent references [right']. *)
    match node with
    | Leaf _ -> assert false
    | Inner n -> (
      let i = search n sep in
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
    root.children.(0) <- old_root;
    insert_at root 0 sep' (Inner right');
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

(* Remove children.(pos) and the separator adjacent to it.  Removing
   an anchored node's first or last separator can lengthen its
   prefix: the node is then re-encoded from its built separators. *)
let remove_at : type k. k inner -> int -> unit =
 fun n pos ->
  let cnt = n.nkeys in
  let kpos = if pos = 0 then 0 else pos - 1 in
  let rest = cnt - 1 in
  (match n.repr with
  | Plain -> Array.blit n.keys (kpos + 1) n.keys kpos (rest - kpos)
  | Anchored ->
    let old i = if i < kpos then i else i + 1 in
    let kept =
      rest > 0
      && ((kpos > 0 && kpos < rest)
         || Anchor.lcp (key n (old 0)) (key n (old (rest - 1)))
            = String.length n.prefix)
    in
    if kept then begin
      Array.blit n.anchors (kpos + 1) n.anchors kpos (rest - kpos);
      Array.blit n.keys (kpos + 1) n.keys kpos (rest - kpos);
      n.keys.(rest) <- ""
    end
    else encode_all n (Array.init rest (fun i -> key n (old i))));
  Array.blit n.children (pos + 1) n.children pos (cnt - pos);
  n.nkeys <- rest;
  (* Drop the stale trailing reference so DRAM is not retained. *)
  n.children.(rest + 1) <- Leaf (leaf_ref (-1))

(** Unlink the leaf responsible for [key] from the inner structure
    (the leaf became empty and is being deleted).  Empty inner nodes
    are removed on the way up; no underflow rebalancing is attempted,
    matching the paper's physical-operation granularity.  Run under
    the writer lock; the single modified ancestor's version is
    bumped — every root→leaf path to the dying subtree passes through
    it, so any reader still holding a reference is invalidated. *)
let remove_leaf t search key =
  let rec go node =
    (* Returns true if [node] ended up with zero children. *)
    match node with
    | Leaf _ -> assert false
    | Inner n -> (
      let i = search n key in
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
let rebuild ~fanout ~dummy_key ~repr ?(fill = 0.85)
    (leaves : ('k * leaf_ref) array) =
  let t =
    { fanout; dummy_key; repr; root = Leaf (leaf_ref (-1));
      root_ver = Nv.fresh () }
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
            for i = 0 to cnt - 1 do
              node.children.(i) <- snd level.(base + i)
            done;
            set_keys node
              (Array.init (cnt - 1) (fun i -> fst level.(base + i)));
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

let rec fold_nodes f acc = function
  | Leaf _ -> acc
  | Inner n ->
    let acc = ref (f acc n) in
    for i = 0 to n.nkeys do
      acc := fold_nodes f !acc n.children.(i)
    done;
    !acc

let inner_node_count t = fold_nodes (fun c _ -> c + 1) 0 t.root

let rec height = function
  | Leaf _ -> 0
  | Inner n -> 1 + height n.children.(0)

(* One node's share of {!dram_bytes}. *)
let node_bytes : type k. k t -> (k -> int) -> k inner -> int =
 fun t key_bytes n ->
  let shape = 24 + (8 * Array.length n.children) in
  match n.repr with
  | Plain -> shape + (Array.length n.keys * key_bytes t.dummy_key)
  | Anchored ->
    let b =
      ref (shape + (8 * (Array.length n.anchors + Array.length n.keys))
           + key_bytes n.prefix)
    in
    for i = 0 to n.nkeys - 1 do
      if Anchor.is_long n.anchors.(i) then b := !b + key_bytes n.keys.(i)
    done;
    !b

(** DRAM footprint in bytes, summed over the nodes (see inner.mli). *)
let dram_bytes t ~key_bytes =
  fold_nodes (fun b n -> b + node_bytes t key_bytes n) 0 t.root

(* [n]'s separators ascend under [cmp], and an anchored [n] equals the
   canonical form of them, rebuilt in a scratch copy. *)
let check_node : type k. (k -> k -> int) -> k inner -> unit =
 fun cmp n ->
  let ks = separators n n.nkeys in
  for i = 1 to n.nkeys - 1 do
    if cmp ks.(i - 1) ks.(i) >= 0 then
      failwith "invariant: inner separators not ascending"
  done;
  match n.repr with
  | Plain -> ()
  | Anchored ->
    let c =
      { n with anchors = Array.make (Array.length n.anchors) 0;
               keys = Array.make (Array.length n.keys) "" }
    in
    encode_all c ks;
    if not (String.equal c.prefix n.prefix
            && Array.for_all2 String.equal c.keys n.keys
            && Array.sub c.anchors 0 n.nkeys = Array.sub n.anchors 0 n.nkeys)
    then failwith "invariant: anchored node not in canonical form"

let check cmp t = fold_nodes (fun () n -> check_node cmp n) () t.root
