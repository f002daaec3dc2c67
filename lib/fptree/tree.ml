(** The Fingerprinting Persistent Tree (Sections 4 and 5).

    Functor over the key representation ({!Keys.KEY}); instantiations:
    {!Fixed} (8-byte integer keys), {!Var} (string keys, Appendix C),
    and the {!Ptree} configurations (no fingerprints, split key/value
    arrays).

    One [Tree.Make(K).t] is both the single-threaded FPTree (configure
    [use_groups = true], one micro-log of each kind) and the concurrent
    FPTreeC (configure [use_groups = false], a pool of micro-logs): the
    operations always follow the Selective Concurrency protocol of
    Section 4.4 — traversal and leaf-lock acquisition inside a
    speculative (HTM-emulating) transaction, persistent leaf mutation
    outside it under the leaf lock, inner-node updates inside a writer
    transaction — which degrades to negligible overhead when run by a
    single thread. *)

module Spec = Htm.Speculative_lock
module Nv = Htm.Node_versions
module Sched = Htm.Sched
module Region = Scm.Region
module Pptr = Pmem.Pptr

module D = Descriptor

type config = D.config = {
  m : int;
  value_bytes : int;
  inner_keys : int;
  fingerprints : bool;
  split_arrays : bool;
  use_groups : bool;
  group_size : int;
  n_split_logs : int;
  n_delete_logs : int;
  htm_retries : int;
  htm_backoff : int;
  checksums : bool;
}

(** Single-threaded FPTree defaults (Table 1: leaf 56).  The paper's
    inner nodes hold 4096 keys — sized for C++ where inserting into a
    sorted node is one [memmove].  In OCaml, [Array.blit] on a
    major-heap node runs a GC write barrier per element, so each leaf
    split pays ~2 barrier calls per shifted slot and 4096-wide nodes
    make the inner shift the dominant cost of a split (measured ~12us
    of a ~20us split at 4096 keys vs ~1.5us at 512).  The default is
    therefore 512 keys — 4 KB of key material, the paper's inner-node
    *byte* size — and Table 1's entry count remains available via
    [~inner_keys:4096]. *)
let fptree_config =
  { m = 56; value_bytes = 8; inner_keys = 512; fingerprints = true;
    split_arrays = false; use_groups = true; group_size = 8;
    n_split_logs = 1; n_delete_logs = 1; htm_retries = 8;
    htm_backoff = 1024; checksums = false }

(** Concurrent FPTree defaults (Table 1: leaf 64, inner 128; no leaf
    groups — they are a central synchronization point). *)
let fptree_concurrent_config =
  { fptree_config with m = 64; inner_keys = 128; use_groups = false;
    n_split_logs = 56; n_delete_logs = 56 }

(** PTree: selective persistence + unsorted leaves only (Table 1:
    leaf 32; inner width tuned as above), keys and values in separate
    arrays. *)
let ptree_config =
  { fptree_config with m = 32; fingerprints = false; split_arrays = true;
    use_groups = false }

type stats = {
  mutable key_probes : int;  (** in-leaf key comparisons (Figure 4) *)
  mutable finds : int;
  mutable inserts : int;
  mutable updates : int;
  mutable deletes : int;
  mutable leaf_splits : int;
  mutable leaf_deletes : int;
}

module Make (K : Keys.KEY) = struct
  type key = K.t

  let name = if K.inline then "FPTree" else "FPTreeVar"

  type t = {
    ctx : Keys.ctx;
    layout : Layout.t;
    config : config;
    meta : int; (* offset of the persistent tree descriptor *)
    spec : Spec.t;
    mutable inner : K.t Inner.t;
    split_logs : Microlog.Pool.t;
    delete_logs : Microlog.Pool.t;
    groups : Leaf_groups.t;
    (* scratch for find_split_key (single-threaded mode only: concurrent
       splits of distinct leaves may overlap, so they allocate fresh) *)
    scratch_keys : K.t array;
    scratch_slots : int array;
    stats : stats;
    (* leaves that failed checksum validation during recovery: spliced
       out of the chain but kept allocated for offline salvage *)
    mutable quarantined : int list;
    (* capacity state: set on the first refused admission, cleared when
       an allocating op is admitted again (flight events bracket the
       transitions) *)
    mutable degraded : bool;
  }

  let region t = t.ctx.Keys.region
  (* Shared-record stat writes ping-pong cache lines between domains;
     skip them when the simulator's counting is off (parallel runs). *)
  let stats_on () = Scm.Config.current.Scm.Config.stats

  let alloc t = t.ctx.Keys.alloc

  let read_head t = Pptr.read (region t) (t.meta + D.meta_head)
  let write_head t p = D.write_anchor (region t) (t.meta + D.meta_head) p

  let pptr_of t off = Pptr.of_region (region t) ~off

  (* ---- leaf accessors ---- *)

  let leaf_bitmap t leaf = Layout.read_bitmap (region t) ~leaf t.layout
  let leaf_next t leaf = Layout.read_next (region t) ~leaf t.layout

  (* Refresh the leaf's integrity cell after a committed mutation; free
     when checksums are off (one field test). *)
  let[@inline] refresh_csum t leaf =
    if t.layout.Layout.checksums then
      Layout.write_checksum (region t) ~leaf t.layout

  let leaf_is_full t leaf =
    Layout.bitmap_is_full t.layout (leaf_bitmap t leaf)

  let key_cell t leaf slot = Layout.key_off t.layout ~leaf ~slot
  let value_cell t leaf slot = Layout.value_off t.layout ~leaf ~slot

  let read_value t leaf slot =
    Region.read_word (region t) (value_cell t leaf slot)

  let read_key t leaf slot = K.read t.ctx ~off:(key_cell t leaf slot)

  (* Exact SWAR zero-byte detector over a 4-lane 32-bit word: bit
     [8i + 7] of the result is set iff byte [i] of [y] is zero.  (The
     classic [(v - ONES) land (lnot v) land HIGHS] trick has cross-lane
     false positives — e.g. 0x0100 — which would inflate the key-probe
     counter; this formula is exact.) *)
  let[@inline] zero_byte_mask32 y =
    lnot (((y land 0x7f7f7f7f) + 0x7f7f7f7f) lor y lor 0x7f7f7f7f)
    land 0x80808080

  (* Spread bitmap nibble bits 0..3 onto the per-lane high-bit
     positions 7, 15, 23, 31. *)
  let[@inline] spread4 b =
    ((b land 1) * 0x80)
    lor ((b land 2) * 0x4000)
    lor ((b land 4) * 0x200000)
    lor ((b land 8) * 0x10000000)

  (** Find the slot holding [k], or [-1]: scan the fingerprints first,
      probe keys only on a fingerprint hit (Algorithm 1's inner loop).
      The fingerprint array occupies the first cache-line-sized piece
      of the leaf by design, so the scan touches one line.  Fingerprint
      bytes are compared four at a time with a SWAR XOR trick instead
      of byte-at-a-time extraction; 32-bit halves (not 64-bit words)
      because OCaml ints are 63-bit and would truncate lane 7.
      Candidates are taken lowest-slot-first, so the sequence of key
      probes — and hence the instrumented [key_probes] counter — is
      identical to a linear scan.  Returns an [int] rather than an
      option: this is the hot path of every operation and must not
      allocate. *)
  (* The scan loops are top-level recursive functions over explicit
     arguments, not local [let rec]s: a local recursive function that
     captures its environment is a minor-heap closure allocation per
     call without flambda, and this is the innermost hot loop. *)
  (* [bm] arrives pre-shifted: the nibble for half-word [hw] sits at
     its low 4 bits, so the scan terminates at the top occupied nibble
     (bm = 0) and skips unoccupied nibbles without loading their
     fingerprint word.  Neither shortcut changes the probe sequence or
     the lines touched: skipped words have no candidate slots, and the
     fingerprint array shares its cache line(s) with the bitmap word
     already read by [find_slot]. *)
  let rec fp_scan t leaf k h bm hw =
    if bm = 0 then -1
    else
      let nib = spread4 (bm land 0xF) in
      if nib = 0 then fp_scan t leaf k h (bm lsr 4) (hw + 1)
      else
        let w =
          Region.read_u32 (region t) (leaf + t.layout.Layout.fp_off + (hw * 4))
        in
        fp_probe t leaf k h bm hw
          (zero_byte_mask32 (w lxor (h * 0x01010101)) land nib)

  and fp_probe t leaf k h bm hw cand =
    if cand = 0 then fp_scan t leaf k h (bm lsr 4) (hw + 1)
    else begin
      let bit = cand land -cand in
      let lane =
        if bit = 0x80 then 0
        else if bit = 0x8000 then 1
        else if bit = 0x800000 then 2
        else 3
      in
      let s = (hw * 4) + lane in
      if stats_on () then t.stats.key_probes <- t.stats.key_probes + 1;
      if K.matches t.ctx ~off:(key_cell t leaf s) k then s
      else fp_probe t leaf k h bm hw (cand lxor bit)
    end

  let rec lin_scan t leaf k bm s =
    if s >= t.layout.Layout.m then -1
    else if bm land (1 lsl s) <> 0 then begin
      if stats_on () then t.stats.key_probes <- t.stats.key_probes + 1;
      if K.matches t.ctx ~off:(key_cell t leaf s) k then s
      else lin_scan t leaf k bm (s + 1)
    end
    else lin_scan t leaf k bm (s + 1)

  let find_slot_raw t leaf k h =
    let bm = leaf_bitmap t leaf in
    if bm = 0 then -1
    else if t.layout.Layout.fingerprints then
      (* slots >= m can never be candidates *)
      fp_scan t leaf k h (bm land Layout.full_mask t.layout) 0
    else lin_scan t leaf k bm 0

  (* Instrumented: per-search probe count goes to the Fig. 4 histogram
     (the delta of [key_probes], so totals stay byte-identical to the
     uninstrumented counter trace), and probes beyond the matching one
     are fingerprint false positives. *)
  let find_slot t leaf k h =
    if not (stats_on ()) then find_slot_raw t leaf k h
    else begin
      let p0 = t.stats.key_probes in
      let s = find_slot_raw t leaf k h in
      let probes = t.stats.key_probes - p0 in
      Obs.Histogram.record Metrics.probes_per_search probes;
      let fp = if s >= 0 then probes - 1 else probes in
      if fp > 0 then Obs.Counter.add Metrics.fp_false_positives fp;
      s
    end

  (** Write entry [k, v] into free slot [slot] and persist it; the entry
      stays invisible until the bitmap is committed (Algorithm 2,
      lines 12–15 / Algorithm 14, lines 12–18). *)
  let write_entry t leaf slot k v h =
    let r = region t in
    let koff = key_cell t leaf slot in
    let voff = value_cell t leaf slot in
    let sc = Scope.enter Obs.Attrib.comp_kv in
    K.write t.ctx ~off:koff k;
    Region.write_word r voff v;
    if t.layout.Layout.value_bytes > 8 then
      Region.fill r (voff + 8) (t.layout.Layout.value_bytes - 8) '\000';
    (if t.layout.Layout.split_arrays then begin
       if K.inline then Scope.persist_in_scope r koff K.cell_bytes;
       Scope.persist_in_scope r voff t.layout.Layout.value_bytes
     end
     else if K.inline then
       Scope.persist_in_scope r koff (K.cell_bytes + t.layout.Layout.value_bytes)
     else Scope.persist_in_scope r voff t.layout.Layout.value_bytes);
    Scope.leave sc;
    if t.layout.Layout.fingerprints then begin
      Layout.write_fp r ~leaf t.layout slot h;
      Layout.persist_fp r ~leaf t.layout slot
    end

  (* ---- leaf locks and version phases ({!Leaf_lock}) ---- *)

  let try_lock t l = Leaf_lock.try_lock (region t) l
  let unlock t l = Leaf_lock.unlock (region t) l
  let ver_begin t l = Leaf_lock.ver_begin (region t) l
  let ver_end t l = Leaf_lock.ver_end (region t) l

  (* ---- leaf split (Algorithm 3) ---- *)

  (* Indices are always within [0, n) with n <= the scratch length, so
     the bounds checks are dead weight on the split path. *)
  let swap2 keys aux i j =
    let k = Array.unsafe_get keys i in
    Array.unsafe_set keys i (Array.unsafe_get keys j);
    Array.unsafe_set keys j k;
    let a = Array.unsafe_get aux i in
    Array.unsafe_set aux i (Array.unsafe_get aux j);
    Array.unsafe_set aux j a

  (* Quickselect (median-of-3 + Lomuto) over the parallel arrays: on
     return, keys.(r) is the rank-[r] key, everything left of it is
     smaller and everything right of it larger (keys are unique).  A
     split only needs the median and the upper half, so selection in
     O(n) replaces the full O(n^2) insertion sort — with the indirect
     [K.compare] calls a functor forces, sorting m = 56 keys was the
     single most expensive step of a split.  Median-of-3 keeps the
     common sorted-leaf case (ascending inserts) linear. *)
  let rec select_rank keys aux lo hi r =
    if lo < hi then begin
      let mid = (lo + hi) / 2 in
      if K.compare (Array.unsafe_get keys mid) (Array.unsafe_get keys lo) < 0
      then swap2 keys aux lo mid;
      if K.compare (Array.unsafe_get keys hi) (Array.unsafe_get keys lo) < 0
      then swap2 keys aux lo hi;
      if K.compare (Array.unsafe_get keys hi) (Array.unsafe_get keys mid) < 0
      then swap2 keys aux mid hi;
      (* keys.(mid) holds the median of three; park it at hi as pivot. *)
      swap2 keys aux mid hi;
      let p = Array.unsafe_get keys hi in
      let store = ref lo in
      for i = lo to hi - 1 do
        if K.compare (Array.unsafe_get keys i) p < 0 then begin
          swap2 keys aux i !store;
          incr store
        end
      done;
      swap2 keys aux !store hi;
      let s = !store in
      if r < s then select_rank keys aux lo (s - 1) r
      else if r > s then select_rank keys aux (s + 1) hi r
    end

  (* Median discriminator and the bitmap of entries that move to the
     new (upper) leaf.  Uses the tree's scratch arrays in
     single-threaded mode; concurrent splits of distinct leaves may
     overlap, so they take fresh arrays. *)
  let find_split_key t leaf =
    let bm = leaf_bitmap t leaf in
    let keys, slots =
      if t.config.use_groups then (t.scratch_keys, t.scratch_slots)
      else (Array.make t.layout.Layout.m K.dummy, Array.make t.layout.Layout.m 0)
    in
    let n = ref 0 in
    for s = 0 to t.layout.Layout.m - 1 do
      if bm land (1 lsl s) <> 0 then begin
        Array.unsafe_set keys !n (read_key t leaf s);
        Array.unsafe_set slots !n s;
        incr n
      end
    done;
    let n = !n in
    let r = (n - 1) / 2 in
    select_rank keys slots 0 (n - 1) r;
    let sep = Array.unsafe_get keys r in
    (* Unique keys: after selection, exactly the positions right of the
       median hold the keys strictly greater than [sep]. *)
    let upper = ref 0 in
    for i = r + 1 to n - 1 do
      upper := !upper lor (1 lsl Array.unsafe_get slots i)
    done;
    (sep, !upper)

  (* After the bitmaps partition a split leaf, unset slots in both
     halves still hold byte copies of out-of-line key pointers; the
     recovery leak audit (Algorithm 17) would misread them as orphaned
     allocations and free live keys.  Null them in bulk (a torn null is
     still null) while the split micro-log is armed, so a crash replays
     the clearing. *)
  let clear_stale_cells t leaf =
    if not K.inline then begin
      let bm = leaf_bitmap t leaf in
      let sc = Scope.enter Obs.Attrib.comp_kv in
      for s = 0 to t.layout.Layout.m - 1 do
        if bm land (1 lsl s) = 0 then K.clear_cell t.ctx ~off:(key_cell t leaf s)
      done;
      Scope.persist_in_scope (region t) (leaf + t.layout.Layout.data_off)
        (t.layout.Layout.bytes - t.layout.Layout.data_off);
      Scope.leave sc
    end

  let do_split_steps t ~cur ~fresh =
    let r = region t in
    Layout.copy_leaf r t.layout ~src:cur ~dst:fresh;
    let sep, upper = find_split_key t cur in
    Layout.commit_bitmap r ~leaf:fresh t.layout upper;
    Layout.commit_bitmap r ~leaf:cur t.layout
      (Layout.full_mask t.layout land lnot upper);
    clear_stale_cells t cur;
    clear_stale_cells t fresh;
    Layout.write_next_persist r ~leaf:cur t.layout (pptr_of t fresh);
    refresh_csum t cur;
    refresh_csum t fresh;
    sep

  (** Split the locked full [leaf] persistently and return the
      separator and the new right sibling, not yet in the inner
      structure.  Opens [leaf]'s version phase once the new leaf is
      allocated; the caller closes it after {!Inner.update_parents}.
      No phase is left open when it raises, and on [Out_of_scm]
      nothing is changed. *)
  let split_leaf t (leaf : Inner.leaf_ref) =
    let instrumented = stats_on () in
    let t0 = if instrumented then Obs.Clock.now_us () else 0. in
    if instrumented then t.stats.leaf_splits <- t.stats.leaf_splits + 1;
    let log = Microlog.Pool.acquire t.split_logs in
    Microlog.set_fst log (pptr_of t leaf.Inner.off);
    let fresh =
      match
        if t.config.use_groups then begin
          let l = Leaf_groups.get_leaf t.groups in
          Microlog.set_snd log (pptr_of t l);
          l
        end
        else begin
          Pmem.Palloc.alloc (alloc t) ~into:(Microlog.snd_loc log)
            t.layout.Layout.bytes;
          (Microlog.read_snd log).Pptr.off
        end
      with
      | fresh -> fresh
      | exception Pmem.Palloc.Out_of_scm ->
        (* Exhaustion unwind: the allocator raises before any
           persistent mutation, so the only armed state is this log's
           fst word — reset disarms it and skips the still-null words,
           restoring the exact pre-op bytes (the group log never armed:
           [alloc] raises before writing its destination). *)
        Microlog.reset log;
        Microlog.Pool.release t.split_logs log;
        raise Pmem.Palloc.Out_of_scm
    in
    (* [leaf] changes only from here on: opening its phase after the
       allocation keeps readers of the leaf out of the allocator's
       critical section.  An exception past this point (an injected
       crash at a persist) closes the phase again, so callers unwind
       the same way whatever failed. *)
    ver_begin t leaf;
    match
      let sep = do_split_steps t ~cur:leaf.Inner.off ~fresh in
      Microlog.reset log;
      Microlog.Pool.release t.split_logs log;
      sep
    with
    | exception e ->
      ver_end t leaf;
      raise e
    | sep ->
      if instrumented then
        Obs.Histogram.record Metrics.split_us
          (int_of_float (Obs.Clock.now_us () -. t0));
      if Obs.Gate.enabled () then
        Obs.Flight.split ~left:leaf.Inner.off ~right:fresh;
      (sep, Inner.leaf_ref fresh)

  let recover_split t log =
    if not (Microlog.is_idle log) then begin
      let cur = (Microlog.read_fst log).Pptr.off in
      let snd = Microlog.read_snd log in
      if Pptr.is_null snd then
        (* Crashed before the new leaf was obtained: roll back. *)
        Microlog.reset log
      else begin
        let fresh = snd.Pptr.off in
        let r = region t in
        if Layout.bitmap_is_full t.layout (leaf_bitmap t cur) then
          (* Crashed before the split leaf's bitmap shrank: redo the
             split from the copy phase (Algorithm 4, SplitLeaf:6). *)
          ignore (do_split_steps t ~cur ~fresh)
        else begin
          (* Crashed after the bitmap update: redo from SplitLeaf:11. *)
          let upper = leaf_bitmap t fresh in
          Layout.commit_bitmap r ~leaf:cur t.layout
            (Layout.full_mask t.layout land lnot upper);
          clear_stale_cells t cur;
          clear_stale_cells t fresh;
          Layout.write_next_persist r ~leaf:cur t.layout (pptr_of t fresh);
          refresh_csum t cur;
          refresh_csum t fresh
        end;
        Microlog.reset log
      end
    end

  (* ---- leaf delete (Algorithm 6) ---- *)

  let delete_leaf t (leaf : Inner.leaf_ref) (prev : Inner.leaf_ref option) =
    if stats_on () then t.stats.leaf_deletes <- t.stats.leaf_deletes + 1;
    if Obs.Gate.enabled () then
      Obs.Flight.merge ~leaf:leaf.Inner.off
        ~prev:(match prev with Some p -> p.Inner.off | None -> -1);
    let log = Microlog.Pool.acquire t.delete_logs in
    let lp = pptr_of t leaf.Inner.off in
    Microlog.set_fst log lp;
    let head = read_head t in
    (if Pptr.equal head lp then write_head t (leaf_next t leaf.Inner.off)
     else begin
       let p = Option.get prev in
       Microlog.set_snd log (pptr_of t p.Inner.off);
       Layout.write_next_persist (region t) ~leaf:p.Inner.off t.layout
         (leaf_next t leaf.Inner.off)
     end);
    (if t.config.use_groups then begin
       (* The leaf is unlinked; its storage is managed by the group
          machinery, which has its own micro-log.  Retire this log
          BEFORE entering it, and only once: the previous code reset it
          a second time afterwards, costing 4 redundant
          flush+fence+line-write sequences per whole-leaf delete. *)
       Microlog.reset log;
       Leaf_groups.free_leaf t.groups leaf.Inner.off
     end
     else begin
       if Scm.Pmtrace.enabled () then
         Scm.Pmtrace.leaf_retired ~region:(Region.id (region t))
           ~leaf:leaf.Inner.off;
       Pmem.Palloc.free (alloc t) ~from:(Microlog.fst_loc log);
       Microlog.reset log
     end);
    Microlog.Pool.release t.delete_logs log

  let recover_delete t log =
    if not (Microlog.is_idle log) then begin
      let curp = Microlog.read_fst log in
      let cur = curp.Pptr.off in
      let prev = Microlog.read_snd log in
      let head = read_head t in
      let release () =
        if not t.config.use_groups then
          Pmem.Palloc.free (alloc t) ~from:(Microlog.fst_loc log);
        Microlog.reset log
      in
      if not (Pptr.is_null prev) then begin
        (* Crashed between DeleteLeaf:12 and :14: redo the unlink. *)
        Layout.write_next_persist (region t) ~leaf:prev.Pptr.off t.layout
          (leaf_next t cur);
        release ()
      end
      else if Pptr.equal curp head then begin
        (* Crashed at DeleteLeaf:7: redo the head update. *)
        write_head t (leaf_next t cur);
        release ()
      end
      else if Pptr.equal (leaf_next t cur) head then
        (* Crashed at DeleteLeaf:14: head already updated. *)
        release ()
      else Microlog.reset log
    end

  (* ---- speculative sections ---- *)

  (* Acquire the leaf responsible for [k] with its lock held, via a
     speculative transaction (steps 1–2 of Figure 6), allocation-free.
     The read set is per-node ({!Nv}): the traversal observes the
     version of every inner node it routes through, and a successful
     [try_lock] is kept only if none of them moved — i.e. only a
     writer that modified a node {e on this key's path} forces a
     retry, not any writer anywhere (TSX read-set granularity).  A
     failed [try_lock] is an explicit abort; after the retry threshold
     the real mutex is taken, with a busy leaf lock releasing and
     reacquiring it (Algorithm 1).

     Path validation alone pins the leaf's identity: once [try_lock]
     succeeds no writer is inside the leaf, and any split or removal
     of it before that bumped an observed ancestor. *)
  module Lock_section = Spec.Section (struct
    type ctx = t
    type arg = K.t
    type aux = unit
    type res = Inner.leaf_ref

    let lock t = t.spec
    let committed _ = ()

    let optimistic t k () rs =
      let leaf = Inner.find_leaf_rs rs K.compare t.inner k in
      if not (try_lock t leaf) then raise Spec.Abort;
      if Nv.validate rs then leaf
      else begin
        unlock t leaf;
        raise Nv.Conflict
      end

    let locked t k () =
      let leaf = Inner.find_leaf K.compare t.inner.Inner.root k in
      if try_lock t leaf then leaf
      else Spec.busy t.spec ~obj:(Sched.obj_lock leaf.Inner.off)
  end)

  let lock_leaf_for t k = Lock_section.run t k ()

  (* ---- base operations ---- *)

  (* Allocation-free find core, on the per-node protocol: the
     traversal records each inner node's version into the calling
     domain's preallocated read set, the leaf's own version word is
     observed before the probe, and the whole set is validated after
     the value is read.  A busy word ([Nv.Conflict]) or a failed
     validation is a precise conflict — some writer touched a node
     this find actually read; writers elsewhere in the tree are
     invisible, which is what lets concurrent domains scale.  No
     closure, option, or outcome constructor is allocated; raises
     [Not_found] (constant constructor) on a miss. *)
  module Find_section = Spec.Section (struct
    type ctx = t
    type arg = K.t
    type aux = int
    type res = int

    let lock t = t.spec

    let committed attempts =
      if stats_on () then Obs.Histogram.record Metrics.find_retries attempts

    let optimistic t k h rs =
      let leaf = Inner.find_leaf_rs rs K.compare t.inner k in
      (* The leaf's version word stands in for its content lines: a
         writer opens a phase before its first store, so a quiescent
         observation here plus validation after the probe brackets
         the reads exactly like TSX read-set tracking would. *)
      Nv.observe_id rs leaf.Inner.ver leaf.Inner.off;
      let s = find_slot t leaf.Inner.off k h in
      (* a miss is an exception: the driver trusts it only if [rs]
         still validates *)
      if s < 0 then raise Not_found;
      let v = read_value t leaf.Inner.off s in
      if Nv.validate rs then v else raise Nv.Conflict

    (* Under the real mutex: structural writers serialize on the same
       mutex ([Spec.with_write]), but optimistic leaf writers do not —
       they only hold the leaf lock and its version phase.  So the
       probe checks the leaf's version word around the read, releasing
       the mutex between retries as in the paper's Algorithm 1 (a leaf
       writer waiting on the mutex for its structure update can then
       make progress — no deadlock). *)
    let locked t k h =
      let leaf = Inner.find_leaf K.compare t.inner.Inner.root k in
      let obj = Sched.obj_ver leaf.Inner.off in
      Sched.point ~obj ~write:false;
      let v0 = Nv.read leaf.Inner.ver in
      if Nv.is_busy v0 then Spec.busy t.spec ~obj;
      match find_slot t leaf.Inner.off k h with
      | exception e ->
        Sched.point ~obj ~write:false;
        if Nv.read leaf.Inner.ver = v0 then raise e else Spec.retry t.spec
      | s ->
        let v = if s >= 0 then read_value t leaf.Inner.off s else 0 in
        Sched.point ~obj ~write:false;
        if Nv.read leaf.Inner.ver <> v0 then Spec.retry t.spec
        else if s >= 0 then v
        else raise Not_found
  end)

  (* Bracket [f ()] (returning success as bool) with flight-recorder
     op begin/end events.  Only reached with the gate on: the gate-off
     entry points below stay direct calls, so the allocation-free hot
     paths are untouched when the recorder is off. *)
  let flight_op op key f =
    let t0 = Obs.Flight.op_begin ~op ~key in
    match f () with
    | ok ->
      ignore (Obs.Flight.op_end ~op ~key ~t0 ~ok);
      ok
    | exception e ->
      ignore (Obs.Flight.op_end ~op ~key ~t0 ~ok:false);
      raise e

  (* A monotonic-clock read costs ~23 ns on this host even on the TSC
     fast path, so the begin/end pair (two reads) cannot fit the find
     path's pinned 10% tracing budget.  The traced find therefore
     emits one completed-op marker per call (one clock read, latency
     sentinel -1) and takes the full measured pair on a ~1/16 sample —
     every find still lands in the event stream, percentiles come from
     the sample.  The tick is plain-mutable on purpose: cross-domain
     races only perturb the sampling phase, never memory safety. *)
  let find_sample_tick = ref 0

  (** [find_value_exn t k] is the raw hot-path lookup: the value bound
      to [k], or @raise Not_found.  Allocation-free in fast mode. *)
  let find_value_exn t k =
    if stats_on () then t.stats.finds <- t.stats.finds + 1;
    if not (Obs.Gate.enabled ()) then Find_section.run t k (K.fingerprint k)
    else begin
      let h = K.fingerprint k in
      let s = !find_sample_tick + 1 in
      find_sample_tick := s;
      if s land ((1 lsl Scm.Config.current.Scm.Config.flight_sample_shift) - 1)
         = 0
      then begin
        (* sampled: begin/end pair, measured latency; the pair also
           keeps "find in flight" visible in crash dumps *)
        let t0 = Obs.Flight.op_begin ~op:Obs.Event.op_find ~key:h in
        match Find_section.run t k h with
        | v ->
          ignore
            (Obs.Flight.op_end ~op:Obs.Event.op_find ~key:h ~t0 ~ok:true);
          v
        | exception Not_found ->
          ignore
            (Obs.Flight.op_end ~op:Obs.Event.op_find ~key:h ~t0 ~ok:false);
          raise Not_found
      end
      else
        match Find_section.run t k h with
        | v ->
          Obs.Flight.op_mark ~op:Obs.Event.op_find ~key:h ~ok:true;
          v
        | exception Not_found ->
          Obs.Flight.op_mark ~op:Obs.Event.op_find ~key:h ~ok:false;
          raise Not_found
    end

  (** [find_value t ~default k]: like {!find_value_exn} but total;
      allocation-free in fast mode. *)
  let find_value t ~default k =
    match find_value_exn t k with v -> v | exception Not_found -> default

  let find t k =
    match find_value_exn t k with
    | v -> Some v
    | exception Not_found -> None

  (* The node a leaf split holds ([Nv.begin_hold]) from before the
     split until the parents reference the new sibling: the last inner
     node the caller's lock section recorded, i.e. the leaf's parent.
     Readers arriving there wait instead of descending into the leaf
     and failing validation when the parent changes.  If the section
     committed under the fallback mutex the record is from an earlier
     attempt and may name another node, which only delays its readers.
     No hold under the model checker (it cannot affect safety and
     would only enlarge the schedule space) or when the leaf is the
     root. *)
  let split_hold () =
    if Sched.on () then None
    else
      match Nv.last_recorded (Nv.current ()) with
      | Some (c, id) when id < 0 -> Some c
      | _ -> None

  let insert_into_nonfull t (l : Inner.leaf_ref) k v h =
    let leaf = l.Inner.off in
    let bm = leaf_bitmap t leaf in
    let slot = Layout.first_zero t.layout bm in
    assert (slot >= 0);
    (* Version phase for the content mutation: optimistic readers of
       this leaf abort instead of probing half-written entries.  Nests
       harmlessly inside a split's outer bracket on the same leaf. *)
    ver_begin t l;
    (match write_entry t leaf slot k v h with
    | () -> ()
    | exception e ->
      (* Out-of-line key allocation failed: [K.write] allocates before
         its first store, so the leaf bytes are untouched and the entry
         was never committed — close the phase and unwind. *)
      ver_end t l;
      raise e);
    Layout.commit_bitmap (region t) ~leaf t.layout (bm lor (1 lsl slot));
    refresh_csum t leaf;
    ver_end t l

  (* pmcheck scope: attribute trace events to the operation and bound
     the analyzer's dirty-at-publication check.  The closure is built
     only when tracing — the untraced entry points stay direct calls,
     preserving the allocation-free hot paths. *)
  let scoped name f =
    Scm.Pmtrace.scope_begin name;
    match f () with
    | r ->
      Scm.Pmtrace.scope_end name;
      r
    | exception e ->
      Scm.Pmtrace.scope_end name;
      raise e

  let insert_op t k v =
    if stats_on () then t.stats.inserts <- t.stats.inserts + 1;
    let h = K.fingerprint k in
    let leaf = lock_leaf_for t k in
    if find_slot t leaf.Inner.off k h >= 0 then begin
      unlock t leaf;
      false (* unique-key tree: duplicate insert is a no-op *)
    end
    else begin
      if leaf_is_full t leaf.Inner.off then begin
        (* The split leaf's version phase spans the whole split: from
           before its first mutation (opened by [split_leaf]) until
           the parents reference the new right sibling.  In the window
           after [cur]'s bitmap shrinks but before [update_parents],
           keys above [sep] live only in the (unreachable) right leaf
           — a reader of [cur] must not validate there.  The parent's
           hold spans the same window and the allocation before it. *)
        let hold = split_hold () in
        Option.iter Nv.begin_hold hold;
        match split_leaf t leaf with
        | exception e ->
          (* The split's own unwind ran (log disarmed, nothing
             persisted, no phase opened): release the hold and the
             lock, unwind. *)
          Option.iter Nv.end_hold hold;
          unlock t leaf;
          raise e
        | sep, right ->
          let target = if K.compare k sep <= 0 then leaf else right in
          (match insert_into_nonfull t target k v h with
          | () -> ()
          | exception e ->
            (* The split committed persistently before the out-of-line
               key allocation failed.  The right sibling MUST still be
               published to the parents before unwinding — its keys
               would otherwise be unreachable to every future
               traversal.  Not byte-identical to pre-op (the split
               stands), but oracle-equivalent: the key set is
               unchanged. *)
            Spec.with_write t.spec (fun () ->
                Inner.update_parents t.inner K.compare ~sep ~right);
            ver_end t leaf;
            Option.iter Nv.end_hold hold;
            unlock t leaf;
            raise e);
          Spec.with_write t.spec (fun () ->
              Inner.update_parents t.inner K.compare ~sep ~right);
          ver_end t leaf;
          Option.iter Nv.end_hold hold;
          unlock t leaf;
          true
      end
      else begin
        (match insert_into_nonfull t leaf k v h with
        | () -> ()
        | exception e ->
          (* Out-of-line key allocation failed pre-commit: the leaf is
             untouched, but the lock must still be released. *)
          unlock t leaf;
          raise e);
        unlock t leaf;
        true
      end
    end

  let insert t k v =
    let ko = Obs.Attrib.set_op Obs.Attrib.op_insert in
    let r =
      if not (Obs.Gate.enabled ()) then
        if Scm.Pmtrace.enabled () then
          scoped "insert" (fun () -> insert_op t k v)
        else insert_op t k v
      else
        flight_op Obs.Event.op_insert (K.fingerprint k) (fun () ->
            if Scm.Pmtrace.enabled () then
              scoped "insert" (fun () -> insert_op t k v)
            else insert_op t k v)
    in
    Obs.Attrib.restore_op ko;
    r

  let update_op t k v =
    if stats_on () then t.stats.updates <- t.stats.updates + 1;
    let h = K.fingerprint k in
    let leaf = lock_leaf_for t k in
    let prev_slot0 = find_slot t leaf.Inner.off k h in
    if prev_slot0 < 0 then begin
      unlock t leaf;
      false
    end
    else begin
      (* Insert-after-delete published by a single p-atomic bitmap
         write (Algorithm 8 / 16).  One version phase on the locked
         leaf covers the whole mutation — including, on a split, the
         window until the parents reference the right sibling; a
         split opens it once its new leaf is allocated and holds the
         parent as in [insert_op]. *)
      let full = leaf_is_full t leaf.Inner.off in
      let hold = if full then split_hold () else None in
      Option.iter Nv.begin_hold hold;
      let target, prev_slot, did_split, sep_right =
        if full then
          match split_leaf t leaf with
          | exception e ->
            (* Exhaustion before any mutation (the split unwound, no
               phase opened): release the hold and the lock, leave
               the old entry standing. *)
            Option.iter Nv.end_hold hold;
            unlock t leaf;
            raise e
          | sep, right ->
            let target = if K.compare k sep <= 0 then leaf else right in
            let slot = find_slot t target.Inner.off k h in
            assert (slot >= 0);
            (target, slot, true, Some (sep, right))
        else begin
          ver_begin t leaf;
          (leaf, prev_slot0, false, None)
        end
      in
      let tl = target.Inner.off in
      let bm = leaf_bitmap t tl in
      let slot = Layout.first_zero t.layout bm in
      assert (slot >= 0);
      let r = region t in
      if K.inline then write_entry t tl slot k v h
      else begin
        (* Var keys: reuse the existing key block (Algorithm 16). *)
        let sc = Scope.enter Obs.Attrib.comp_kv in
        K.move t.ctx ~src:(key_cell t tl prev_slot) ~dst:(key_cell t tl slot);
        Region.write_word r (value_cell t tl slot) v;
        if t.layout.Layout.value_bytes > 8 then
          Region.fill r (value_cell t tl slot + 8)
            (t.layout.Layout.value_bytes - 8) '\000';
        Scope.persist_in_scope r (key_cell t tl slot)
          (K.cell_bytes
          + if t.layout.Layout.split_arrays then 0 else t.layout.Layout.value_bytes);
        if t.layout.Layout.split_arrays then
          Scope.persist_in_scope r (value_cell t tl slot) t.layout.Layout.value_bytes;
        Scope.leave sc;
        if t.layout.Layout.fingerprints then begin
          Layout.write_fp r ~leaf:tl t.layout slot h;
          Layout.persist_fp r ~leaf:tl t.layout slot
        end
      end;
      let bm' = bm land lnot (1 lsl prev_slot) lor (1 lsl slot) in
      Layout.commit_bitmap r ~leaf:tl t.layout bm';
      refresh_csum t tl;
      if not K.inline then K.reset_ref t.ctx ~off:(key_cell t tl prev_slot);
      (match sep_right with
      | Some (sep, right) when did_split ->
        Spec.with_write t.spec (fun () ->
            Inner.update_parents t.inner K.compare ~sep ~right)
      | _ -> ());
      ver_end t leaf;
      Option.iter Nv.end_hold hold;
      unlock t leaf;
      true
    end

  let update t k v =
    let ko = Obs.Attrib.set_op Obs.Attrib.op_update in
    let r =
      if not (Obs.Gate.enabled ()) then
        if Scm.Pmtrace.enabled () then
          scoped "update" (fun () -> update_op t k v)
        else update_op t k v
      else
        flight_op Obs.Event.op_update (K.fingerprint k) (fun () ->
            if Scm.Pmtrace.enabled () then
              scoped "update" (fun () -> update_op t k v)
            else update_op t k v)
    in
    Obs.Attrib.restore_op ko;
    r

  type delete_decision =
    | Del_in_leaf of Inner.leaf_ref
    | Del_whole_leaf of Inner.leaf_ref * Inner.leaf_ref option

  (* Decide what a delete must do, with the necessary locks held
     (the speculative section of Algorithm 5): the leaf — and, for a
     whole-leaf delete, its predecessor — locked, on a validated path.
     The second validation after locking the predecessor catches a
     concurrent split or removal of it: the predecessor's last routing
     node is in the read set via the prev-leaf descent, and both
     mutations bump it, so a stale predecessor cannot be committed into
     the decision (its next pointer is about to be overwritten). *)
  module Delete_section = Spec.Section (struct
    type ctx = t
    type arg = K.t
    type aux = int
    type res = delete_decision

    let lock t = t.spec
    let committed _ = ()

    (* With the leaf locked its content is stable: a whole-leaf delete
       needs its only entry to be [k] and the leaf not to be the sole
       one in the chain. *)
    let whole_leaf t k h leaf prev =
      let single =
        Layout.bitmap_count (leaf_bitmap t leaf.Inner.off) = 1
        && find_slot t leaf.Inner.off k h >= 0
      in
      let sole = prev = None && Pptr.is_null (leaf_next t leaf.Inner.off) in
      single && not sole

    let optimistic t k h rs =
      let leaf, prev = Inner.find_leaf_and_prev_rs rs K.compare t.inner k in
      if not (try_lock t leaf) then raise Spec.Abort;
      if not (Nv.validate rs) then begin
        unlock t leaf;
        raise Nv.Conflict
      end;
      if not (whole_leaf t k h leaf prev) then Del_in_leaf leaf
      else
        match prev with
        | None -> Del_whole_leaf (leaf, None)
        | Some p ->
          if not (try_lock t p) then begin
            unlock t leaf;
            raise Spec.Abort
          end
          else if Nv.validate rs then Del_whole_leaf (leaf, Some p)
          else begin
            unlock t p;
            unlock t leaf;
            raise Nv.Conflict
          end

    (* Under the real mutex structural updates are excluded, so the
       path and the predecessor are stable; leaf locks are still taken
       by optimistic writers, so a busy lock releases the mutex and
       retries (Algorithm 1). *)
    let locked t k h =
      let leaf, prev = Inner.find_leaf_and_prev K.compare t.inner.Inner.root k in
      if not (try_lock t leaf) then
        Spec.busy t.spec ~obj:(Sched.obj_lock leaf.Inner.off);
      if not (whole_leaf t k h leaf prev) then Del_in_leaf leaf
      else
        match prev with
        | None -> Del_whole_leaf (leaf, None)
        | Some p ->
          if try_lock t p then Del_whole_leaf (leaf, Some p)
          else begin
            unlock t leaf;
            Spec.busy t.spec ~obj:(Sched.obj_lock p.Inner.off)
          end
  end)

  let delete_op t k =
    if stats_on () then t.stats.deletes <- t.stats.deletes + 1;
    let h = K.fingerprint k in
    match Delete_section.run t k h with
    | Del_in_leaf leaf ->
      let slot = find_slot t leaf.Inner.off k h in
      if slot < 0 then begin
        unlock t leaf;
        false
      end
      else begin
        let bm = leaf_bitmap t leaf.Inner.off in
        ver_begin t leaf;
        Layout.commit_bitmap (region t) ~leaf:leaf.Inner.off t.layout
          (bm land lnot (1 lsl slot));
        refresh_csum t leaf.Inner.off;
        K.dealloc t.ctx ~off:(key_cell t leaf.Inner.off slot);
        ver_end t leaf;
        unlock t leaf;
        true
      end
    | Del_whole_leaf (leaf, prev) ->
      (* The dying leaf's version phase spans the var-key clearing, the
         inner-structure unlink, and the chain unlink; the
         predecessor's phase covers its next-pointer overwrite (range
         scans walk the chain optimistically). *)
      ver_begin t leaf;
      (match prev with Some p -> ver_begin t p | None -> ());
      (* Var keys: clear the entry and free its key block first
         (Algorithm 15, lines 16–18). *)
      (if not K.inline then begin
         let slot = find_slot t leaf.Inner.off k h in
         assert (slot >= 0);
         let bm = leaf_bitmap t leaf.Inner.off in
         Layout.commit_bitmap (region t) ~leaf:leaf.Inner.off t.layout
           (bm land lnot (1 lsl slot));
         refresh_csum t leaf.Inner.off;
         K.dealloc t.ctx ~off:(key_cell t leaf.Inner.off slot)
       end);
      Spec.with_write t.spec (fun () -> Inner.remove_leaf t.inner K.compare k);
      delete_leaf t leaf prev;
      (match prev with Some p -> ver_end t p | None -> ());
      ver_end t leaf;
      Option.iter (unlock t) prev;
      true

  let delete t k =
    let ko = Obs.Attrib.set_op Obs.Attrib.op_delete in
    let r =
      if not (Obs.Gate.enabled ()) then
        if Scm.Pmtrace.enabled () then
          scoped "delete" (fun () -> delete_op t k)
        else delete_op t k
      else
        flight_op Obs.Event.op_delete (K.fingerprint k) (fun () ->
            if Scm.Pmtrace.enabled () then
              scoped "delete" (fun () -> delete_op t k)
            else delete_op t k)
    in
    Obs.Attrib.restore_op ko;
    r

  (* ---- capacity: admission control and the typed result surface ----

     [try_insert]/[try_update] are the exception-free envelopes around
     the allocating operations: a watermark admission check up front
     (inserts only — updates in place must keep working arbitrarily
     close to full), synchronous emergency reclamation on the refusal
     path, and a typed [`Out_of_space] instead of an escaping
     [Out_of_scm].  Below the watermark they add two DRAM reads and
     zero allocations over the plain operations (test_hotpath pins
     this). *)

  (* Worst-case persistent footprint of one admitted insert: the split
     path allocates one leaf (a whole group in amortized mode) plus,
     for out-of-line keys, one variable key cell.  [Palloc.admit]'s
     hard reserve is sized to this so an admitted insert always
     completes. *)
  let insert_reserve t =
    let leaf_bytes =
      if t.config.use_groups then D.group_bytes t.config t.layout
      else t.layout.Layout.bytes
    in
    Pmem.Palloc.gross_bytes leaf_bytes
    + (if K.inline then 0
       else Pmem.Palloc.gross_bytes (8 + Keys.max_var_key_len))

  (* Emergency reclamation (refusal path only): retire fully-free leaf
     groups parked in the volatile pool back to the allocator, then ask
     the allocator to hand free tail blocks back to the arena.  Returns
     the bytes returned to the bump region. *)
  let reclaim_space_op t =
    if t.config.use_groups then Leaf_groups.free_idle_groups t.groups;
    Pmem.Palloc.reclaim (alloc t)

  let reclaim_space t =
    let ko = Obs.Attrib.set_op Obs.Attrib.op_reclaim in
    let bytes = reclaim_space_op t in
    Obs.Attrib.restore_op ko;
    bytes

  let note_refused t ~op ~fp =
    Obs.Counter.incr Metrics.space_refused;
    if Obs.Gate.enabled () then begin
      let free = Pmem.Palloc.bytes_free (alloc t) in
      Obs.Flight.emit ~tag:Obs.Event.space_refused ~a:op ~b:fp ~c:free ~d:0;
      if not t.degraded then
        Obs.Flight.emit ~tag:Obs.Event.degraded_enter ~a:free ~b:0 ~c:0 ~d:0
    end;
    t.degraded <- true

  let note_admitted t =
    if t.degraded then begin
      t.degraded <- false;
      if Obs.Gate.enabled () then
        Obs.Flight.emit ~tag:Obs.Event.degraded_leave
          ~a:(Pmem.Palloc.bytes_free (alloc t)) ~b:0 ~c:0 ~d:0
    end

  let try_insert t k v =
    let a = alloc t in
    let reserve = insert_reserve t in
    let admitted =
      Pmem.Palloc.admit a ~reserve
      || begin
           (* Refused at the watermark: reclaim synchronously and retry
              the admission once before giving up. *)
           ignore (reclaim_space t);
           Pmem.Palloc.admit a ~reserve
         end
    in
    if not admitted then begin
      note_refused t ~op:Obs.Event.op_insert ~fp:(K.fingerprint k);
      Error `Out_of_space
    end
    else begin
      note_admitted t;
      match insert t k v with
      | fresh -> Ok fresh
      | exception Pmem.Palloc.Out_of_scm ->
        (* The hard reserve makes this unreachable in normal operation;
           if an injected (or pathological) failure gets here anyway
           the op unwound cleanly — tree untouched — so surface the
           same typed refusal. *)
        ignore (reclaim_space t);
        note_refused t ~op:Obs.Event.op_insert ~fp:(K.fingerprint k);
        Error `Out_of_space
    end

  let try_update t k v =
    (* No admission gate: updates in place must keep working past the
       watermark.  Only the (rare) split-on-update path allocates, and
       it unwinds cleanly on exhaustion. *)
    match update t k v with
    | updated -> Ok updated
    | exception Pmem.Palloc.Out_of_scm ->
      ignore (reclaim_space t);
      note_refused t ~op:Obs.Event.op_update ~fp:(K.fingerprint k);
      Error `Out_of_space

  (* Deletes never allocate; the envelope exists so every mutating op
     has the same typed signature at the upper layers. *)
  let try_delete t k = Ok (delete t k)

  let degraded t = t.degraded
  let bytes_free t = Pmem.Palloc.bytes_free (alloc t)
  let watermark_state t = Pmem.Palloc.watermark_state (alloc t)

  (* Where a range scan starts and where it may stop: the leaf covering
     [lo], the leaf covering [hi], and that end leaf's version word as
     read inside the same validated section — or -1 ("no end stop")
     when a writer was inside it. *)
  type range_bounds = {
    rb_start : Inner.leaf_ref;
    rb_end : Inner.leaf_ref;
    rb_end_ver : int;
  }

  let end_version (l : Inner.leaf_ref) =
    Sched.point ~obj:(Sched.obj_ver l.Inner.off) ~write:false;
    let v = Nv.read l.Inner.ver in
    if Nv.is_busy v then -1 else v

  (* The [lo] and [hi] descents of a range scan, on the per-node
     protocol (the walk itself reads dirty).  A torn read during a
     racing structural update is an exception the driver retries
     rather than letting it escape to the range caller. *)
  module Range_start_section = Spec.Section (struct
    type ctx = t
    type arg = K.t
    type aux = K.t
    type res = range_bounds

    let lock t = t.spec
    let committed _ = ()

    let optimistic t lo hi rs =
      let rb_start, rb_end = Inner.find_span_rs rs K.compare t.inner lo hi in
      let rb_end_ver = end_version rb_end in
      if Nv.validate rs then { rb_start; rb_end; rb_end_ver }
      else raise Nv.Conflict

    let locked t lo hi =
      let root = t.inner.Inner.root in
      let rb_end = Inner.find_leaf K.compare root hi in
      { rb_start = Inner.find_leaf K.compare root lo; rb_end;
        rb_end_ver = end_version rb_end }
  end)

  (** Inclusive range scan via the leaf linked list.  Reads are dirty
      (no leaf locks taken); the result is sorted.  The leaf chain is
      in key order but each leaf is unsorted: [K.gather] makes one pass
      over a leaf's slots, in slot order, and leaves its hits sorted by
      key in two m-sized per-call scratch arrays ([lk]/[lv]), from
      which they are consed onto the result before the next leaf is
      read.  [walk]/[emit] build the list front to back in constant
      stack ([tail_mod_cons]), so a call allocates its result (a cons
      and a pair per hit) plus the two scratch arrays.

      The walk stops right after the end leaf (the one covering [hi]
      when the start section validated) if that leaf's version word is
      unchanged once it has been scanned: no split or removal moved
      keys out of it, so no later leaf holds a key [<= hi].  Otherwise
      it falls back to stopping after a non-empty leaf holding no key
      [<= hi], or at the end of the chain.

      A leaf after the first takes only keys strictly above [floor],
      the last key already emitted: a split of a scanned leaf moves
      its upper keys into a new successor the walk may then follow,
      and splits only move keys rightward, so this keeps the result
      strictly ascending without duplicates ([K.gather] also drops a
      key met twice within one leaf).  A leaf with hits whose bitmap
      changed during its scan is scanned again, so a split cannot
      pair a moved key with the value of an insert that reused its
      slot.  The read-only [Sched.point]s before each bitmap and
      next-pointer read let the model checker interleave writers
      inside the walk. *)
  let range_op t ~lo ~hi =
    if K.compare lo hi > 0 then []
    else begin
      let b = Range_start_section.run t lo hi in
      let m = t.layout.Layout.m in
      let lk = Array.make m K.dummy in
      let lv = Array.make m 0 in
      let end_off = b.rb_end.Inner.off in
      let[@tail_mod_cons] rec walk leaf floor strict =
        let obj = Sched.obj_ver leaf in
        Sched.point ~obj ~write:false;
        let bm = leaf_bitmap t leaf in
        let g = K.gather t.ctx t.layout ~leaf ~bm ~floor ~strict ~hi lk lv in
        (* a split clears half the bitmap and lets an insert reuse a
           slot between its key and value reads: rescan such a leaf *)
        if g > 0 && leaf_bitmap t leaf <> bm then walk leaf floor strict
        else begin
          (* stop after a non-empty leaf with no key <= hi, or after
             the end leaf if its version still matches (-1 never
             does); otherwise probe the next pointer's words directly
             (no Pptr record) *)
          let next =
            if bm <> 0 && g < 0 then -1
            else begin
              Sched.point ~obj ~write:false;
              if leaf = end_off && Nv.read b.rb_end.Inner.ver = b.rb_end_ver
              then -1
              else begin
                let noff = leaf + t.layout.Layout.next_off in
                if Pptr.is_null_at (region t) noff then -1
                else Pptr.off_at (region t) noff
              end
            end
          in
          if g <= 0 then emit 0 0 next floor strict
          else emit 0 g next lk.(g - 1) true
        end
      and[@tail_mod_cons] emit i n next floor strict =
        if i < n then (lk.(i), lv.(i)) :: emit (i + 1) n next floor strict
        else if next < 0 then []
        else walk next floor strict
      in
      walk b.rb_start.Inner.off lo false
    end

  let range t ~lo ~hi =
    if not (Obs.Gate.enabled ()) then range_op t ~lo ~hi
    else begin
      let key = K.fingerprint lo in
      let t0 = Obs.Flight.op_begin ~op:Obs.Event.op_range ~key in
      match range_op t ~lo ~hi with
      | r ->
        ignore (Obs.Flight.op_end ~op:Obs.Event.op_range ~key ~t0 ~ok:true);
        r
      | exception e ->
        ignore (Obs.Flight.op_end ~op:Obs.Event.op_range ~key ~t0 ~ok:false);
        raise e
    end

  (* ---- iteration / introspection ---- *)

  let iter_leaves t f =
    let rec go p =
      if not (Pptr.is_null p) then begin
        f p.Pptr.off;
        go (leaf_next t p.Pptr.off)
      end
    in
    go (read_head t)

  let iter t f =
    iter_leaves t (fun leaf ->
        let bm = leaf_bitmap t leaf in
        for s = 0 to t.layout.Layout.m - 1 do
          if bm land (1 lsl s) <> 0 then f (read_key t leaf s) (read_value t leaf s)
        done)

  let count t =
    let n = ref 0 in
    iter_leaves t (fun leaf -> n := !n + Layout.bitmap_count (leaf_bitmap t leaf));
    !n

  let leaf_count t =
    let n = ref 0 in
    iter_leaves t (fun _ -> incr n);
    !n

  let height t = Inner.height t.inner.Inner.root

  (** DRAM footprint: inner nodes plus group bookkeeping.  The free
      pool size is a maintained counter ([n_free]), not an O(n) list
      traversal. *)
  let dram_bytes t =
    Inner.dram_bytes t.inner ~key_bytes:(K.dram_bytes K.dummy)
    + Leaf_groups.dram_bytes t.groups

  (** SCM footprint of the tree's arena (live allocated bytes). *)
  let scm_bytes t = Pmem.Palloc.live_bytes (alloc t)

  let stats t = t.stats

  (** Abort-reason breakdown as an assoc list ({!Tree_intf.S}). *)
  let htm_stats t = Spec.stats_assoc t.spec

  let reset_stats t =
    let s = t.stats in
    s.key_probes <- 0; s.finds <- 0; s.inserts <- 0; s.updates <- 0;
    s.deletes <- 0; s.leaf_splits <- 0; s.leaf_deletes <- 0

  let key_probes t = t.stats.key_probes
  let reset_probes = reset_stats

  (* ---- construction and recovery ---- *)

  let fresh_stats () =
    { key_probes = 0; finds = 0; inserts = 0; updates = 0; deletes = 0;
      leaf_splits = 0; leaf_deletes = 0 }

  let build_volatile ctx cfg meta =
    let layout = D.layout_of cfg ~key_cell_bytes:K.cell_bytes in
    let logs n slot =
      Microlog.Pool.create
        (Array.init n (fun i ->
             Microlog.make ctx.Keys.region (D.log_off cfg ~meta (slot i))))
    in
    {
      ctx; layout; config = cfg; meta;
      spec =
        Spec.create ~retry_threshold:cfg.htm_retries
          ~backoff_ceiling:cfg.htm_backoff ();
      inner = Inner.create ~fanout:(cfg.inner_keys + 1) ~dummy_key:K.dummy
                (Inner.leaf_ref (-1));
      split_logs = logs cfg.n_split_logs (fun i -> D.Split i);
      delete_logs = logs cfg.n_delete_logs (fun i -> D.Delete i);
      groups = Leaf_groups.create ctx ~meta cfg layout;
      scratch_keys = Array.make layout.Layout.m K.dummy;
      scratch_slots = Array.make layout.Layout.m 0;
      stats = fresh_stats ();
      quarantined = [];
      degraded = false;
    }

  (* Finish initialization: runs both on first creation and on recovery
     from a crash that hit during creation (Algorithm 9, line 1–2). *)
  let complete_init t =
    Leaf_groups.recover t.groups;
    (if Pptr.is_null (read_head t) then
       if t.config.use_groups then begin
         (* Group membership must be rebuilt before get_leaf. *)
         Leaf_groups.rebuild t.groups ~in_use:(fun _ -> false);
         let l = Leaf_groups.get_leaf t.groups in
         write_head t (pptr_of t l)
       end
       else
         Pmem.Palloc.alloc (alloc t)
           ~into:(Pmem.Pptr.Loc.make (region t) (t.meta + D.meta_head))
           t.layout.Layout.bytes);
    (* (Re-)zero the first leaf: idempotent, and a crash may have hit
       between obtaining the leaf and zeroing it. *)
    Layout.zero_leaf (region t) ~leaf:(read_head t).Pptr.off t.layout;
    refresh_csum t (read_head t).Pptr.off;
    D.mark_initialized (region t) ~meta:t.meta

  (* pmcheck bootstrap: drop stale lock/leaf tracking (recovery writes
     without leaf locks by design) and announce the leaf extent size so
     the analyzer can map stores to leaves. *)
  let trace_tree_layout t =
    if Scm.Pmtrace.enabled () then begin
      let region = Region.id (region t) in
      Scm.Pmtrace.track_reset ~region;
      Scm.Pmtrace.leaf_layout ~region ~bytes:t.layout.Layout.bytes
    end

  (** Create a fresh tree in [alloc]'s region.  The tree descriptor is
      anchored at the allocator root. *)
  let create_op ?(config = fptree_config) alloc =
    let region = Pmem.Palloc.region alloc in
    if not (Pptr.is_null (Pmem.Palloc.root alloc)) then
      failwith "Tree.create: region already holds a tree (use recover)";
    ignore (D.layout_of config ~key_cell_bytes:K.cell_bytes); (* validate *)
    Pmem.Palloc.alloc alloc ~into:(Pmem.Palloc.root_loc alloc)
      (D.meta_bytes config);
    let meta = (Pmem.Palloc.root alloc).Pptr.off in
    let sc = Scope.enter Obs.Attrib.comp_tree_meta in
    Region.fill region meta (D.meta_bytes config) '\000';
    Scope.persist_in_scope region meta (D.meta_bytes config);
    Scope.leave sc;
    let ctx = { Keys.region; alloc } in
    let t = build_volatile ctx config meta in
    trace_tree_layout t;
    D.write_config region ~meta ~kind:K.kind config;
    complete_init t;
    let first = (read_head t).Pptr.off in
    t.inner <-
      Inner.create ~fanout:(config.inner_keys + 1) ~dummy_key:K.dummy
        (Inner.leaf_ref first);
    t

  let create ?config alloc =
    let ko = Obs.Attrib.set_op Obs.Attrib.op_create in
    let t =
      if Scm.Pmtrace.enabled () then
        scoped "create" (fun () -> create_op ?config alloc)
      else create_op ?config alloc
    in
    Obs.Attrib.restore_op ko;
    t

  (* Rebuild the volatile side from the persistent leaves: Algorithm 9
     (and the leak audit of Algorithm 17 for var keys). *)
  let rebuild_volatile t =
    (* Walk the leaf list: discriminators, leak audit, lock resets. *)
    let leaves = ref [] in
    let in_list = Hashtbl.create 1024 in
    iter_leaves t (fun leaf ->
        Hashtbl.replace in_list leaf ();
        Region.write_u8 (region t) (leaf + t.layout.Layout.lock_off) 0;
        let bm = leaf_bitmap t leaf in
        let max_key = ref None in
        for s = 0 to t.layout.Layout.m - 1 do
          let cell = key_cell t leaf s in
          if bm land (1 lsl s) <> 0 then begin
            let k = read_key t leaf s in
            match !max_key with
            | None -> max_key := Some k
            | Some mk -> if K.compare k mk > 0 then max_key := Some k
          end
          else
            (* Leak audit for out-of-line keys (Algorithm 17). *)
            match K.cell_ref t.ctx ~off:cell with
            | None | Some { Pptr.region_id = 0; _ } -> ()
            | Some p ->
              let duplicate = ref false in
              for s' = 0 to t.layout.Layout.m - 1 do
                if bm land (1 lsl s') <> 0 then
                  match K.cell_ref t.ctx ~off:(key_cell t leaf s') with
                  | Some p' when Pptr.equal p p' -> duplicate := true
                  | _ -> ()
              done;
              if !duplicate then K.reset_ref t.ctx ~off:cell
              else K.dealloc t.ctx ~off:cell
        done;
        match !max_key with
        | Some mk -> leaves := (mk, Inner.leaf_ref leaf) :: !leaves
        | None -> leaves := (K.dummy, Inner.leaf_ref leaf) :: !leaves);
    let arr = Array.of_list (List.rev !leaves) in
    t.inner <-
      Inner.rebuild ~fanout:(t.config.inner_keys + 1) ~dummy_key:K.dummy arr;
    (* Rebuild the volatile free-leaf pool from the group list.
       Quarantined leaves are out of the list but must not be recycled
       as free. *)
    if t.config.use_groups then
      Leaf_groups.rebuild t.groups ~in_use:(fun l ->
          Hashtbl.mem in_list l || List.mem l t.quarantined)

  (* ---- recovery checksum validation (quarantine pass) ---- *)

  (* A next pointer is followable iff it is null or names an aligned
     leaf-sized span inside this region; a torn or media-damaged
     pointer fails this and truncates the chain (the keys behind it are
     unreachable either way). *)
  let plausible_next t p =
    Pptr.is_null p
    || (p.Pptr.region_id = Region.id (region t)
       && p.Pptr.off > 0
       && p.Pptr.off land 7 = 0
       && p.Pptr.off + t.layout.Layout.bytes <= Region.size (region t))

  (* Walk the persistent leaf list validating each leaf's integrity
     cell (checksum layouts only).  Stale cells — a crash hit the
     window between a p-atomic bitmap commit and the checksum refresh —
     are recomputed in place.  Corrupt leaves (torn or media-damaged
     content) are spliced out of the list and quarantined behind
     [Metrics.quarantined_leaves]: the tree comes back serving the
     surviving keyspace instead of aborting recovery.  Splices are
     committed 16-byte pointer publishes, so a crash mid-pass leaves a
     list this same pass converges on when re-run; a visited set guards
     against corrupt links closing a cycle. *)
  let quarantine_pass t =
    if t.layout.Layout.checksums then begin
      let r = region t in
      let visited = Hashtbl.create 64 in
      let set_next prev p =
        match prev with
        | None -> write_head t p
        | Some leaf ->
          let sc = Scope.enter Obs.Attrib.comp_recovery in
          Pptr.write_committed r (leaf + t.layout.Layout.next_off) p;
          Scope.leave sc
      in
      let sanitize p = if plausible_next t p then p else Pptr.null in
      let rec walk prev p =
        if not (Pptr.is_null p) then begin
          let leaf = p.Pptr.off in
          if Hashtbl.mem visited leaf then set_next prev Pptr.null
          else begin
            Hashtbl.replace visited leaf ();
            match Layout.verify_checksum r ~leaf t.layout with
            | Layout.Csum_ok -> walk (Some leaf) (leaf_next t leaf)
            | Layout.Csum_stale ->
              Layout.write_checksum r ~leaf t.layout;
              walk (Some leaf) (leaf_next t leaf)
            | Layout.Csum_corrupt ->
              t.quarantined <- leaf :: t.quarantined;
              Obs.Counter.incr Metrics.quarantined_leaves;
              let next = sanitize (leaf_next t leaf) in
              set_next prev next;
              walk prev next
          end
        end
      in
      let head = read_head t in
      let head = if plausible_next t head then head
        else begin write_head t Pptr.null; Pptr.null end in
      walk None head;
      (* An all-corrupt chain leaves a tree with no leaves, which the
         rest of the code never has to handle: scrub one quarantined
         leaf back to an empty head (its keys are lost either way). *)
      if Pptr.is_null (read_head t) then
        match t.quarantined with
        | [] -> ()
        | leaf :: rest ->
          Layout.zero_leaf r ~leaf t.layout;
          refresh_csum t leaf;
          write_head t (pptr_of t leaf);
          t.quarantined <- rest
    end

  (** Re-open the tree persisted in [alloc]'s region after a restart:
      replay micro-logs, audit leaks, rebuild DRAM state (Algorithm 9). *)
  let recover ?(config = fptree_config) alloc =
    let region = Pmem.Palloc.region alloc in
    let rootp = Pmem.Palloc.root alloc in
    if Pptr.is_null rootp then failwith "Tree.recover: no tree in region";
    let meta = rootp.Pptr.off in
    let initialized = D.initialized region ~meta in
    (* If creation never completed, the persisted config words may be
       missing: trust the caller's config and (re)write them. *)
    let cfg =
      if not initialized then config
      else
        match
          D.config_of_meta region meta ~avail:(Region.size region - meta) config
        with
        | Ok cfg -> cfg
        | Error what ->
          failwith ("Tree.recover: implausible descriptor field: " ^ what)
    in
    if initialized && D.key_kind region ~meta <> K.kind then
      failwith "Tree.recover: key kind mismatch";
    let ctx = { Keys.region; alloc } in
    let t = build_volatile ctx cfg meta in
    trace_tree_layout t;
    (* Attribution: everything recovery touches that is not claimed by
       a tighter scope (log replay -> microlog, splices -> recovery,
       allocator fixups -> alloc_meta) is charged to (recovery,
       recover). *)
    let ko = Obs.Attrib.set_op Obs.Attrib.op_recover in
    let kc = Obs.Attrib.set_component Obs.Attrib.comp_recovery in
    (* Each recovery phase is timed into its histogram (Fig. 11: the
       paper's recovery-time claim is that log replay is O(logs) and
       the DRAM rebuild dominates, linear in leaves). *)
    if not initialized then
      Obs.Flight.timed ~name:"fptree.recovery.init" Metrics.recovery_init_us
        (fun () ->
          D.write_config region ~meta ~kind:K.kind cfg;
          complete_init t)
    else
      Obs.Flight.timed ~name:"fptree.recovery.log_replay"
        Metrics.recovery_log_replay_us (fun () ->
          Leaf_groups.recover t.groups;
          Microlog.Pool.iter (recover_split t) t.split_logs;
          Microlog.Pool.iter (recover_delete t) t.delete_logs);
    if initialized && t.layout.Layout.checksums then
      Obs.Flight.timed ~name:"fptree.recovery.quarantine"
        Metrics.recovery_quarantine_us (fun () -> quarantine_pass t);
    Obs.Flight.timed ~name:"fptree.recovery.rebuild"
      Metrics.recovery_rebuild_us (fun () -> rebuild_volatile t);
    Obs.Attrib.restore_component kc;
    Obs.Attrib.restore_op ko;
    t

  (** Offsets of every allocated block the tree can account for
      (descriptor, leaves or groups, key blocks): input to the
      allocator leak audit. *)
  let reachable_blocks t =
    let acc = ref [ t.meta ] in
    if t.config.use_groups then
      Leaf_groups.iter_groups t.groups (fun g -> acc := g :: !acc)
    else begin
      iter_leaves t (fun leaf -> acc := leaf :: !acc);
      (* Quarantined leaves are off the list but still allocated. *)
      List.iter (fun leaf -> acc := leaf :: !acc) t.quarantined
    end;
    if not K.inline then
      iter_leaves t (fun leaf ->
          let bm = leaf_bitmap t leaf in
          for s = 0 to t.layout.Layout.m - 1 do
            if bm land (1 lsl s) <> 0 then
              match K.cell_ref t.ctx ~off:(key_cell t leaf s) with
              | Some p when not (Pptr.is_null p) -> acc := p.Pptr.off :: !acc
              | _ -> ()
          done);
    !acc

  (** Structural invariant check (tests): leaves are in strictly
      increasing key order along the linked list, every key routes to
      its leaf through the inner nodes, and fingerprints match. *)
  let check_invariants t =
    let prev_max = ref None in
    iter_leaves t (fun leaf ->
        let bm = leaf_bitmap t leaf in
        let keys = ref [] in
        for s = 0 to t.layout.Layout.m - 1 do
          if bm land (1 lsl s) <> 0 then begin
            let k = read_key t leaf s in
            keys := k :: !keys;
            if t.layout.Layout.fingerprints then begin
              let fp = Layout.read_fp (region t) ~leaf t.layout s in
              if fp <> K.fingerprint k then failwith "invariant: bad fingerprint"
            end;
            let routed = Inner.find_leaf K.compare t.inner.Inner.root k in
            if routed.Inner.off <> leaf then
              failwith "invariant: inner nodes route key to wrong leaf"
          end
        done;
        (match (!prev_max, !keys) with
        | Some pm, _ :: _ ->
          let mn = List.fold_left (fun a k -> if K.compare k a < 0 then k else a)
              (List.hd !keys) !keys in
          if K.compare pm mn >= 0 then
            failwith "invariant: leaf list not in key order"
        | _ -> ());
        match !keys with
        | [] -> ()
        | ks ->
          let mx = List.fold_left (fun a k -> if K.compare k a > 0 then k else a)
              (List.hd ks) ks in
          prev_max := Some mx)

  (* ---- probes for the tests ---- *)

  module Testing = struct
    (* Every micro-log slot disarmed — a refused op must not leave one
       armed (recovery would otherwise replay a phantom op). *)
    let logs_idle t =
      let ok = ref (Leaf_groups.logs_idle t.groups) in
      let chk log = if not (Microlog.is_idle log) then ok := false in
      Microlog.Pool.iter chk t.split_logs;
      Microlog.Pool.iter chk t.delete_logs;
      !ok

    (* The leaf currently covering [k] is not left locked by an unwound
       op. *)
    let leaf_locked_for t k =
      Leaf_lock.is_locked (Inner.find_leaf K.compare t.inner.Inner.root k)

    let spec_stats t = Spec.stats t.spec

    (* Leaves quarantined by the last [recover]'s checksum validation
       (offsets, newest first); empty on clean recoveries and when
       checksums are off. *)
    let quarantined t = t.quarantined
  end
end

(** The one blessed adapter from the allocator's exhaustion exception
    to the typed result surface.  The baselines define their
    [try_insert]/[try_update] ({!Tree_intf.S}) with it; callers above
    the trees use those envelopes.  Lint rules keep [Out_of_scm] out of
    every library above [lib/pmem]/[lib/fptree], and this adapter out
    of everything but [lib/fptree] and [lib/baselines]. *)
let guard_space f =
  match f () with
  | v -> Ok v
  | exception Pmem.Palloc.Out_of_scm -> Error `Out_of_space
