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
    n_split_logs = 1; n_delete_logs = 1; htm_retries = 8; checksums = false }

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
  let chain t = D.leaf_list (region t) ~meta:t.meta t.layout

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
      lines 12–15 / Algorithm 14, lines 12–18).  [from] is the slot of
      the entry it replaces, or [-1] for a fresh key: an update of a var
      key moves the old key block's pointer instead of allocating one
      (Algorithm 16).  The key cell is persisted with the value exactly
      when [K.write] did not publish it (var keys allocate their block
      through the allocator, which persists the cell). *)
  let write_entry t leaf slot ~from k v h =
    let r = region t in
    let koff = key_cell t leaf slot in
    let voff = value_cell t leaf slot in
    let vb = t.layout.Layout.value_bytes in
    let moved = from >= 0 && not K.inline in
    let sc = Scope.enter Obs.Attrib.comp_kv in
    if moved then K.move t.ctx ~src:(key_cell t leaf from) ~dst:koff
    else K.write t.ctx ~off:koff k;
    Region.write_word r voff v;
    if vb > 8 then Region.fill r (voff + 8) (vb - 8) '\000';
    let kb = if K.inline || moved then K.cell_bytes else 0 in
    (if t.layout.Layout.split_arrays then begin
       if kb > 0 then Scope.persist_in_scope r koff kb;
       Scope.persist_in_scope r voff vb
     end
     else (* a slot's value follows its key cell *)
       Scope.persist_in_scope r (voff - kb) (kb + vb));
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

  (* The keys and slots a split selects over: one 64-slot pair per
     domain (m <= 64), shared by every tree of this key type.  Between
     filling it and its last read [find_split_key] only reads the
     region and compares keys, so no [Sched] point falls there, and
     model-checker fibers, which share one domain, cannot interleave
     inside it. *)
  let split_scratch =
    Sched.local (fun () -> (Array.make 64 K.dummy, Array.make 64 0))

  (* Median discriminator and the bitmap of entries that move to the
     new (upper) leaf. *)
  let find_split_key t leaf =
    let bm = leaf_bitmap t leaf in
    let keys, slots = Sched.scratch split_scratch in
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

  (* The split's steps from SplitLeaf:11 on, once [fresh] holds the
     [upper] entries: shrink [cur]'s bitmap, clear both leaves' stale
     cells, link [fresh] after [cur], refresh both checksums.  The
     recovery redo runs the same steps. *)
  let finish_split t ~cur ~fresh ~upper =
    let r = region t in
    Layout.commit_bitmap r ~leaf:cur t.layout
      (Layout.full_mask t.layout land lnot upper);
    clear_stale_cells t cur;
    clear_stale_cells t fresh;
    Layout.write_next_persist r ~leaf:cur t.layout (pptr_of t fresh);
    refresh_csum t cur;
    refresh_csum t fresh

  let do_split_steps t ~cur ~fresh =
    let r = region t in
    Layout.copy_leaf r t.layout ~src:cur ~dst:fresh;
    let sep, upper = find_split_key t cur in
    Layout.commit_bitmap r ~leaf:fresh t.layout upper;
    finish_split t ~cur ~fresh ~upper;
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
        if Layout.bitmap_is_full t.layout (leaf_bitmap t cur) then
          (* Crashed before the split leaf's bitmap shrank: redo the
             split from the copy phase (Algorithm 4, SplitLeaf:6). *)
          ignore (do_split_steps t ~cur ~fresh)
        else
          (* Crashed after the bitmap update: redo from SplitLeaf:11. *)
          finish_split t ~cur ~fresh ~upper:(leaf_bitmap t fresh);
        Microlog.reset log
      end
    end

  (* ---- leaf delete (Algorithm 6) ----

     The unlink is the group list's too ({!Descriptor.unlink} over the
     leaf chain, the predecessor from the descent); this keeps only the
     release: hand the leaf to its group, or free it from the log.
     Recovery replays it with {!Descriptor.redo_unlink}. *)

  let delete_leaf t (leaf : Inner.leaf_ref) (prev : Inner.leaf_ref option) =
    if stats_on () then t.stats.leaf_deletes <- t.stats.leaf_deletes + 1;
    if Obs.Gate.enabled () then
      Obs.Flight.merge ~leaf:leaf.Inner.off
        ~prev:(match prev with Some p -> p.Inner.off | None -> -1);
    let log = Microlog.Pool.acquire t.delete_logs in
    ignore
      (D.unlink (chain t) log leaf.Inner.off
         ~prev:(fun () -> (Option.get prev).Inner.off));
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
       Obs.Flight.leaf_retired ~region:(Region.id (region t))
         ~leaf:leaf.Inner.off;
       Pmem.Palloc.free (alloc t) ~from:(Microlog.fst_loc log);
       Microlog.reset log
     end);
    Microlog.Pool.release t.delete_logs log

  (* ---- speculative sections ---- *)

  (* Acquire the leaf responsible for [k] with its lock held, via a
     speculative transaction (steps 1–2 of Figure 6), allocation-free.
     The read set is per-node ({!Nv}): the traversal observes the
     version of every inner node it routes through, and a successful
     [try_lock] is kept only if none of them moved — i.e. only a
     writer that modified a node {e on this key's path} forces a
     retry, not any writer anywhere (TSX read-set granularity).  A
     failed [try_lock] is an explicit abort naming the lock; after the
     retry threshold the body runs under the real mutex, which a busy
     leaf lock releases and reacquires (Algorithm 1).

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

    let body t k () rs =
      let leaf = Inner.descend_rs rs t.inner k in
      if not (try_lock t leaf) then
        Spec.abort rs ~obj:(Sched.obj_lock leaf.Inner.off);
      if Nv.validate rs then leaf
      else begin
        unlock t leaf;
        raise Nv.Conflict
      end
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

    let body t k h rs =
      let leaf = Inner.descend_rs rs t.inner k in
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
  end)

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
     and failing validation when the parent changes.  No hold under
     the model checker (it cannot affect safety and would only enlarge
     the schedule space) or when the leaf is the root. *)
  let split_hold () =
    if Sched.on () then None
    else
      match Nv.last_recorded (Nv.current ()) with
      | Some (c, id) when id < 0 -> Some c
      | _ -> None

  (* The split a put that does not split carries: a static pair, so
     that path allocates nothing. *)
  let no_split = (K.dummy, Inner.no_leaf)

  (* Write [k, v] into a free slot of the locked [l] and commit it with
     one p-atomic bitmap write that also retires the entry in [from]
     (an update is an insert-after-delete in one leaf: Algorithms 2, 8
     and 16).  The version phase keeps optimistic readers of [l] from
     probing half-written entries; it nests harmlessly inside a split's
     phase on the same leaf. *)
  let commit_entry t (l : Inner.leaf_ref) ~from k v h =
    let leaf = l.Inner.off in
    let bm = leaf_bitmap t leaf in
    let slot = Layout.first_zero t.layout bm in
    assert (slot >= 0);
    ver_begin t l;
    (match write_entry t leaf slot ~from k v h with
    | () -> ()
    | exception e ->
      (* Out-of-line key allocation failed: [K.write] allocates before
         its first store, so the leaf bytes are untouched and the entry
         was never committed. *)
      ver_end t l;
      raise e);
    let old = if from < 0 then 0 else 1 lsl from in
    Layout.commit_bitmap (region t) ~leaf t.layout (bm land lnot old lor (1 lsl slot));
    refresh_csum t leaf;
    if from >= 0 then K.reset_ref t.ctx ~off:(key_cell t leaf from);
    ver_end t l

  (* Every put ends here, returned or raised: a split's right sibling
     is published to the parents (its keys are unreachable until then,
     so also when the entry's key allocation failed after the split:
     not byte-identical to the pre-op state, but the key set is
     unchanged), the split leaf's phase closes, the parent's hold ends
     and the leaf is unlocked. *)
  let put_tail t leaf ((sep, right) as split) hold =
    if split != no_split then begin
      Spec.with_write t.spec (fun () -> Inner.update_parents t.inner ~sep ~right);
      ver_end t leaf
    end;
    Option.iter Nv.end_hold hold;
    unlock t leaf

  (* Insert ([update = false]) or update [k]: false, changing nothing,
     when [k]'s presence is not what the op needs (unique keys).  A full
     leaf splits first.  The split leaf's version phase spans the whole
     split: from before its first mutation (opened by [split_leaf])
     until the parents reference the new right sibling — in the window
     after its bitmap shrinks, keys above [sep] live only in the
     unreachable right leaf, where a reader of the split leaf must not
     validate.  The parent's hold spans the same window and the
     allocation before it; a split that raises has unwound itself (log
     disarmed, nothing persisted, no phase open).  A split keeps every
     entry in its slot ([Layout.copy_leaf] copies the whole leaf), so an
     update's [prev] names the old entry in either half. *)
  let put_op ~update t k v =
    if stats_on () then
      if update then t.stats.updates <- t.stats.updates + 1
      else t.stats.inserts <- t.stats.inserts + 1;
    let h = K.fingerprint k in
    let leaf = lock_leaf_for t k in
    let prev = find_slot t leaf.Inner.off k h in
    if (prev >= 0) <> update then begin
      unlock t leaf;
      false
    end
    else begin
      let full = leaf_is_full t leaf.Inner.off in
      let hold = if full then split_hold () else None in
      Option.iter Nv.begin_hold hold;
      let split = ref no_split in
      match
        if full then split := split_leaf t leaf;
        let sep, right = !split in
        let target = if full && K.compare k sep > 0 then right else leaf in
        commit_entry t target ~from:prev k v h
      with
      | () ->
        put_tail t leaf !split hold;
        true
      | exception e ->
        put_tail t leaf !split hold;
        raise e
    end

  (* Named once: a partial application at each call would build a
     closure per op. *)
  let put_new = put_op ~update:false
  let put_old = put_op ~update:true

  (* Mutations and [create] enter through [traced], which sets the op
     for attribution and, while the gate or tracing is on, brackets
     [f x y z] as a flight op record keyed by [key y]: in a traced run
     the op records are pmcheck's scopes (they attribute persistence
     events and bound the analyzer's dirty-at-publication check).
     Otherwise it calls [f] directly and builds no closure. *)
  let traced ~op ~key ~ok f x y z =
    let ko = Obs.Attrib.set_op op in
    let r =
      if Obs.Gate.(any (observe lor tracing)) then
        Obs.Flight.bracket ~op ~key:(key y) ~ok (fun () -> f x y z)
      else f x y z
    in
    Obs.Attrib.restore_op ko;
    r

  let insert t k v =
    traced ~op:Obs.Event.op_insert ~key:K.fingerprint ~ok:Fun.id put_new t k v

  let update t k v =
    traced ~op:Obs.Event.op_update ~key:K.fingerprint ~ok:Fun.id put_old t k v

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

    let body t k h rs =
      let leaf, prev = Inner.find_leaf_and_prev_rs rs t.inner k in
      if not (try_lock t leaf) then
        Spec.abort rs ~obj:(Sched.obj_lock leaf.Inner.off);
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
            Spec.abort rs ~obj:(Sched.obj_lock p.Inner.off)
          end
          else if Nv.validate rs then Del_whole_leaf (leaf, Some p)
          else begin
            unlock t p;
            unlock t leaf;
            raise Nv.Conflict
          end
  end)

  (* Retire the entry in [slot] of [leaf]: one p-atomic bitmap write,
     the checksum, then its key block (Algorithms 5 and 15). *)
  let clear_entry t leaf slot =
    Layout.commit_bitmap (region t) ~leaf t.layout
      (leaf_bitmap t leaf land lnot (1 lsl slot));
    refresh_csum t leaf;
    K.dealloc t.ctx ~off:(key_cell t leaf slot)

  let delete_op t k () =
    if stats_on () then t.stats.deletes <- t.stats.deletes + 1;
    let h = K.fingerprint k in
    match Delete_section.run t k h with
    | Del_in_leaf leaf ->
      let slot = find_slot t leaf.Inner.off k h in
      if slot >= 0 then begin
        ver_begin t leaf;
        clear_entry t leaf.Inner.off slot;
        ver_end t leaf
      end;
      unlock t leaf;
      slot >= 0
    | Del_whole_leaf (leaf, prev) ->
      (* The dying leaf's version phase spans the var-key clearing, the
         inner-structure unlink, and the chain unlink; the
         predecessor's phase covers its next-pointer overwrite, as
         every leaf mutation runs inside its leaf's phase. *)
      ver_begin t leaf;
      (match prev with Some p -> ver_begin t p | None -> ());
      (* Var keys: clear the entry and free its key block first
         (Algorithm 15, lines 16–18). *)
      (if not K.inline then begin
         let slot = find_slot t leaf.Inner.off k h in
         assert (slot >= 0);
         clear_entry t leaf.Inner.off slot
       end);
      Spec.with_write t.spec (fun () -> Inner.remove_leaf t.inner k);
      delete_leaf t leaf prev;
      (match prev with Some p -> ver_end t p | None -> ());
      ver_end t leaf;
      Option.iter (unlock t) prev;
      true

  let delete t k =
    traced ~op:Obs.Event.op_delete ~key:K.fingerprint ~ok:Fun.id delete_op t k ()

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
    let ko = Obs.Attrib.set_op Obs.Event.op_reclaim in
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

  (* The one refusal path: [try_put] runs an admitted [put], and an
     [Out_of_scm] that escapes it anyway (the hard reserve makes that
     unreachable for an admitted insert; an injected or pathological
     failure, or an update's split, can still get here) left the tree
     as it was, so it is refused the same way as at the watermark,
     after a reclamation. *)
  let refuse t ~op k =
    note_refused t ~op ~fp:(K.fingerprint k);
    Error `Out_of_space

  let try_put t ~op put k v =
    match put t k v with
    | r -> Ok r
    | exception Pmem.Palloc.Out_of_scm ->
      ignore (reclaim_space t);
      refuse t ~op k

  let try_insert t k v =
    let a = alloc t in
    let reserve = insert_reserve t in
    (* Refused at the watermark: reclaim synchronously and retry the
       admission once before giving up. *)
    if Pmem.Palloc.admit a ~reserve
       || (ignore (reclaim_space t); Pmem.Palloc.admit a ~reserve)
    then begin
      note_admitted t;
      try_put t ~op:Obs.Event.op_insert insert k v
    end
    else refuse t ~op:Obs.Event.op_insert k

  (* No admission gate: updates in place must keep working past the
     watermark.  Only the (rare) split-on-update path allocates, and it
     unwinds cleanly on exhaustion. *)
  let try_update t k v = try_put t ~op:Obs.Event.op_update update k v

  (* Deletes never allocate; the envelope exists so every mutating op
     has the same typed signature at the upper layers. *)
  let try_delete t k = Ok (delete t k)

  let degraded t = t.degraded
  let bytes_free t = Pmem.Palloc.bytes_free (alloc t)
  let watermark_state t = Pmem.Palloc.watermark_state (alloc t)

  (* A range scan's per-call state: the gather scratch arrays, the
     upper end, and the routing bound and parent the last leaf's
     descent left. *)
  type scan = {
    tree : t;
    hi : K.t;
    lk : K.t array;
    lv : int array;
    upper : K.t Inner.upper;
  }

  (* One leaf of a range scan, read the way [Find_section] reads one:
     the leaf for [key] (the one just above [key] when [above]) is
     found on a validated path, its hits are gathered into [lk]/[lv]
     between an observation of its version word and the validation,
     and their count is returned; [upper] holds the leaf's bound. *)
  module Range_section = Spec.Section (struct
    type ctx = scan
    type arg = K.t
    type aux = bool
    type res = int

    let lock s = s.tree.spec
    let committed _ = ()

    let gather s (leaf : Inner.leaf_ref) lo =
      let t = s.tree in
      K.gather t.ctx t.layout ~leaf:leaf.Inner.off
        ~bm:(leaf_bitmap t leaf.Inner.off) ~lo ~hi:s.hi s.lk s.lv

    let body s key above rs =
      let leaf =
        Inner.find_leaf_upper_rs rs s.tree.inner key ~above s.upper
      in
      Nv.observe_id rs leaf.Inner.ver leaf.Inner.off;
      let n = gather s leaf key in
      if Nv.validate rs then n else raise Nv.Conflict
  end)

  (** Inclusive range scan, one validated section per leaf.  The first
      leaf is the one for [lo]; each later one is the leaf holding the
      keys just above the previous leaf's routing upper bound, found
      through that leaf's parent or from the root
      ({!Inner.find_leaf_upper_rs}), and the scan stops after a leaf
      whose bound is [>= hi] (or which has none: the rightmost
      leaf).  A leaf is read the way a find reads
      one ({!Range_section}), so its keys are those of one committed
      state, each once, and [K.gather] returns the leaf's hits sorted
      in the per-call scratch arrays ([lk]/[lv], m slots each); they
      are consed onto the result before the next leaf is read.
      [leaf]/[emit] build the list front to back in constant stack
      ([tail_mod_cons]), so a call allocates its result (a cons and a
      pair per hit), the two scratch arrays and the scan record.

      A later leaf is gathered from the previous bound [b] up, and a
      first hit equal to [b] is skipped: every key the scan has
      emitted is [<= b], and the leaf just above [b] still routes [b]
      itself when the leaf after the previous one was removed and the
      previous one absorbed its range.  The result is strictly
      ascending; each leaf is a snapshot taken at its own validation,
      not the whole range at one instant. *)
  let range_op t ~lo ~hi =
    if K.compare lo hi > 0 then []
    else begin
      let m = t.layout.Layout.m in
      let s =
        { tree = t; hi; lk = Array.make m K.dummy; lv = Array.make m 0;
          upper = Inner.upper t.inner lo }
      in
      let[@tail_mod_cons] rec leaf key above =
        let n = Range_section.run s key above in
        emit (if above && n > 0 && K.compare s.lk.(0) key = 0 then 1 else 0) n
      and[@tail_mod_cons] emit i n =
        if i < n then (s.lk.(i), s.lv.(i)) :: emit (i + 1) n
        else if s.upper.Inner.bounded && K.compare s.upper.Inner.key hi < 0 then
          leaf s.upper.Inner.key true
        else []
      in
      leaf lo false
    end

  let range t ~lo ~hi =
    if not (Obs.Gate.enabled ()) then range_op t ~lo ~hi
    else
      Obs.Flight.bracket ~op:Obs.Event.op_range ~key:(K.fingerprint lo)
        ~ok:(fun _ -> true) (fun () -> range_op t ~lo ~hi)

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
    Inner.dram_bytes t.inner + Leaf_groups.dram_bytes t.groups

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
      spec = Spec.create ~retry_threshold:cfg.htm_retries ();
      inner =
        Inner.create ~fanout:(cfg.inner_keys + 1) ~kind:K.inner_kind
          Inner.no_leaf;
      split_logs = logs cfg.n_split_logs (fun i -> D.Split i);
      delete_logs = logs cfg.n_delete_logs (fun i -> D.Delete i);
      groups = Leaf_groups.create ctx ~meta cfg layout;
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
    let region = Region.id (region t) in
    Obs.Flight.track_reset ~region;
    Obs.Flight.leaf_layout ~region ~bytes:t.layout.Layout.bytes

  (** Create a fresh tree in [alloc]'s region.  The tree descriptor is
      anchored at the allocator root. *)
  let create_op config alloc () =
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
      Inner.create ~fanout:(config.inner_keys + 1) ~kind:K.inner_kind
        (Inner.leaf_ref first);
    t

  let create ?(config = fptree_config) alloc =
    traced ~op:Obs.Event.op_create ~key:(fun _ -> 0) ~ok:(fun _ -> true)
      create_op config alloc ()

  (* Rebuild the volatile side from the persistent leaves: Algorithm 9
     (and the leak audit of Algorithm 17 for var keys).  With groups,
     the pool and the group list's tail are rebuilt from the group
     walk ({!Leaf_groups.rebuild}). *)
  let rebuild_volatile t =
    (* Walk the leaf list: discriminators, leak audit, lock resets.  A
       link the walk will not follow refuses the image: without
       checksums recovery salvages nothing (fsck --repair does), and
       with them the quarantine pass has already cut every bad link. *)
    let leaves = ref [] in
    let in_list =
      let chain = chain t in
      D.walk ~bad:(D.refuse chain) chain (fun ~cell:_ ~next leaf ->
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
          let mk = Option.value !max_key ~default:K.dummy in
          leaves := (mk, Inner.leaf_ref leaf) :: !leaves;
          next)
    in
    let arr = Array.of_list (List.rev !leaves) in
    t.inner <-
      Inner.rebuild ~fanout:(t.config.inner_keys + 1) ~kind:K.inner_kind arr;
    (* Rebuild the volatile free-leaf pool from the group list.
       Quarantined leaves are out of the list but must not be recycled
       as free. *)
    if t.config.use_groups then begin
      List.iter (fun l -> Hashtbl.replace in_list l ()) t.quarantined;
      Leaf_groups.rebuild t.groups ~in_use:(Hashtbl.mem in_list)
    end

  (* ---- recovery checksum validation (quarantine pass) ---- *)

  (* Walk the persistent leaf list validating each leaf's integrity
     cell (checksum layouts only).  Stale cells — a crash hit the
     window between a p-atomic bitmap commit and the checksum refresh —
     are recomputed in place.  Corrupt leaves (torn or media-damaged
     content) are spliced out of the list and quarantined behind
     [Metrics.quarantined_leaves]: the tree comes back serving the
     surviving keyspace instead of aborting recovery.  A link the walk
     will not follow (dangling or closing a cycle) is cut: the keys
     behind it are unreachable either way.  The one exception is a
     head link cut before any leaf was quarantined: that would leave no
     leaf at all, not even one to scrub below, so it refuses the image
     as the walk without checksums does.  Splices and cuts are
     committed 16-byte pointer publishes, so a crash mid-pass leaves a
     list this same pass converges on when re-run. *)
  let quarantine_pass t =
    if t.layout.Layout.checksums then begin
      let r = region t in
      let chain = chain t in
      let span = chain.D.span in
      let head_cell = chain.D.head in
      let set_next cell p =
        if cell = head_cell then write_head t p
        else begin
          let sc = Scope.enter Obs.Attrib.comp_recovery in
          Pptr.write_committed r cell p;
          Scope.leave sc
        end
      in
      ignore
        (D.walk chain
           ~bad:(fun ~cell p fault ->
             if cell = head_cell && t.quarantined = [] then
               D.refuse chain ~cell p fault
             else set_next cell Pptr.null)
           (fun ~cell ~next leaf ->
             match Layout.verify_checksum r ~leaf t.layout with
             | Layout.Csum_ok -> next
             | Layout.Csum_stale ->
               Layout.write_checksum r ~leaf t.layout;
               next
             | Layout.Csum_corrupt ->
               t.quarantined <- leaf :: t.quarantined;
               Obs.Counter.incr Metrics.quarantined_leaves;
               let p = leaf_next t leaf in
               set_next cell (if Pptr.plausible r ~span p then p else Pptr.null);
               cell));
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
    let ko = Obs.Attrib.set_op Obs.Event.op_recover in
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
          (* With groups, the pool's rebuild takes an unlinked leaf back. *)
          Microlog.Pool.iter
            (D.redo_unlink (chain t) ~release:(fun from ->
                 if not cfg.use_groups then Pmem.Palloc.free alloc ~from))
            t.delete_logs);
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

  (** Structural invariant check (tests): every inner node's
      separators ascend and it is in canonical form
      ({!Inner.check}), leaves are in strictly increasing key order
      along the linked list, every key routes to its leaf through the
      inner nodes, and fingerprints match. *)
  let check_invariants t =
    Inner.check t.inner;
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
            let routed = Inner.descend t.inner.Inner.root k in
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
      Leaf_lock.is_locked (Inner.descend t.inner.Inner.root k)

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
