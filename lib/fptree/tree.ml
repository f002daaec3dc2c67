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

type config = {
  m : int;               (** leaf capacity (2..64) *)
  value_bytes : int;     (** persisted value footprint; >= 8, mult. of 8 *)
  inner_keys : int;      (** max keys per DRAM inner node *)
  fingerprints : bool;
  split_arrays : bool;   (** PTree layout: keys and values in separate arrays *)
  use_groups : bool;     (** amortized leaf-group allocation (single-threaded) *)
  group_size : int;
  n_split_logs : int;
  n_delete_logs : int;
  htm_retries : int;
  htm_backoff : int;     (** backoff ceiling between speculative retries *)
  checksums : bool;
      (** Per-leaf integrity cell: every committed leaf mutation is
          followed by a checksum refresh, and recovery quarantines
          leaves that fail validation instead of trusting them.  Off by
          default — the extra persists would skew the paper's Table 1 /
          Fig. 11 counts. *)
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

(** Node of the volatile free-leaf pool: an intrusive circular
    doubly-linked list with a sentinel, so that [free_group] can evict
    one group's leaves in O(group_size) instead of filtering the whole
    pool, while keeping the exact LIFO order of the original list. *)
type free_node = {
  fl_leaf : int;
  mutable fl_prev : free_node;
  mutable fl_next : free_node;
}

let free_sentinel () =
  let rec s = { fl_leaf = -1; fl_prev = s; fl_next = s } in
  s

(* ---- persistent tree descriptor layout ----

   Key-representation independent, and at the toplevel so offline tools
   (the fsck subsystem) can parse a region without instantiating the
   functor. *)

let meta_status = 0
let meta_m = 8
let meta_value_bytes = 16
let meta_key_kind = 24
let meta_flags = 32
let meta_n_split = 40
let meta_n_delete = 48
let meta_group_size = 56
let meta_head = 64
let meta_group_head = 80
let meta_group_tail = 96
let meta_logs = 128

let meta_bytes cfg =
  meta_logs + ((cfg.n_split_logs + cfg.n_delete_logs + 2) * Microlog.slot_bytes)

let flags_of cfg =
  (if cfg.fingerprints then 1 else 0)
  lor (if cfg.split_arrays then 2 else 0)
  lor (if cfg.use_groups then 4 else 0)
  lor (if cfg.checksums then 8 else 0)

let config_of_meta region meta base_cfg =
  let w off = Int64.to_int (Scm.Region.read_int64 region (meta + off)) in
  let flags = w meta_flags in
  { base_cfg with
    m = w meta_m;
    value_bytes = w meta_value_bytes;
    fingerprints = flags land 1 <> 0;
    split_arrays = flags land 2 <> 0;
    use_groups = flags land 4 <> 0;
    checksums = flags land 8 <> 0;
    n_split_logs = w meta_n_split;
    n_delete_logs = w meta_n_delete;
    group_size = w meta_group_size;
  }

(** Key-cell footprint for a persisted key-kind word (0 = inline 8-byte
    keys, otherwise a 16-byte persistent pointer cell) — lets offline
    tools reconstruct the leaf layout without the key functor. *)
let key_cell_bytes_of_kind kind = if kind = 0 then 8 else Pmem.Pptr.size_bytes

(** Leaf layout implied by a tree configuration. *)
let layout_of ~key_cell_bytes cfg =
  let l =
    Layout.make ~m:cfg.m ~key_bytes:key_cell_bytes ~value_bytes:cfg.value_bytes
      ~fingerprints:cfg.fingerprints ~split_arrays:cfg.split_arrays
  in
  if cfg.checksums then Layout.with_checksums l else l

module Make (K : Keys.KEY) = struct
  type key = K.t

  type t = {
    ctx : Keys.ctx;
    layout : Layout.t;
    config : config;
    meta : int; (* offset of the persistent tree descriptor *)
    spec : Spec.t;
    mutable inner : K.t Inner.t;
    split_logs : Microlog.Pool.t;
    delete_logs : Microlog.Pool.t;
    getleaf_log : Microlog.t;
    freeleaf_log : Microlog.t;
    (* volatile leaf-group bookkeeping (single-threaded mode) *)
    free_head : free_node;                  (* sentinel of the free-leaf pool *)
    mutable n_free : int;                   (* pool size, maintained *)
    free_nodes : (int, free_node) Hashtbl.t; (* leaf off -> pool node *)
    leaf_group : (int, int) Hashtbl.t;      (* leaf off -> group off *)
    group_free : (int, int ref) Hashtbl.t;  (* group off -> #free leaves *)
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

  (* (the descriptor-layout constants — [meta_status] .. [meta_logs],
     [meta_bytes] — live at the toplevel, shared with offline tools) *)

  let split_log_off t i = t.meta + meta_logs + (i * Microlog.slot_bytes)
  let delete_log_off t i = split_log_off t (t.config.n_split_logs + i)
  let getleaf_log_off t =
    split_log_off t (t.config.n_split_logs + t.config.n_delete_logs)
  let freeleaf_log_off t = getleaf_log_off t + Microlog.slot_bytes

  let read_meta_word t off = Int64.to_int (Region.read_int64 (region t) (t.meta + off))

  let write_meta_word t off v =
    let sc = Scope.enter Obs.Attrib.comp_tree_meta in
    Region.write_int64_atomic (region t) (t.meta + off) (Int64.of_int v);
    Scope.persist_in_scope (region t) (t.meta + off) 8;
    Scope.leave sc

  let read_head t = Pptr.read (region t) (t.meta + meta_head)
  let write_head t p =
    let sc = Scope.enter Obs.Attrib.comp_tree_meta in
    Pptr.write_committed (region t) (t.meta + meta_head) p;
    Scope.leave sc
  let read_group_head t = Pptr.read (region t) (t.meta + meta_group_head)
  let write_group_head t p =
    let sc = Scope.enter Obs.Attrib.comp_tree_meta in
    Pptr.write_committed (region t) (t.meta + meta_group_head) p;
    Scope.leave sc
  let read_group_tail t = Pptr.read (region t) (t.meta + meta_group_tail)
  let write_group_tail t p =
    let sc = Scope.enter Obs.Attrib.comp_tree_meta in
    Pptr.write_committed (region t) (t.meta + meta_group_tail) p;
    Scope.leave sc

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

  (* ---- leaf locks (volatile; Selective Concurrency) ---- *)

  (* The lock-transition trace events bracket the lock's critical
     section from the analyzer's point of view: acquire is announced
     after a successful CAS, release before the flag drops — so another
     domain's acquire can never appear before our release in the trace
     order. *)
  let try_lock t (l : Inner.leaf_ref) =
    (* Test-and-test-and-set: a contended attempt fails on the plain
       load without dirtying the lock line.  This also keeps the model
       checker's wake-ups tied to real lock-word transitions — a failed
       CAS would count as a write and let contending fibers wake each
       other forever. *)
    let obj = Sched.obj_lock l.Inner.off in
    let ok =
      (not (Sched.get ~obj l.Inner.lock))
      && Sched.cas ~obj l.Inner.lock false true
    in
    if ok && Scm.Pmtrace.enabled () then
      Scm.Pmtrace.lock_acquire ~region:(Region.id (region t)) ~leaf:l.Inner.off;
    ok

  let unlock t (l : Inner.leaf_ref) =
    if Scm.Pmtrace.enabled () then
      Scm.Pmtrace.lock_release ~region:(Region.id (region t)) ~leaf:l.Inner.off;
    Sched.set ~obj:(Sched.obj_lock l.Inner.off) l.Inner.lock false

  let is_locked (l : Inner.leaf_ref) =
    Sched.get ~obj:(Sched.obj_lock l.Inner.off) l.Inner.lock

  (* ---- per-node version phases (precise conflict detection) ---- *)

  (* A leaf's version word lives in its [Inner.leaf_ref] ([ver]),
     right next to the lock the writer already holds.  A write phase on
     it is the precise analogue of "this leaf's cache lines are in a
     TSX writer's write set": concurrent optimistic readers that
     observed the word abort, later ones abort on the busy count.  The
     phases are count-encoded, so nesting (insert-into-nonfull inside
     a split bracket) is safe.

     The trace events sit inside the version phase — emitted after
     [begin_write] and before [end_write] — so in the recorded history
     every store to the leaf falls strictly between them and the
     analyzer's unversioned-leaf-store check is exact. *)
  let ver_begin t (l : Inner.leaf_ref) =
    Nv.begin_write_id l.Inner.ver l.Inner.off;
    if Scm.Pmtrace.enabled () then
      Scm.Pmtrace.ver_begin ~region:(Region.id (region t)) ~leaf:l.Inner.off

  let ver_end t (l : Inner.leaf_ref) =
    if Scm.Pmtrace.enabled () then
      Scm.Pmtrace.ver_end ~region:(Region.id (region t)) ~leaf:l.Inner.off;
    Nv.end_write_id l.Inner.ver l.Inner.off

  (* ---- leaf groups (Section 4.3 and Appendix B) ---- *)

  let leaf_span t = Scm.Cacheline.align_up t.layout.Layout.bytes 64
  let group_bytes t = 64 + (t.config.group_size * leaf_span t)
  let group_leaf t g i = g + 64 + (i * leaf_span t)

  let group_next t g = Pptr.read (region t) g
  let write_group_next t g p =
    let sc = Scope.enter Obs.Attrib.comp_tree_meta in
    Pptr.write_committed (region t) g p;
    Scope.leave sc

  let register_group t g =
    Hashtbl.replace t.group_free g (ref 0);
    for i = t.config.group_size - 1 downto 0 do
      let l = group_leaf t g i in
      Hashtbl.replace t.leaf_group l g
    done

  (* Push at the head: same LIFO discipline as the original cons list. *)
  let add_free_leaf t l =
    let s = t.free_head in
    let n = { fl_leaf = l; fl_prev = s; fl_next = s.fl_next } in
    s.fl_next.fl_prev <- n;
    s.fl_next <- n;
    Hashtbl.replace t.free_nodes l n;
    t.n_free <- t.n_free + 1;
    incr (Hashtbl.find t.group_free (Hashtbl.find t.leaf_group l))

  let unlink_free_node t n =
    n.fl_prev.fl_next <- n.fl_next;
    n.fl_next.fl_prev <- n.fl_prev;
    Hashtbl.remove t.free_nodes n.fl_leaf;
    t.n_free <- t.n_free - 1

  let clear_free_pool t =
    let s = t.free_head in
    s.fl_next <- s;
    s.fl_prev <- s;
    Hashtbl.reset t.free_nodes;
    t.n_free <- 0

  (* Append group [g] to the persistent group list; idempotent so that
     recovery can redo it. *)
  let link_group t g =
    let gp = pptr_of t g in
    let tail = read_group_tail t in
    if Pptr.is_null tail then write_group_head t gp
    else write_group_next t tail.Pptr.off gp;
    write_group_tail t gp

  (** GetLeaf (Algorithm 10): take a free leaf, allocating and linking a
      fresh group of [group_size] leaves when the pool is empty. *)
  let get_leaf t =
    if t.n_free = 0 then begin
      let log = t.getleaf_log in
      Pmem.Palloc.alloc (alloc t) ~into:(Microlog.fst_loc log) (group_bytes t);
      let g = (Microlog.read_fst log).Pptr.off in
      let sc = Scope.enter Obs.Attrib.comp_tree_meta in
      Pptr.reset_committed (region t) g; (* group.next = null *)
      Scope.leave sc;
      link_group t g;
      Microlog.reset log;
      register_group t g;
      for i = 0 to t.config.group_size - 1 do
        add_free_leaf t (group_leaf t g i)
      done
    end;
    let n = t.free_head.fl_next in
    assert (n != t.free_head);
    unlink_free_node t n;
    let l = n.fl_leaf in
    decr (Hashtbl.find t.group_free (Hashtbl.find t.leaf_group l));
    l

  let recover_getleaf t =
    let log = t.getleaf_log in
    if not (Microlog.is_idle log) then begin
      let g = (Microlog.read_fst log).Pptr.off in
      let tail = read_group_tail t in
      if Pptr.is_null tail || tail.Pptr.off <> g then begin
        (* Crashed before the group was fully linked: redo. *)
        let sc = Scope.enter Obs.Attrib.comp_tree_meta in
        Pptr.reset_committed (region t) g;
        Scope.leave sc;
        link_group t g
      end;
      Microlog.reset log
    end

  (* Recompute the persistent group-list tail by walking from the head
     (recovery helper for group frees; idempotent). *)
  let fix_group_tail t =
    let rec last p =
      if Pptr.is_null p then Pptr.null
      else
        let next = group_next t p.Pptr.off in
        if Pptr.is_null next then p else last next
    in
    let tail = last (read_group_head t) in
    if not (Pptr.equal (read_group_tail t) tail) then write_group_tail t tail

  (* Unlink and deallocate a fully-free group (Algorithm 12). *)
  let free_group t g =
    (* Evict this group's leaves from the pool in O(group_size); unlinking
       preserves the relative order of the survivors, exactly like the
       List.filter this replaces. *)
    for i = 0 to t.config.group_size - 1 do
      let l = group_leaf t g i in
      (match Hashtbl.find_opt t.free_nodes l with
      | Some n -> unlink_free_node t n
      | None -> ());
      Hashtbl.remove t.leaf_group l
    done;
    Hashtbl.remove t.group_free g;
    let log = t.freeleaf_log in
    Microlog.set_fst log (pptr_of t g);
    let head = read_group_head t in
    (if head.Pptr.off = g then write_group_head t (group_next t g)
     else begin
       (* find the predecessor group *)
       let rec pred p =
         let next = group_next t p.Pptr.off in
         if next.Pptr.off = g then p else pred next
       in
       let prev = pred head in
       Microlog.set_snd log prev;
       write_group_next t prev.Pptr.off (group_next t g)
     end);
    if (read_group_tail t).Pptr.off = g then fix_group_tail t;
    Pmem.Palloc.free (alloc t) ~from:(Microlog.fst_loc log);
    Microlog.reset log

  let recover_freeleaf t =
    let log = t.freeleaf_log in
    if not (Microlog.is_idle log) then begin
      let gp = Microlog.read_fst log in
      let g = gp.Pptr.off in
      let prev = Microlog.read_snd log in
      let head = read_group_head t in
      let finish () =
        fix_group_tail t;
        Pmem.Palloc.free (alloc t) ~from:(Microlog.fst_loc log);
        Microlog.reset log
      in
      if not (Pptr.is_null prev) then begin
        write_group_next t prev.Pptr.off (group_next t g);
        finish ()
      end
      else if (not (Pptr.is_null head)) && head.Pptr.off = g then begin
        write_group_head t (group_next t g);
        finish ()
      end
      else if Pptr.equal (group_next t g) head then finish ()
      else Microlog.reset log
    end

  (** FreeLeaf (Algorithm 12): return a leaf to the volatile pool and
      deallocate its group once fully free. *)
  let free_leaf t l =
    if Scm.Pmtrace.enabled () then
      Scm.Pmtrace.leaf_retired ~region:(Region.id (region t)) ~leaf:l;
    add_free_leaf t l;
    let g = Hashtbl.find t.leaf_group l in
    if !(Hashtbl.find t.group_free g) = t.config.group_size then free_group t g

  (* ---- leaf split (Algorithm 3) ---- *)

  (* In-place binary-insertion sort of parallel arrays by key; [aux]
     entries ride along.  n <= m <= 64 and every [K.compare] is an
     indirect call through the functor, so the binary search keeps the
     comparison count at n log n while the shifts — plain array moves —
     stay the cheap part.  Beats both a plain insertion sort (n^2/4
     compares) and a general sort with its closure calls. *)
  let sort_by_key keys aux n =
    for i = 1 to n - 1 do
      let k = keys.(i) and a = aux.(i) in
      (* position for k in the sorted prefix [0, i) *)
      let lo = ref 0 and hi = ref i in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if K.compare keys.(mid) k > 0 then hi := mid else lo := mid + 1
      done;
      let pos = !lo in
      Array.blit keys pos keys (pos + 1) (i - pos);
      Array.blit aux pos aux (pos + 1) (i - pos);
      keys.(pos) <- k;
      aux.(pos) <- a
    done

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

  let split_leaf t (leaf : Inner.leaf_ref) =
    let instrumented = stats_on () in
    let t0 = if instrumented then Obs.Trace.now_us () else 0. in
    if instrumented then t.stats.leaf_splits <- t.stats.leaf_splits + 1;
    let log = Microlog.Pool.acquire t.split_logs in
    Microlog.set_fst log (pptr_of t leaf.Inner.off);
    let fresh =
      match
        if t.config.use_groups then begin
          let l = get_leaf t in
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
    let sep = do_split_steps t ~cur:leaf.Inner.off ~fresh in
    Microlog.reset log;
    Microlog.Pool.release t.split_logs log;
    if instrumented then
      Obs.Histogram.record Metrics.split_us
        (int_of_float (Obs.Trace.now_us () -. t0));
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
       free_leaf t leaf.Inner.off
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
           before its first mutation until the parents reference the
           new right sibling.  In the window after [cur]'s bitmap
           shrinks but before [update_parents], keys above [sep] live
           only in the (unreachable) right leaf — a reader of [cur]
           must not validate there. *)
        ver_begin t leaf;
        match split_leaf t leaf with
        | exception e ->
          (* The split's own unwind ran (log disarmed, nothing
             persisted): close the phase, release the lock, unwind. *)
          ver_end t leaf;
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
            unlock t leaf;
            raise e);
          Spec.with_write t.spec (fun () ->
              Inner.update_parents t.inner K.compare ~sep ~right);
          ver_end t leaf;
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
         window until the parents reference the right sibling. *)
      ver_begin t leaf;
      let target, prev_slot, did_split, sep_right =
        if leaf_is_full t leaf.Inner.off then
          match split_leaf t leaf with
          | exception e ->
            (* Exhaustion before any mutation (the split unwound):
               close the phase, release the lock, leave the old entry
               standing. *)
            ver_end t leaf;
            unlock t leaf;
            raise e
          | sep, right ->
            let target = if K.compare k sep <= 0 then leaf else right in
            let slot = find_slot t target.Inner.off k h in
            assert (slot >= 0);
            (target, slot, true, Some (sep, right))
        else (leaf, prev_slot0, false, None)
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
      if t.config.use_groups then group_bytes t else t.layout.Layout.bytes
    in
    Pmem.Palloc.gross_bytes leaf_bytes
    + (if K.inline then 0
       else Pmem.Palloc.gross_bytes (8 + Keys.max_var_key_len))

  (* Emergency reclamation (refusal path only): retire fully-free leaf
     groups parked in the volatile pool back to the allocator, then ask
     the allocator to hand free tail blocks back to the arena.  Returns
     the bytes returned to the bump region. *)
  let reclaim_space_op t =
    if t.config.use_groups then begin
      let full =
        Hashtbl.fold
          (fun g n acc -> if !n = t.config.group_size then g :: acc else acc)
          t.group_free []
      in
      List.iter (fun g -> free_group t g) full
    end;
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

  (* ---- post-unwind invariant probes (exhaustion sweep tests) ---- *)

  (* Every micro-log slot disarmed — a refused op must not leave one
     armed (recovery would otherwise replay a phantom op). *)
  let logs_idle t =
    let ok = ref true in
    let chk log = if not (Microlog.is_idle log) then ok := false in
    Microlog.Pool.iter chk t.split_logs;
    Microlog.Pool.iter chk t.delete_logs;
    chk t.getleaf_log;
    chk t.freeleaf_log;
    !ok

  (* The leaf currently covering [k] is not left locked by an unwound
     op. *)
  let leaf_locked_for t k =
    is_locked (Inner.find_leaf K.compare t.inner.Inner.root k)

  (* Start-leaf descent for a range scan, on the per-node protocol
     (the walk itself reads dirty).  A torn read during a
     racing structural update is an exception the driver retries
     rather than letting it escape to the range caller. *)
  module Range_start_section = Spec.Section (struct
    type ctx = t
    type arg = K.t
    type aux = unit
    type res = Inner.leaf_ref

    let lock t = t.spec
    let committed _ = ()

    let optimistic t lo () rs =
      let leaf = Inner.find_leaf_rs rs K.compare t.inner lo in
      if Nv.validate rs then leaf else raise Nv.Conflict

    let locked t lo () = Inner.find_leaf K.compare t.inner.Inner.root lo
  end)

  (** Inclusive range scan via the leaf linked list.  Reads are dirty
      (no leaf locks taken); the result is sorted.  The leaf chain is
      in key order, so sorting each (unsorted) leaf's hits in place and
      appending them to a growable buffer yields a sorted result with
      no global cons-then-sort pass — O(hits) buffer space and one
      final list build instead of O(n log n) list churn. *)
  let range_op t ~lo ~hi =
    if K.compare lo hi > 0 then []
    else begin
      let start = Range_start_section.run t lo () in
      let m = t.layout.Layout.m in
      let cap = ref 64 in
      let ks = ref (Array.make !cap K.dummy) in
      let vs = ref (Array.make !cap 0) in
      let len = ref 0 in
      (* per-leaf scratch for the in-leaf sort *)
      let lk = Array.make m K.dummy in
      let lv = Array.make m 0 in
      let rec walk leaf =
        let bm = leaf_bitmap t leaf in
        let any_le_hi = ref false in
        let nonempty = bm <> 0 in
        let nhits = ref 0 in
        for s = 0 to m - 1 do
          if bm land (1 lsl s) <> 0 then begin
            let k = read_key t leaf s in
            if K.compare k hi <= 0 then begin
              any_le_hi := true;
              if K.compare lo k <= 0 then begin
                lk.(!nhits) <- k;
                lv.(!nhits) <- read_value t leaf s;
                incr nhits
              end
            end
          end
        done;
        let nhits = !nhits in
        sort_by_key lk lv nhits;
        if !len + nhits > !cap then begin
          let cap' = max (!cap * 2) (!len + nhits) in
          let ks' = Array.make cap' K.dummy in
          let vs' = Array.make cap' 0 in
          Array.blit !ks 0 ks' 0 !len;
          Array.blit !vs 0 vs' 0 !len;
          ks := ks';
          vs := vs';
          cap := cap'
        end;
        Array.blit lk 0 !ks !len nhits;
        Array.blit lv 0 !vs !len nhits;
        len := !len + nhits;
        if nonempty && not !any_le_hi then ()
        else begin
          (* probe the next pointer's words directly: no Pptr record *)
          let noff = leaf + t.layout.Layout.next_off in
          if not (Pptr.is_null_at (region t) noff) then
            walk (Pptr.off_at (region t) noff)
        end
      in
      walk start.Inner.off;
      let ks = !ks and vs = !vs in
      let rec build i acc =
        if i < 0 then acc else build (i - 1) ((ks.(i), vs.(i)) :: acc)
      in
      build (!len - 1) []
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
    + (t.n_free * 8)
    + (Hashtbl.length t.leaf_group * 16)

  (** SCM footprint of the tree's arena (live allocated bytes). *)
  let scm_bytes t = Pmem.Palloc.live_bytes (alloc t)

  let stats t = t.stats
  let spec_stats t = Spec.stats t.spec

  (** Abort-reason breakdown as an assoc list ({!Tree_intf.S}). *)
  let htm_stats t = Spec.stats_assoc t.spec

  let reset_stats t =
    let s = t.stats in
    s.key_probes <- 0; s.finds <- 0; s.inserts <- 0; s.updates <- 0;
    s.deletes <- 0; s.leaf_splits <- 0; s.leaf_deletes <- 0

  (* ---- construction and recovery ---- *)

  let make_logs t_region meta cfg =
    let split =
      Array.init cfg.n_split_logs (fun i ->
          Microlog.make t_region (meta + meta_logs + (i * Microlog.slot_bytes)))
    in
    let del =
      Array.init cfg.n_delete_logs (fun i ->
          Microlog.make t_region
            (meta + meta_logs + ((cfg.n_split_logs + i) * Microlog.slot_bytes)))
    in
    let getl =
      Microlog.make t_region
        (meta + meta_logs
        + ((cfg.n_split_logs + cfg.n_delete_logs) * Microlog.slot_bytes))
    in
    let freel =
      Microlog.make t_region
        (meta + meta_logs
        + ((cfg.n_split_logs + cfg.n_delete_logs + 1) * Microlog.slot_bytes))
    in
    (split, del, getl, freel)

  let fresh_stats () =
    { key_probes = 0; finds = 0; inserts = 0; updates = 0; deletes = 0;
      leaf_splits = 0; leaf_deletes = 0 }

  let layout_of_config cfg ~key_cell_bytes = layout_of ~key_cell_bytes cfg

  let build_volatile ctx cfg meta =
    let layout = layout_of_config cfg ~key_cell_bytes:K.cell_bytes in
    let split, del, getl, freel = make_logs ctx.Keys.region meta cfg in
    {
      ctx; layout; config = cfg; meta;
      spec =
        Spec.create ~retry_threshold:cfg.htm_retries
          ~backoff_ceiling:cfg.htm_backoff ();
      inner = Inner.create ~fanout:(cfg.inner_keys + 1) ~dummy_key:K.dummy
                (Inner.leaf_ref (-1));
      split_logs = Microlog.Pool.create split;
      delete_logs = Microlog.Pool.create del;
      getleaf_log = getl;
      freeleaf_log = freel;
      free_head = free_sentinel ();
      n_free = 0;
      free_nodes = Hashtbl.create 64;
      leaf_group = Hashtbl.create 64;
      group_free = Hashtbl.create 16;
      scratch_keys = Array.make layout.Layout.m K.dummy;
      scratch_slots = Array.make layout.Layout.m 0;
      stats = fresh_stats ();
      quarantined = [];
      degraded = false;
    }

  (* Finish initialization: runs both on first creation and on recovery
     from a crash that hit during creation (Algorithm 9, line 1–2). *)
  let complete_init t =
    recover_getleaf t;
    recover_freeleaf t;
    (if Pptr.is_null (read_head t) then
       if t.config.use_groups then begin
         (* Group membership must be rebuilt before get_leaf. *)
         let rec scan p =
           if not (Pptr.is_null p) then begin
             register_group t p.Pptr.off;
             for i = 0 to t.config.group_size - 1 do
               add_free_leaf t (group_leaf t p.Pptr.off i)
             done;
             scan (group_next t p.Pptr.off)
           end
         in
         scan (read_group_head t);
         let l = get_leaf t in
         write_head t (pptr_of t l)
       end
       else
         Pmem.Palloc.alloc (alloc t)
           ~into:(Pmem.Pptr.Loc.make (region t) (t.meta + meta_head))
           t.layout.Layout.bytes);
    (* (Re-)zero the first leaf: idempotent, and a crash may have hit
       between obtaining the leaf and zeroing it. *)
    Layout.zero_leaf (region t) ~leaf:(read_head t).Pptr.off t.layout;
    refresh_csum t (read_head t).Pptr.off;
    write_meta_word t meta_status 1

  (* The seven configuration words live in one contiguous span
     ([meta_m, meta_group_size]) with no ordering constraints among
     them — nothing reads them until [meta_status] (written last, with
     its own persist) flips to 1.  Batching them under a single persist
     replaces 7 flush+fence pairs with 1: a batchable-flush finding of
     the pmcheck analyzer on the creation path. *)
  let write_meta_config t cfg =
    let r = region t in
    let sc = Scope.enter Obs.Attrib.comp_tree_meta in
    let w off v = Region.write_int64_atomic r (t.meta + off) (Int64.of_int v) in
    w meta_m cfg.m;
    w meta_value_bytes cfg.value_bytes;
    w meta_key_kind K.kind;
    w meta_flags (flags_of cfg);
    w meta_n_split cfg.n_split_logs;
    w meta_n_delete cfg.n_delete_logs;
    w meta_group_size cfg.group_size;
    Scope.persist_in_scope r (t.meta + meta_m) (meta_group_size + 8 - meta_m);
    Scope.leave sc

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
    ignore (layout_of_config config ~key_cell_bytes:K.cell_bytes); (* validate *)
    Pmem.Palloc.alloc alloc ~into:(Pmem.Palloc.root_loc alloc) (meta_bytes config);
    let meta = (Pmem.Palloc.root alloc).Pptr.off in
    let sc = Scope.enter Obs.Attrib.comp_tree_meta in
    Region.fill region meta (meta_bytes config) '\000';
    Scope.persist_in_scope region meta (meta_bytes config);
    Scope.leave sc;
    let ctx = { Keys.region; alloc } in
    let t = build_volatile ctx config meta in
    trace_tree_layout t;
    write_meta_config t config;
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
    (* Rebuild the volatile free-leaf pool from the group list. *)
    if t.config.use_groups then begin
      clear_free_pool t;
      Hashtbl.reset t.leaf_group;
      Hashtbl.reset t.group_free;
      let rec scan p =
        if not (Pptr.is_null p) then begin
          let g = p.Pptr.off in
          register_group t g;
          for i = 0 to t.config.group_size - 1 do
            let l = group_leaf t g i in
            (* Quarantined leaves are out of the list but must not be
               recycled as free. *)
            if not (Hashtbl.mem in_list l) && not (List.mem l t.quarantined)
            then add_free_leaf t l
          done;
          scan (group_next t g)
        end
      in
      scan (read_group_head t)
    end

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
    let initialized =
      Int64.to_int (Region.read_int64 region (meta + meta_status)) = 1
    in
    (* If creation never completed, the persisted config words may be
       missing: trust the caller's config and (re)write them. *)
    let cfg = if initialized then config_of_meta region meta config else config in
    if initialized then begin
      let kind = Int64.to_int (Region.read_int64 region (meta + meta_key_kind)) in
      if kind <> K.kind then failwith "Tree.recover: key kind mismatch"
    end;
    let ctx = { Keys.region; alloc } in
    let t = build_volatile ctx cfg meta in
    trace_tree_layout t;
    (* Attribution: everything recovery touches that is not claimed by
       a tighter scope (log replay -> microlog, splices -> recovery,
       allocator fixups -> alloc_meta) is charged to (recovery,
       recover). *)
    let ko = Obs.Attrib.set_op Obs.Attrib.op_recover in
    let kc = Obs.Attrib.set_component Obs.Attrib.comp_recovery in
    (* The recovery phases are timed as spans (Fig. 11: the paper's
       recovery-time claim is that log replay is O(logs) and the DRAM
       rebuild dominates, linear in leaves). *)
    if not initialized then
      Obs.Trace.with_span "fptree.recovery.init" (fun () ->
          write_meta_config t cfg;
          complete_init t)
    else
      Obs.Trace.with_span "fptree.recovery.log_replay" (fun () ->
          recover_getleaf t;
          recover_freeleaf t;
          Microlog.Pool.iter (recover_split t) t.split_logs;
          Microlog.Pool.iter (recover_delete t) t.delete_logs);
    if initialized && t.layout.Layout.checksums then
      Obs.Trace.with_span "fptree.recovery.quarantine" (fun () ->
          quarantine_pass t);
    Obs.Trace.with_span "fptree.recovery.rebuild" (fun () ->
        rebuild_volatile t);
    Obs.Attrib.restore_component kc;
    Obs.Attrib.restore_op ko;
    t

  (** Offsets of every allocated block the tree can account for
      (descriptor, leaves or groups, key blocks): input to the
      allocator leak audit. *)
  let reachable_blocks t =
    let acc = ref [ t.meta ] in
    if t.config.use_groups then begin
      let rec scan p =
        if not (Pptr.is_null p) then begin
          acc := p.Pptr.off :: !acc;
          scan (group_next t p.Pptr.off)
        end
      in
      scan (read_group_head t)
    end
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

  (** Leaves quarantined by the last {!recover}'s checksum validation
      (offsets, newest first); empty on clean recoveries and when
      checksums are off. *)
  let quarantined t = t.quarantined

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
end

(** The one blessed adapter from the allocator's exhaustion exception
    to the typed result surface.  Upper layers wrap allocating calls in
    this (or use the [try_*] envelopes) instead of matching
    [Out_of_scm] textually — the lint rule keeps the exception's name
    out of every library above [lib/pmem]/[lib/fptree]. *)
let guard_space f =
  match f () with
  | v -> Ok v
  | exception Pmem.Palloc.Out_of_scm -> Error `Out_of_space
