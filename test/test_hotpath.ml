(* Hot-path regression tests for the fast-mode SCM access layer and the
   allocation-free tree operations:

   - fast mode (stats, crash tracking and delay injection all off) and
     instrumented mode must produce identical tree contents for the
     same randomized operation trace — the fast accessors are a perf
     overlay, never a semantic one;
   - [find_value] must not allocate on the minor heap in fast mode,
     for fixed and for var keys (also when anchors tie), a kvstore GET
     hit allocates only its two options, and a TATP column read or
     write nothing;
   - every combination of the instrumentation switches gives the same
     op results, contents and (where counted) line and persist counts;
   - two fixed op traces pin the counted-mode SCM counters exactly;
   - the m = 64 concurrent configuration must survive leaf fills
     (its bitmap uses bits 0..62 of a 63-bit OCaml int: a regression
     here once produced a full-leaf bitmap of 0). *)

module F = Fptree.Fixed

let fast_mode () =
  Scm.Config.reset ();
  Scm.Config.set_stats false;
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_delay_injection false

let instrumented_mode () =
  Scm.Config.reset ();
  Scm.Config.set_stats true;
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_delay_injection false

let fresh_tree ?(size = 64 * 1024 * 1024) () =
  Scm.Registry.clear ();
  Scm.Stats.reset ();
  F.create_single (Pmem.Palloc.create ~size ())

(* One deterministic randomized trace: a mix of inserts, updates,
   deletes and finds over a small key space so that leaves fill, split,
   empty and free. *)
let run_trace ?(ops = 30_000) t =
  let rng = Random.State.make [| 42 |] in
  let key_space = 4096 in
  let results = ref [] in
  for _ = 1 to ops do
    let k = 2 * Random.State.int rng key_space in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 -> results := (if F.insert t k k then 1 else 0) :: !results
    | 4 | 5 -> results := (if F.update t k (k + 1) then 1 else 0) :: !results
    | 6 | 7 -> results := (if F.delete t k then 1 else 0) :: !results
    | _ -> results := (match F.find t k with Some v -> v | None -> -1) :: !results
  done;
  !results

let contents t =
  let acc = ref [] in
  F.iter t (fun k v -> acc := (k, v) :: !acc);
  List.sort compare !acc

let test_mode_equivalence () =
  fast_mode ();
  let t_fast = fresh_tree () in
  let r_fast = run_trace t_fast in
  let c_fast = contents t_fast in
  F.check_invariants t_fast;
  instrumented_mode ();
  let t_slow = fresh_tree () in
  let r_slow = run_trace t_slow in
  let c_slow = contents t_slow in
  F.check_invariants t_slow;
  fast_mode ();
  Alcotest.(check int) "same number of results" (List.length r_fast)
    (List.length r_slow);
  Alcotest.(check bool) "same op results" true (r_fast = r_slow);
  Alcotest.(check int) "same cardinality" (List.length c_fast)
    (List.length c_slow);
  Alcotest.(check bool) "same contents" true (c_fast = c_slow)

let test_find_no_alloc () =
  fast_mode ();
  let t = fresh_tree () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    ignore (F.insert t (2 * i) i)
  done;
  (* Warm up so any one-time allocation (lazy forcing etc.) is done. *)
  for i = 0 to 99 do
    ignore (F.find_value t ~default:(-1) (2 * i))
  done;
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (F.find_value t ~default:(-1) (2 * i));
    ignore (F.find_value t ~default:(-1) ((2 * i) + 1))
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "find_value allocates nothing (saw %.1f words)" dw)
    true (dw = 0.)

(* The var-key lookup path of the kvstore (memcached-style keys, the
   concurrent var tree): a [find_value] allocates nothing, hit or miss
   — the descent compares strings in the node's array and each key
   probe compares the stored bytes in place — and a [Cache.get] hit
   allocates only its two options (the index's [Some id] and the
   item's).  The tree is at least two inner levels deep. *)
let memc_key i = Printf.sprintf "memc-%012d" i

let var_tree n =
  fast_mode ();
  Scm.Registry.clear ();
  let t =
    Fptree.Var.create_concurrent ~inner_keys:16
      (Pmem.Palloc.create ~size:(64 * 1024 * 1024) ())
  in
  let hits = Array.init n (fun i -> memc_key (2 * i)) in
  Array.iteri (fun i k -> ignore (Fptree.Var.insert t k i)) hits;
  Alcotest.(check bool) "inner height >= 2" true (Fptree.Var.height t >= 2);
  (t, hits, Array.init n (fun i -> memc_key ((2 * i) + 1)))

let words_per_key keys f =
  let w0 = Gc.minor_words () in
  Array.iter f keys;
  (Gc.minor_words () -. w0) /. float_of_int (Array.length keys)

let test_var_find_no_alloc () =
  let t, hits, misses = var_tree 10_000 in
  let find k = ignore (Fptree.Var.find_value t ~default:(-1) k) in
  Array.iter find (Array.sub hits 0 100);
  let hit = words_per_key hits find and miss = words_per_key misses find in
  Alcotest.(check bool)
    (Printf.sprintf "var find_value allocates nothing (hit %.1f, miss %.1f)"
       hit miss)
    true (hit = 0. && miss = 0.)

(* The same pin on a tree whose separators keep long suffixes: keys
   open with one of 26 letters and then a common run, so a node
   spanning two letters has an empty prefix, and its separators'
   anchors tie on their first seven bytes.  A descent then compares
   the probe with a kept key (the tie path), still without
   allocating. *)
let tie_key i = Printf.sprintf "%c/common-part/%06d" (Char.chr (97 + (i mod 26))) (i / 26)

let rec has_long_tie (n : string Fptree.Inner.inner) =
  let tie = ref false in
  for i = 1 to n.nkeys - 1 do
    let a = n.anchors.(i) in
    if a land 15 = 8 && a = n.anchors.(i - 1) then tie := true
  done;
  !tie
  || ((not n.bottom)
      && Array.exists has_long_tie (Array.sub n.inners 0 (n.nkeys + 1)))

let test_var_find_tie_no_alloc () =
  fast_mode ();
  Scm.Registry.clear ();
  let t =
    Fptree.Var.create_concurrent ~inner_keys:16
      (Pmem.Palloc.create ~size:(64 * 1024 * 1024) ())
  in
  let hits = Array.init 10_000 (fun i -> tie_key (2 * i)) in
  Array.iteri (fun i k -> ignore (Fptree.Var.insert t k i)) hits;
  Alcotest.(check bool) "some node's long anchors tie" true
    (has_long_tie t.Fptree.Var.inner.Fptree.Inner.root);
  let misses = Array.init 10_000 (fun i -> tie_key ((2 * i) + 1)) in
  let find k = ignore (Fptree.Var.find_value t ~default:(-1) k) in
  Array.iter find (Array.sub hits 0 100);
  let hit = words_per_key hits find and miss = words_per_key misses find in
  Alcotest.(check bool)
    (Printf.sprintf "var find_value on tied anchors allocates nothing (hit %.1f, miss %.1f)"
       hit miss)
    true (hit = 0. && miss = 0.)

(* A TATP column read or write moves a tagged int: no [int64] box. *)
let test_column_no_alloc () =
  fast_mode ();
  let r = Scm.Region.make ~id:78 ~size:(64 * 1024) in
  Dbproto.Column.init_region r;
  let c = Dbproto.Column.carve r ~rows:1000 in
  for i = 0 to 999 do
    Dbproto.Column.set c i ((3 * i) - 500)
  done;
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 999 do
    sum := !sum + Dbproto.Column.get c i
  done;
  let get_words = Gc.minor_words () -. w0 in
  let w0 = Gc.minor_words () in
  for i = 0 to 999 do
    Dbproto.Column.set c i i
  done;
  let set_words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "values round-trip" ((3 * 999 * 1000 / 2) - 500_000) !sum;
  Alcotest.(check bool)
    (Printf.sprintf "Column.get/set allocate nothing (get %.0f, set %.0f words)"
       get_words set_words)
    true (get_words = 0. && set_words = 0.)

let test_kv_get_alloc () =
  let t, hits, _ = var_tree 2_000 in
  let c = Kvstore.Cache.create (Kvstore.Tree_ops.of_fptree_concurrent t) in
  Array.iter (fun k -> Kvstore.Cache.set_exn c k k) hits;
  let get k = ignore (Kvstore.Cache.get c k) in
  Array.iter get (Array.sub hits 0 100);
  let w = words_per_key hits get in
  Alcotest.(check int) "every get hit" (Array.length hits + 100)
    (Kvstore.Cache.hits c);
  Alcotest.(check bool)
    (Printf.sprintf "Cache.get hit allocates <= 4 words (saw %.1f)" w)
    true (w <= 4.)

(* A delete's only minor-heap cost is its decision: the descent's
   (leaf, prev) pair, the predecessor's [Some] and the [Del_in_leaf]
   cell (3 + 2 + 2 words), hit or miss.  The tree is at least two inner
   levels deep (m = 8, inner_keys = 8), so a descent that allocates per level
   shows up.  Every 16th key is deleted, so no leaf empties and every
   hit stays an in-leaf delete. *)
let test_delete_alloc () =
  fast_mode ();
  Scm.Registry.clear ();
  let config =
    { Fptree.Tree.fptree_config with
      Fptree.Tree.m = 8; Fptree.Tree.inner_keys = 8 }
  in
  let t = F.create ~config (Pmem.Palloc.create ~size:(64 * 1024 * 1024) ()) in
  let n = 16_000 in
  for i = 0 to n - 1 do
    ignore (F.insert t (2 * i) i)
  done;
  Alcotest.(check bool) "inner height >= 2" true (F.height t >= 2);
  ignore (F.delete t 1);
  let words_per_op f =
    let w0 = Gc.minor_words () in
    for j = 1 to (n / 16) - 1 do
      f (16 * j)
    done;
    (Gc.minor_words () -. w0) /. float_of_int ((n / 16) - 1)
  in
  let hit = words_per_op (fun i -> assert (F.delete t (2 * i))) in
  let miss = words_per_op (fun i -> assert (not (F.delete t ((2 * i) + 1)))) in
  Alcotest.(check bool)
    (Printf.sprintf "delete allocates <= 8 words (hit %.1f, miss %.1f)" hit miss)
    true (hit <= 8. && miss <= 8.)

(* Recovery's inner rebuild allocates per node, not per leaf: each
   node's arrays at the default fanout (513) are major-heap blocks, so
   the minor heap sees the node records, their version cells and a few
   closures per level.  At 100k leaves that is under one word per leaf
   (0.07 measured); a (key, child) pair plus a box per leaf, as each
   level's children were once handed up, is 5. *)
let test_rebuild_alloc () =
  let n = 100_000 in
  let leaves = Array.init n (fun i -> (2 * i, Fptree.Inner.leaf_ref i)) in
  let fanout = Fptree.Tree.fptree_config.Fptree.Tree.inner_keys + 1 in
  let w0 = Gc.minor_words () in
  let t = Fptree.Inner.rebuild ~fanout ~kind:Fptree.Keys.Fixed.inner_kind leaves in
  let w = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool) "inner height >= 2" true
    (Fptree.Inner.height t.Fptree.Inner.root >= 2);
  Alcotest.(check bool)
    (Printf.sprintf "rebuild allocates < 1 minor word per leaf (%.2f)" w)
    true (w < 1.)

(* A range scan allocates its result list and O(m) per-call scratch,
   nothing per leaf or per hit beyond the list: each returned pair is
   a cons cell plus a tuple (3 + 3 words).  The scratch is two m-slot
   arrays (keys and values, m + 1 words each, sorted in place), and the
   64 covers the walk closure, the scan record and its bound record.  Keys go in permuted so every leaf is
   unsorted and the in-leaf ordering does real work; a leaf holds at
   most m keys, so H > 2m hits span at least three leaves. *)
let test_range_alloc () =
  fast_mode ();
  let t = fresh_tree () in
  Array.iter
    (fun i -> ignore (F.insert t (2 * i) ((2 * i) + 1)))
    (Workloads.Keygen.permutation ~seed:11 4000);
  let lo = 2001 and hi = 2401 in
  (* Warm up so any one-time allocation is done. *)
  ignore (F.range t ~lo ~hi);
  let w0 = Gc.minor_words () in
  let r = F.range t ~lo ~hi in
  let dw = Gc.minor_words () -. w0 in
  let h = List.length r in
  let m = t.F.layout.Fptree.Layout.m in
  Alcotest.(check int) "hits" 200 h;
  Alcotest.(check bool) "spans at least three leaves" true (h > 2 * m);
  Alcotest.(check bool) "ascending, with values" true
    (List.for_all2 (fun (k, v) i -> k = 2002 + (2 * i) && v = k + 1) r
       (List.init h Fun.id));
  let bound = (6 * h) + (2 * (m + 1)) + 64 in
  Alcotest.(check bool)
    (Printf.sprintf "range allocates only its list and scratch (saw %.0f words, bound %d)"
       dw bound)
    true (dw <= float_of_int bound)

(* Attribution scopes sit on every persisting path, so their open/close
   must never allocate: disabled (fast mode) they are a bool load and a
   branch, enabled two unsafe array writes — both zero minor words. *)
let test_scope_no_alloc () =
  let spin enabled =
    Scm.Config.set_stats enabled;
    (* warm up *)
    for _ = 1 to 100 do
      Fptree.Scope.leave (Fptree.Scope.enter Obs.Attrib.comp_kv)
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to 10_000 do
      let c = Fptree.Scope.enter Obs.Attrib.comp_kv in
      let o = Obs.Attrib.set_op Obs.Event.op_insert in
      Obs.Attrib.restore_op o;
      Fptree.Scope.leave c
    done;
    let dw = Gc.minor_words () -. w0 in
    Alcotest.(check bool)
      (Printf.sprintf "scope open/close allocates nothing (%s, saw %.1f words)"
         (if enabled then "enabled" else "disabled")
         dw)
      true (dw = 0.)
  in
  spin false;
  spin true;
  fast_mode ()

(* The watermark admission check on the guarded entry points is pure
   DRAM arithmetic over the allocator's volatile shadows.  Below the
   soft watermark [Palloc.admit]/[watermark_state] must allocate
   nothing, and a guarded op's only minor-heap cost over the raw op is
   its [Ok _] result cell (2 words). *)
let test_admission_no_alloc () =
  fast_mode ();
  Scm.Registry.clear ();
  let a = Pmem.Palloc.create ~size:(64 * 1024 * 1024) () in
  let t = F.create_single a in
  for i = 0 to 999 do
    ignore (F.insert t (2 * i) i)
  done;
  (* Warm up: forces the allocator's lazy capacity-shadow rebuild and
     any one-time setup in the guarded path. *)
  ignore (Pmem.Palloc.bytes_free a);
  for i = 0 to 99 do
    ignore (F.try_update t (2 * i) i)
  done;
  (* The admission check itself allocates nothing. *)
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Pmem.Palloc.admit a ~reserve:4096);
    ignore (Pmem.Palloc.watermark_state a)
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "admit/watermark_state allocate nothing (saw %.1f words)"
       dw)
    true (dw = 0.);
  (* A guarded update allocates only its [Ok bool] result cell (2
     words per op): the watermark check adds nothing on top. *)
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    ignore (F.try_update t (2 * (i mod 1000)) i)
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf
       "try_update costs one result cell per op (saw %.1f words for %d ops)"
       dw n)
    true (dw <= float_of_int (2 * n))

(* Below the soft watermark the guarded entry points must drive
   exactly the same SCM traffic as the raw ops: the admission check
   never reads or writes the region. *)
let test_admission_trace_identical () =
  let trace use_guarded =
    instrumented_mode ();
    let t = fresh_tree () in
    let rng = Random.State.make [| 7 |] in
    Scm.Stats.reset ();
    for _ = 1 to 20_000 do
      let k = 2 * Random.State.int rng 2048 in
      match Random.State.int rng 8 with
      | 0 | 1 | 2 ->
        if use_guarded then (
          match F.try_insert t k k with
          | Ok _ -> ()
          | Error `Out_of_space -> Alcotest.fail "refused below watermark")
        else ignore (F.insert t k k)
      | 3 | 4 ->
        if use_guarded then (
          match F.try_update t k (k + 1) with
          | Ok _ -> ()
          | Error `Out_of_space -> Alcotest.fail "refused below watermark")
        else ignore (F.update t k (k + 1))
      | 5 ->
        if use_guarded then ignore (F.try_delete t k)
        else ignore (F.delete t k)
      | _ -> ignore (F.find t k)
    done;
    let s = Scm.Stats.snapshot () in
    fast_mode ();
    s
  in
  let raw = trace false in
  let guarded = trace true in
  Alcotest.(check int) "same line reads" raw.Scm.Stats.line_reads
    guarded.Scm.Stats.line_reads;
  Alcotest.(check int) "same line writes" raw.Scm.Stats.line_writes
    guarded.Scm.Stats.line_writes;
  Alcotest.(check int) "same flushes" raw.Scm.Stats.flushes
    guarded.Scm.Stats.flushes;
  Alcotest.(check int) "same fences" raw.Scm.Stats.fences
    guarded.Scm.Stats.fences;
  Alcotest.(check int) "same persists" raw.Scm.Stats.persists
    guarded.Scm.Stats.persists

(* ---- config lattice ----

   Every combination of the six instrumentation switches (the bits of
   [Obs.Gate]'s mode word) runs the same 3k-op trace on a
   concurrent-configuration tree (single domain; its protocol accesses
   go through the model-check shim, which with no scheduler installed
   performs them directly).  The switches observe,
   they never steer: op results and contents must not move, the line
   and persist counts must agree wherever counting is on, and no dirty
   word may be tracked while crash tracking is off.  Delay injection
   runs with SCM latency equal to DRAM latency, so it spins for 0 ns. *)

let switches =
  [ ("stats", Scm.Config.set_stats);
    ("crash_tracking", Scm.Config.set_crash_tracking);
    ("delay_injection", Scm.Config.set_delay_injection);
    ("tracing", Scm.Config.set_tracing);
    ("model_check", Scm.Config.set_model_check);
    ("observe", Obs.Gate.set_enabled) ]

let test_config_lattice () =
  let run bits =
    Scm.Config.reset ();
    List.iteri (fun i (_, set) -> set (bits land (1 lsl i) <> 0)) switches;
    Scm.Config.set_latency ~read_ns:Scm.Config.dram_read_ns ();
    Obs.Flight.reset ();
    Scm.Registry.clear ();
    Scm.Stats.reset ();
    let a = Pmem.Palloc.create ~size:(16 * 1024 * 1024) () in
    let t = F.create_concurrent a in
    let r = run_trace ~ops:3_000 t in
    let c = contents t in
    let s = Scm.Stats.snapshot () in
    let dirty = Scm.Region.dirty_word_count (Pmem.Palloc.region a) in
    Obs.Flight.reset ();
    fast_mode ();
    (r, c, s, dirty)
  in
  let name bits =
    String.concat "+"
      (List.filteri (fun i _ -> bits land (1 lsl i) <> 0)
         (List.map fst switches))
  in
  let r0, c0, _, _ = run 0 in
  let counted = ref None in
  for bits = 0 to (1 lsl List.length switches) - 1 do
    let r, c, s, dirty = run bits in
    let what = if bits = 0 then "none" else name bits in
    Alcotest.(check bool) (what ^ ": same op results") true (r = r0);
    Alcotest.(check bool) (what ^ ": same contents") true (c = c0);
    (* bit 0 is stats, bit 1 crash tracking (their places in [switches]) *)
    if bits land 2 = 0 then
      Alcotest.(check int) (what ^ ": no dirty words tracked") 0 dirty;
    if bits land 1 <> 0 then begin
      let lines =
        Scm.Stats.(s.line_reads, s.line_writes, s.persists)
      in
      match !counted with
      | None -> counted := Some (what, lines)
      | Some (first, l) ->
        Alcotest.(check (triple int int int))
          (Printf.sprintf "%s: line reads/writes and persists as %s" what first)
          l lines
    end
  done;
  Obs.Gate.set_enabled false

(* ---- counter traces: the simulator's SCM accounting must not drift ----

   Two fixed single-domain op traces run in counted mode (stats on,
   crash tracking and delay injection off) and their SCM counters are
   pinned as exact records.  Any change to what a tree op reads,
   writes, flushes or persists moves a pin; a change that moves one on
   purpose re-pins it here and explains the move in CHANGES.md. *)

type trace_counters = {
  line_reads : int;
  line_writes : int;
  flushes : int;
  fences : int;
  persists : int;
  key_probes : int;
  leaf_deletes : int;
}

let pp_trace_counters ppf c =
  Format.fprintf ppf
    "reads=%d writes=%d flushes=%d fences=%d persists=%d probes=%d \
     leaf_deletes=%d"
    c.line_reads c.line_writes c.flushes c.fences c.persists c.key_probes
    c.leaf_deletes

let trace_counters = Alcotest.testable pp_trace_counters ( = )

let counter_trace f =
  instrumented_mode ();
  let t = fresh_tree () in
  f t;
  let s = Scm.Stats.snapshot () in
  let st = F.stats t in
  fast_mode ();
  {
    line_reads = s.Scm.Stats.line_reads;
    line_writes = s.Scm.Stats.line_writes;
    flushes = s.Scm.Stats.flushes;
    fences = s.Scm.Stats.fences;
    persists = s.Scm.Stats.persists;
    key_probes = st.Fptree.Tree.key_probes;
    leaf_deletes = st.Fptree.Tree.leaf_deletes;
  }

(* Inserts, finds, updates, scattered deletes (10% of the keys, far
   below the density that would empty a leaf, so no group frees) and
   200 short ranges. *)
let core_trace t =
  let n = 20_000 in
  let ins = Workloads.Keygen.permutation ~seed:201 n in
  Array.iter (fun k -> ignore (F.insert t (2 * k) k)) ins;
  let probe = Workloads.Keygen.permutation ~seed:202 n in
  Array.iter (fun k -> ignore (F.find t (2 * k))) probe;
  for i = 0 to (n / 2) - 1 do
    ignore (F.update t (2 * probe.(i)) i)
  done;
  for i = 0 to (n / 10) - 1 do
    ignore (F.delete t (2 * ins.(i)))
  done;
  let rng = Random.State.make [| 203 |] in
  for _ = 1 to 200 do
    let lo = 2 * Random.State.int rng n in
    ignore (F.range t ~lo ~hi:(lo + 400))
  done

(* Deletes every key: exercises whole-leaf deletes and group frees. *)
let delete_heavy_trace t =
  let n = 20_000 in
  let ins = Workloads.Keygen.permutation ~seed:204 n in
  Array.iter (fun k -> ignore (F.insert t (2 * k) k)) ins;
  let del = Workloads.Keygen.permutation ~seed:205 n in
  Array.iter (fun k -> ignore (F.delete t (2 * k))) del

(* The flight recorder runs gate-on first, on a throwaway tree: with
   the gate back off, any leak of gate-on behavior into the gate-off
   paths shows up as drift in the pins below. *)
let with_gate_cycled f =
  fast_mode ();
  let t = fresh_tree () in
  Obs.Gate.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Gate.set_enabled false)
    (fun () ->
      for i = 0 to 999 do
        ignore (F.insert t (2 * i) i)
      done;
      for i = 0 to 1999 do
        ignore (F.find t i)
      done);
  f ()

let test_core_trace () =
  with_gate_cycled (fun () ->
      Alcotest.check trace_counters "core trace"
        {
          line_reads = 122938;
          line_writes = 113973;
          flushes = 113973;
          fences = 98158;
          persists = 98158;
          key_probes = 32677;
          leaf_deletes = 0;
        }
        (counter_trace core_trace))

let test_delete_heavy_trace () =
  with_gate_cycled (fun () ->
      Alcotest.check trace_counters "delete_heavy trace"
        {
          line_reads = 111739;
          line_writes = 103296;
          flushes = 103296;
          fences = 90061;
          persists = 90061;
          key_probes = 20664;
          leaf_deletes = 516;
        }
        (counter_trace delete_heavy_trace))

(* The one write path allocates only when it splits: a put that finds
   room in its leaf (an insert, or an update, whose leaf is not full)
   builds no tuple, closure or option, in either configuration.  Keys
   go in at stride 4, so leaves are about half full; one in eight of
   the gaps is then filled, too few to fill a leaf, and the leaf count
   shows that nothing split. *)
let test_put_no_alloc () =
  let check name create =
    fast_mode ();
    Scm.Registry.clear ();
    let t = create (Pmem.Palloc.create ~size:(64 * 1024 * 1024) ()) in
    let n = 16_000 in
    for i = 0 to n - 1 do
      ignore (F.insert t (4 * i) i)
    done;
    (* warm up *)
    ignore (F.insert t 1 0);
    ignore (F.update t 1 1);
    let leaves = F.leaf_count t in
    let words f =
      let w0 = Gc.minor_words () in
      for i = 1 to (n / 8) - 1 do
        f (8 * i)
      done;
      Gc.minor_words () -. w0
    in
    let ins = words (fun i -> assert (F.insert t ((4 * i) + 1) i)) in
    let upd = words (fun i -> assert (F.update t ((4 * i) + 1) (i + 1))) in
    Alcotest.(check int) (name ^ ": nothing split") leaves (F.leaf_count t);
    Alcotest.(check bool)
      (Printf.sprintf "%s: insert and update allocate nothing (%.0f, %.0f words)"
         name ins upd)
      true (ins = 0. && upd = 0.)
  in
  check "single" (fun a -> F.create_single a);
  check "concurrent" (fun a -> F.create_concurrent a)

(* A split selects its median in per-domain scratch: no m-sized array
   per split, in either configuration.  Ascending inserts split the
   last leaf every m/2 keys; the words per split must not grow with m
   (two fresh m-slot arrays would add 2(m + 1) words). *)
let test_split_scratch () =
  let per_split m =
    fast_mode ();
    Scm.Registry.clear ();
    let t = F.create_concurrent ~m (Pmem.Palloc.create ~size:(64 * 1024 * 1024) ()) in
    for i = 0 to 999 do
      ignore (F.insert t i i)
    done;
    let l0 = F.leaf_count t in
    let w0 = Gc.minor_words () in
    for i = 1000 to 20_999 do
      ignore (F.insert t i i)
    done;
    let dw = Gc.minor_words () -. w0 in
    dw /. float_of_int (F.leaf_count t - l0)
  in
  let w8 = per_split 8 and w64 = per_split 64 in
  Alcotest.(check bool)
    (Printf.sprintf "split words do not grow with m (m = 8: %.1f, m = 64: %.1f)"
       w8 w64)
    true (w64 -. w8 < 56.)

let test_m64_concurrent_fill () =
  fast_mode ();
  Scm.Registry.clear ();
  let t = F.create_concurrent (Pmem.Palloc.create ~size:(64 * 1024 * 1024) ()) in
  let n = 20_000 in
  for i = 0 to n - 1 do
    ignore (F.insert t (2 * i) i)
  done;
  F.check_invariants t;
  Alcotest.(check int) "count" n (F.count t);
  for i = 0 to n - 1 do
    Alcotest.(check int) "value" i (F.find_value t ~default:(-1) (2 * i))
  done

let () =
  Alcotest.run "hotpath"
    [
      ( "fast-vs-instrumented",
        [
          Alcotest.test_case "randomized trace equivalence" `Quick
            test_mode_equivalence;
        ] );
      ( "allocation",
        [ Alcotest.test_case "attribution scopes are allocation-free" `Quick
            test_scope_no_alloc;
          Alcotest.test_case "find_value is allocation-free" `Quick
            test_find_no_alloc;
          Alcotest.test_case "range allocates its list plus O(m) scratch"
            `Quick test_range_alloc;
          Alcotest.test_case "rebuild allocates per node, not per leaf" `Quick
            test_rebuild_alloc;
          Alcotest.test_case "delete allocates only its decision" `Quick
            test_delete_alloc;
          Alcotest.test_case "var find_value is allocation-free" `Quick
            test_var_find_no_alloc;
          Alcotest.test_case "var find_value on tied anchors is allocation-free"
            `Quick test_var_find_tie_no_alloc;
          Alcotest.test_case "column get and set are allocation-free" `Quick
            test_column_no_alloc;
          Alcotest.test_case "kvstore get hit allocates its options only"
            `Quick test_kv_get_alloc;
          Alcotest.test_case "insert and update that do not split allocate nothing"
            `Quick test_put_no_alloc;
          Alcotest.test_case "a split allocates no m-sized scratch" `Quick
            test_split_scratch;
        ] );
      ( "admission",
        [ Alcotest.test_case "watermark check is allocation-free" `Quick
            test_admission_no_alloc;
          Alcotest.test_case "guarded ops leave the counter trace unchanged"
            `Quick test_admission_trace_identical;
        ] );
      ( "config-lattice",
        [ Alcotest.test_case "all 64 switch combinations agree" `Quick
            test_config_lattice;
        ] );
      ( "counter-traces",
        [ Alcotest.test_case "core" `Quick test_core_trace;
          Alcotest.test_case "delete_heavy" `Quick test_delete_heavy_trace;
        ] );
      ( "m64",
        [ Alcotest.test_case "concurrent config leaf fills" `Quick
            test_m64_concurrent_fill;
        ] );
    ]
