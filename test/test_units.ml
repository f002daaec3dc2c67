(* Per-module unit tests for the fptree library internals: fingerprint
   math, leaf layout geometry, in-leaf bitmaps, micro-logs and their
   slot pool, and the DRAM inner-node structure. *)

let fresh_region ?(size = 1024 * 1024) () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Registry.create ~size

(* ---- fingerprints ---- *)

let test_fingerprint_range () =
  for i = -1000 to 1000 do
    let h = Fptree.Fingerprint.of_int i in
    if h < 0 || h > 255 then Alcotest.failf "fingerprint %d out of range" h
  done;
  let h = Fptree.Fingerprint.of_string "hello" in
  Alcotest.(check bool) "string fp in range" true (h >= 0 && h <= 255)

let test_fingerprint_deterministic () =
  Alcotest.(check int) "int fp deterministic" (Fptree.Fingerprint.of_int 42)
    (Fptree.Fingerprint.of_int 42);
  Alcotest.(check int) "string fp deterministic"
    (Fptree.Fingerprint.of_string "abc")
    (Fptree.Fingerprint.of_string "abc");
  Alcotest.(check bool) "different keys usually differ" true
    (Fptree.Fingerprint.of_int 1 <> Fptree.Fingerprint.of_int 2
    || Fptree.Fingerprint.of_int 3 <> Fptree.Fingerprint.of_int 4)

let test_fingerprint_uniformity () =
  (* chi-square-ish sanity: each of the 256 buckets gets roughly n/256 *)
  let n = 256_000 in
  let counts = Array.make 256 0 in
  for i = 1 to n do
    let h = Fptree.Fingerprint.of_int i in
    counts.(h) <- counts.(h) + 1
  done;
  Array.iteri
    (fun b c ->
      if c < 500 || c > 1500 then
        Alcotest.failf "bucket %d badly skewed: %d (expect ~1000)" b c)
    counts

let test_expected_probe_formulas () =
  (* the paper's reference points: m=32 -> FPTree 1, wBTree 5, NV 16.5 *)
  Alcotest.(check bool) "fptree(32) ~ 1" true
    (Fptree.Fingerprint.expected_probes_fptree 32 < 1.1);
  Alcotest.(check (float 0.01)) "wbtree(32) = 5" 5.
    (Fptree.Fingerprint.expected_probes_wbtree 32);
  Alcotest.(check (float 0.01)) "nvtree(32) = 16.5" 16.5
    (Fptree.Fingerprint.expected_probes_nvtree 32);
  (* fingerprinting needs < 2 probes up to m ~ 400 (Section 4.2) *)
  Alcotest.(check bool) "fptree(400) < 2" true
    (Fptree.Fingerprint.expected_probes_fptree 400 < 2.);
  (* the crossover the paper places at m ~ 4096: binary search wins
     somewhere between 4096 and 8192 *)
  Alcotest.(check bool) "fptree(8192) > wbtree(8192)" true
    (Fptree.Fingerprint.expected_probes_fptree 8192
    > Fptree.Fingerprint.expected_probes_wbtree 8192);
  Alcotest.(check bool) "fptree(2048) < wbtree(2048)" true
    (Fptree.Fingerprint.expected_probes_fptree 2048
    < Fptree.Fingerprint.expected_probes_wbtree 2048)

(* ---- leaf layout ---- *)

let test_layout_first_cacheline () =
  (* m = 56, 8-byte keys: fingerprints + bitmap + lock fit in line 0,
     the property the paper designs for *)
  let l =
    Fptree.Layout.make ~m:56 ~key_bytes:8 ~value_bytes:8 ~fingerprints:true
      ~split_arrays:false
  in
  Alcotest.(check int) "fingerprints at 0" 0 l.Fptree.Layout.fp_off;
  Alcotest.(check int) "bitmap right after fps" 56 l.Fptree.Layout.bitmap_off;
  Alcotest.(check bool) "lock still in line 0" true (l.Fptree.Layout.lock_off < 65);
  Alcotest.(check bool) "entries 8-aligned" true (l.Fptree.Layout.data_off mod 8 = 0)

let test_layout_geometry_variants () =
  List.iter
    (fun (m, kb, vb, fp, sa) ->
      let l =
        Fptree.Layout.make ~m ~key_bytes:kb ~value_bytes:vb ~fingerprints:fp
          ~split_arrays:sa
      in
      (* key/value cells are in bounds and non-overlapping *)
      for s = 0 to m - 1 do
        let k = Fptree.Layout.key_off l ~leaf:0 ~slot:s in
        let v = Fptree.Layout.value_off l ~leaf:0 ~slot:s in
        if k < l.Fptree.Layout.data_off || v + vb > l.Fptree.Layout.bytes then
          Alcotest.failf "cell out of bounds (m=%d kb=%d vb=%d)" m kb vb;
        if (not sa) && v <> k + kb then
          Alcotest.failf "interleaved value not after key";
        (* affine in the slot, as whole-leaf scans assume *)
        let k0 = Fptree.Layout.key_off l ~leaf:0 ~slot:0 in
        let v0 = Fptree.Layout.value_off l ~leaf:0 ~slot:0 in
        if k <> k0 + (s * Fptree.Layout.key_stride l)
           || v <> v0 + (s * Fptree.Layout.value_stride l)
        then Alcotest.failf "cell offsets not affine in the slot (m=%d sa=%b)" m sa
      done)
    [
      (4, 8, 8, true, false); (64, 8, 8, true, false); (56, 16, 8, true, false);
      (32, 8, 8, false, true); (32, 16, 112, false, true); (8, 8, 48, true, false);
    ]

let test_layout_validation () =
  let mk m kb vb =
    ignore
      (Fptree.Layout.make ~m ~key_bytes:kb ~value_bytes:vb ~fingerprints:true
         ~split_arrays:false)
  in
  Alcotest.check_raises "m too big" (Invalid_argument "Layout.make: m must be in [2, 64]")
    (fun () -> mk 65 8 8);
  Alcotest.check_raises "bad value width"
    (Invalid_argument "Layout.make: value_bytes must be a positive multiple of 8")
    (fun () -> mk 8 8 12);
  Alcotest.check_raises "bad key cell"
    (Invalid_argument "Layout.make: key cell must be 8 or 16 bytes") (fun () ->
      mk 8 24 8)

let test_bitmap_ops () =
  let l =
    Fptree.Layout.make ~m:8 ~key_bytes:8 ~value_bytes:8 ~fingerprints:true
      ~split_arrays:false
  in
  Alcotest.(check int) "full mask" 0xff (Fptree.Layout.full_mask l);
  Alcotest.(check int) "count" 3 (Fptree.Layout.bitmap_count 0b10101);
  Alcotest.(check bool) "full" true (Fptree.Layout.bitmap_is_full l 0xff);
  Alcotest.(check bool) "not full" false (Fptree.Layout.bitmap_is_full l 0x7f);
  Alcotest.(check (option int)) "first zero" (Some 1)
    (Fptree.Layout.find_first_zero l 0b101);
  Alcotest.(check (option int)) "no zero" None
    (Fptree.Layout.find_first_zero l 0xff);
  let l64 =
    Fptree.Layout.make ~m:64 ~key_bytes:8 ~value_bytes:8 ~fingerprints:true
      ~split_arrays:false
  in
  Alcotest.(check int) "m=64 full mask is all ones" (-1) (Fptree.Layout.full_mask l64)

let test_bitmap_commit_is_atomic () =
  let r = fresh_region () in
  let l =
    Fptree.Layout.make ~m:8 ~key_bytes:8 ~value_bytes:8 ~fingerprints:true
      ~split_arrays:false
  in
  Fptree.Layout.commit_bitmap r ~leaf:0 l 0b1010;
  ignore
    (Scm.Fault.inject Persist_crash 1 (fun () ->
         Fptree.Layout.commit_bitmap r ~leaf:0 l 0b1111));
  Scm.Region.crash r;
  Alcotest.(check int) "crashed commit fully reverted" 0b1010
    (Fptree.Layout.read_bitmap r ~leaf:0 l)

(* ---- micro-logs ---- *)

let test_microlog_fields () =
  let r = fresh_region () in
  let log = Fptree.Microlog.make r 0 in
  Alcotest.(check bool) "idle initially" true (Fptree.Microlog.is_idle log);
  let p = Pmem.Pptr.of_region r ~off:4096 in
  Fptree.Microlog.set_fst log p;
  Fptree.Microlog.set_snd log p;
  Alcotest.(check bool) "armed" false (Fptree.Microlog.is_idle log);
  Alcotest.(check bool) "fst round-trips" true
    (Pmem.Pptr.equal p (Fptree.Microlog.read_fst log));
  Fptree.Microlog.reset log;
  Alcotest.(check bool) "idle after reset" true (Fptree.Microlog.is_idle log);
  Alcotest.(check bool) "snd cleared" true
    (Pmem.Pptr.is_null (Fptree.Microlog.read_snd log))

let test_microlog_alignment_enforced () =
  let r = fresh_region () in
  Alcotest.check_raises "unaligned log rejected"
    (Invalid_argument "Microlog.make: log must be cache-line aligned") (fun () ->
      ignore (Fptree.Microlog.make r 8))

let test_microlog_crash_atomicity () =
  (* at any crash point, the armed flag (fst) is null or a valid ptr *)
  let p_off = 4096 in
  let points =
    Scm.Fault.sweep Persist_crash (fun n inject ->
        let r = fresh_region () in
        let log = Fptree.Microlog.make r 0 in
        ignore
          (inject (fun () ->
               Fptree.Microlog.set_fst log (Pmem.Pptr.of_region r ~off:p_off);
               Fptree.Microlog.set_snd log
                 (Pmem.Pptr.of_region r ~off:(p_off * 2))));
        Scm.Region.crash r;
        let f = Fptree.Microlog.read_fst log in
        if not (Pmem.Pptr.is_null f) then
          Alcotest.(check int) (Printf.sprintf "crash@%d: fst valid" n) p_off
            f.Pmem.Pptr.off)
  in
  Alcotest.(check int) "crash points" 4 points

let test_microlog_pool () =
  let r = fresh_region () in
  let logs = Array.init 4 (fun i -> Fptree.Microlog.make r (i * 64)) in
  let pool = Fptree.Microlog.Pool.create logs in
  let a = Fptree.Microlog.Pool.acquire pool in
  let b = Fptree.Microlog.Pool.acquire pool in
  let c = Fptree.Microlog.Pool.acquire pool in
  let d = Fptree.Microlog.Pool.acquire pool in
  Alcotest.(check bool) "four distinct slots" true
    (a != b && a != c && a != d && b != c && b != d && c != d);
  Fptree.Microlog.Pool.release pool b;
  let b' = Fptree.Microlog.Pool.acquire pool in
  Alcotest.(check bool) "released slot is reusable" true (b' == b)

let test_microlog_pool_concurrent () =
  let r = fresh_region () in
  Scm.Config.set_crash_tracking false;
  let logs = Array.init 8 (fun i -> Fptree.Microlog.make r (i * 64)) in
  let pool = Fptree.Microlog.Pool.create logs in
  let in_use = Array.make 8 (Atomic.make 0) in
  Array.iteri (fun i _ -> in_use.(i) <- Atomic.make 0) in_use;
  let overlap = Atomic.make 0 in
  let idx_of log =
    let rec go i = if logs.(i) == log then i else go (i + 1) in
    go 0
  in
  let ds =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 5_000 do
              let log = Fptree.Microlog.Pool.acquire pool in
              let i = idx_of log in
              if Atomic.fetch_and_add in_use.(i) 1 <> 0 then Atomic.incr overlap;
              ignore (Atomic.fetch_and_add in_use.(i) (-1));
              Fptree.Microlog.Pool.release pool log
            done))
  in
  List.iter Domain.join ds;
  Alcotest.(check int) "no slot handed to two holders" 0 (Atomic.get overlap)

(* ---- inner nodes ---- *)

let mk_leaves n = Array.init n (fun i -> ((i + 1) * 10, Fptree.Inner.leaf_ref i))

let fixed_kind = Fptree.Keys.Fixed.inner_kind

let test_inner_rebuild_and_route () =
  let leaves = mk_leaves 100 in
  let t = Fptree.Inner.rebuild ~fanout:8 ~kind:fixed_kind leaves in
  (* key k routes to the first leaf whose max (= (i+1)*10) >= k *)
  for k = 1 to 1100 do
    let l = Fptree.Inner.descend t.Fptree.Inner.root k in
    let expect = min 99 (((k + 9) / 10) - 1) in
    if l.Fptree.Inner.off <> expect then
      Alcotest.failf "key %d routed to leaf %d (expect %d)" k l.Fptree.Inner.off
        expect
  done;
  Alcotest.(check bool) "multiple levels" true (Fptree.Inner.height t.Fptree.Inner.root >= 2)

let test_inner_update_parents_splits () =
  let t =
    Fptree.Inner.create ~fanout:4 ~kind:fixed_kind (Fptree.Inner.leaf_ref 0)
  in
  (* register right siblings 1..20 with separators 10,20,... *)
  for i = 1 to 20 do
    Fptree.Inner.update_parents t ~sep:(i * 10) ~right:(Fptree.Inner.leaf_ref i)
  done;
  (* routing: key 95 -> leaf 9 (covers (90,100]); key 5 -> leaf 0 *)
  let route k = (Fptree.Inner.descend t.Fptree.Inner.root k).Fptree.Inner.off in
  Alcotest.(check int) "low key" 0 (route 5);
  Alcotest.(check int) "mid key (90,100] -> leaf 9" 9 (route 95);
  Alcotest.(check int) "exact separator (80,90] -> leaf 8" 8 (route 90);
  Alcotest.(check int) "high key" 20 (route 9999);
  Alcotest.(check bool) "tree grew" true (Fptree.Inner.height t.Fptree.Inner.root >= 2)

let test_inner_find_leaf_and_prev () =
  let leaves = mk_leaves 10 in
  let t = Fptree.Inner.rebuild ~fanout:4 ~kind:fixed_kind leaves in
  let find k = Fptree.Inner.find_leaf_and_prev_rs (Htm.Node_versions.scratch ()) t k in
  let l, prev = find 35 in
  Alcotest.(check int) "leaf for 35" 3 l.Fptree.Inner.off;
  (match prev with
  | Some p -> Alcotest.(check int) "prev leaf" 2 p.Fptree.Inner.off
  | None -> Alcotest.fail "expected a previous leaf");
  let _, prev0 = find 1 in
  Alcotest.(check bool) "leftmost has no prev" true (prev0 = None)

let test_inner_remove_leaf () =
  let leaves = mk_leaves 10 in
  let t = Fptree.Inner.rebuild ~fanout:4 ~kind:fixed_kind leaves in
  Fptree.Inner.remove_leaf t 35;
  (* leaf 3 is gone; 35 now routes to leaf 4 (max 40) *)
  let l = Fptree.Inner.descend t.Fptree.Inner.root 35 in
  Alcotest.(check int) "routes to successor" 4 l.Fptree.Inner.off;
  (* removing everything but one leaf keeps a routable structure *)
  List.iter
    (fun k -> Fptree.Inner.remove_leaf t k)
    [ 5; 15; 25; 45; 55; 65; 75; 85 ];
  let l = Fptree.Inner.descend t.Fptree.Inner.root 1 in
  Alcotest.(check int) "last leaf still reachable" 9 l.Fptree.Inner.off

let test_inner_dram_accounting () =
  let t = Fptree.Inner.rebuild ~fanout:16 ~kind:fixed_kind (mk_leaves 1000) in
  let nodes = Fptree.Inner.inner_node_count t in
  Alcotest.(check bool) "node count plausible" true (nodes > 70 && nodes < 120);
  Alcotest.(check bool) "dram bytes positive" true
    (Fptree.Inner.dram_bytes t > nodes * 100)

(* Every cleared child slot holds the one shared empty child: a fixed
   [split_inner] allocates on the minor heap only what its new node
   does (the node's arrays are major-heap blocks at this fanout) plus
   the returned pair, and [remove_at] allocates nothing. *)
let test_inner_edit_alloc () =
  let module I = Fptree.Inner in
  let fanout = 4097 in
  let t = I.create ~fanout ~kind:fixed_kind (I.leaf_ref 0) in
  let full () =
    let n = I.make_inner t ~bottom:true in
    I.set_keys n (Array.init (fanout - 1) (fun i -> 2 * i));
    Array.iteri (fun i _ -> n.I.leaves.(i) <- I.leaf_ref i) n.I.leaves;
    n
  in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let node = words (fun () -> ignore (I.make_inner t ~bottom:true)) in
  let n = full () in
  let split = words (fun () -> ignore (I.split_inner t n)) in
  Alcotest.(check bool)
    (Printf.sprintf "split_inner allocates its node only (%.0f words, node %.0f)"
       split node)
    true (split <= node +. 3.);
  let n = full () in
  let removed = words (fun () -> I.remove_at t n 0; I.remove_at t n 100) in
  Alcotest.(check (float 0.)) "remove_at allocates nothing" 0. removed;
  I.check { t with I.root = n }

(* Random [update_parents] / [remove_leaf] sequences on a fanout-4 tree
   grow it to height >= 3 and collapse it back to 1, with
   [check] (the level invariant included) after every step.  The model
   is the live leaves in key order, each with the lower bound of its
   range ([None] below every key): an add splits the range holding its
   separator, and a removed leaf's range goes to a neighbour, whichever
   now routes it.  Every leaf must route the key just above its lower
   bound ([above], or [lowest] for the first). *)
let level_walk (type k) name (kind : k Fptree.Inner.kind) ~(gen : Random.State.t -> k)
    ~lowest ~(above : k -> k) ~(pp : k Fmt.t) =
  let module I = Fptree.Inner in
  let rng = Random.State.make [| 43 |] in
  let t = I.create ~fanout:4 ~kind (I.leaf_ref 0) in
  let probe = function None -> lowest | Some k -> above k in
  let route lo = (I.descend t.root (probe lo)).off in
  let used = Hashtbl.create 64 and live = ref [ (None, 0) ] in
  let next = ref 1 and peak = ref 1 in
  let step what =
    (try I.check t with Failure e -> Alcotest.failf "%s %s: %s" name what e);
    peak := max !peak (I.height t.root);
    List.iter
      (fun (lo, id) ->
        if route lo <> id then
          Alcotest.failf "%s %s: %a routes to leaf %d, not %d" name what pp
            (probe lo) (route lo) id)
      !live
  in
  let add () =
    let k = gen rng in
    if not (Hashtbl.mem used k) then begin
      Hashtbl.add used k ();
      I.update_parents t ~sep:k ~right:(I.leaf_ref !next);
      let rec ins = function
        | (lo, id) :: ((Some k', _) :: _ as rest) when kind.compare k' k < 0 ->
          (lo, id) :: ins rest
        | e :: rest -> e :: (Some k, !next) :: rest
        | [] -> assert false
      in
      live := ins !live;
      incr next;
      step (Format.asprintf "add %a" pp k)
    end
  in
  let remove () =
    let l = Array.of_list !live in
    let n = Array.length l in
    if n > 1 then begin
      let j = Random.State.int rng n in
      let lo, id = l.(j) in
      I.remove_leaf t (probe lo);
      let heir = route lo in
      if j > 0 && heir = snd l.(j - 1) then ()
      else if j < n - 1 && heir = snd l.(j + 1) then l.(j + 1) <- (lo, heir)
      else Alcotest.failf "%s: leaf %d's range went to leaf %d" name id heir;
      live := List.filteri (fun i _ -> i <> j) (Array.to_list l);
      step (Printf.sprintf "remove leaf %d" id)
    end
  in
  for round = 1 to 3 do
    while I.height t.root < 3 || List.length !live < 30 do
      if Random.State.int rng 5 = 0 then remove () else add ()
    done;
    (* A removal collapses the root by at most one level, so the walk
       goes on (one leaf added back, one removed) until the root is a
       bottom node again. *)
    while List.length !live > 1 || I.height t.root > 1 do
      if List.length !live > 1 && Random.State.int rng 5 > 0 then remove ()
      else add ()
    done;
    Alcotest.(check bool)
      (Printf.sprintf "%s round %d: grew to height %d" name round !peak)
      true (!peak >= 3);
    Alcotest.(check int) (Printf.sprintf "%s round %d: collapsed" name round)
      1 (I.height t.root);
    peak := 1
  done

let test_inner_levels () =
  level_walk "fixed" fixed_kind
    ~gen:(fun rng -> 2 * Random.State.int rng 100_000)
    ~lowest:min_int ~above:succ ~pp:Fmt.int;
  level_walk "var" Fptree.Keys.Var.inner_kind
    ~gen:(fun rng ->
      String.init (1 + Random.State.int rng 16) (fun _ ->
          if Random.State.bool rng then 'a' else 'b'))
    ~lowest:"" ~above:(fun k -> k ^ "\000") ~pp:Fmt.string

(* ---- key modules ---- *)

(* a scratch block whose payload hosts pointer cells owned by "the
   data structure" (keeps the cells out of the allocator's header) *)
let scratch_cells a =
  Pmem.Palloc.alloc a ~into:(Pmem.Palloc.root_loc a) 64;
  (Pmem.Palloc.root a).Pmem.Pptr.off

let test_var_key_blocks () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  let a = Pmem.Palloc.create ~size:(1024 * 1024) () in
  let ctx = { Fptree.Keys.region = Pmem.Palloc.region a; alloc = a } in
  let scratch = scratch_cells a in
  let cell = scratch in
  Fptree.Keys.Var.write ctx ~off:cell "hello-world";
  Alcotest.(check string) "read back" "hello-world" (Fptree.Keys.Var.read ctx ~off:cell);
  Alcotest.(check bool) "matches" true (Fptree.Keys.Var.matches ctx ~off:cell "hello-world");
  Alcotest.(check bool) "mismatch" false (Fptree.Keys.Var.matches ctx ~off:cell "hello");
  (* move shares the block; reset_ref drops one reference *)
  let cell2 = scratch + 16 in
  Fptree.Keys.Var.move ctx ~src:cell ~dst:cell2;
  Alcotest.(check string) "moved ref reads" "hello-world"
    (Fptree.Keys.Var.read ctx ~off:cell2);
  Fptree.Keys.Var.reset_ref ctx ~off:cell;
  Alcotest.(check string) "reset cell reads empty" "" (Fptree.Keys.Var.read ctx ~off:cell);
  Fptree.Keys.Var.dealloc ctx ~off:cell2;
  Alcotest.(check (list int)) "block freed" []
    (Pmem.Palloc.leaked_blocks a ~reachable:[ scratch ])

let test_var_key_defensive_read () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  let a = Pmem.Palloc.create ~size:(1024 * 1024) () in
  let ctx = { Fptree.Keys.region = Pmem.Palloc.region a; alloc = a } in
  let scratch = scratch_cells a in
  (* a garbage pointer must read as "" rather than raise *)
  Pmem.Pptr.write (Pmem.Palloc.region a) scratch
    (Pmem.Pptr.make ~region_id:(Scm.Region.id (Pmem.Palloc.region a))
       ~off:(1024 * 1024 - 8));
  Alcotest.(check string) "out-of-range block reads empty" ""
    (Fptree.Keys.Var.read ctx ~off:scratch)

(* ---- inner-node search ---- *)

(* The model of [K.search]: a binary search that compares the probe
   with each separator [Inner.key] builds, through [cmp]. *)
let child_index cmp (n : 'k Fptree.Inner.inner) k =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cmp k (Fptree.Inner.key n mid) <= 0 then go lo mid else go (mid + 1) hi
  in
  go 0 n.nkeys

(* [K.search] against [child_index K.compare] on nodes of every
   fill [n = 0 .. cap]: sorted unique keys below [n], junk above (the
   dummy or a stale key, and a stale anchor, as splits and removals
   leave them), and probes below, equal to, between and above every
   key.  An [nkeys] past the arrays (or below 0) must act as the
   clamped node: with unchecked loads, anything else reads outside
   them. *)
module Search_tests (K : Fptree.Keys.KEY) (S : sig
  val name : string
  val pool : K.t array  (* sorted, unique *)
  val probes : K.t array -> K.t list  (* for a node's keys *)
end) =
struct
  let test () =
    let rng = Random.State.make [| 29 |] in
    let np = Array.length S.pool in
    List.iter
      (fun cap ->
        let t =
          Fptree.Inner.create ~fanout:(cap + 1) ~kind:K.inner_kind
            (Fptree.Inner.leaf_ref 0)
        in
        for n = 0 to cap do
          for _trial = 1 to 20 do
            (* [n] distinct pool indices, ascending *)
            let idx = Array.init np Fun.id in
            for i = np - 1 downto 1 do
              let j = Random.State.int rng (i + 1) in
              let x = idx.(i) in
              idx.(i) <- idx.(j);
              idx.(j) <- x
            done;
            let live = Array.sub idx 0 n in
            Array.sort compare live;
            let keys = Array.map (fun i -> S.pool.(i)) live in
            let node = Fptree.Inner.make_inner t ~bottom:true in
            Fptree.Inner.set_keys node keys;
            for i = n to cap - 1 do
              if Array.length node.keys > 0 then
                node.keys.(i) <-
                  (if Random.State.bool rng then K.dummy
                   else S.pool.(Random.State.int rng np));
              node.anchors.(i) <- Random.State.bits rng
            done;
            let probes = S.probes keys in
            List.iter
              (fun nk ->
                let clamped = max 0 (min nk cap) in
                List.iter
                  (fun k ->
                    node.nkeys <- clamped;
                    let expect = child_index K.compare node k in
                    node.nkeys <- nk;
                    let got = K.search node k in
                    if got <> expect then
                      Alcotest.failf "%s cap %d n %d nkeys %d: search %d, child_index %d"
                        S.name cap n nk got expect)
                  probes)
              (if n = cap then [ n; n + 1; n + 7; max_int; -1 ] else [ n ])
          done
        done)
      [ 1; 2; 7; 8; 63 ]
end

module Search_fixed =
  Search_tests
    (Fptree.Keys.Fixed)
    (struct
      let name = "fixed"
      let pool = Array.init 200 (fun i -> (3 * i) - 300)
      let probes keys =
        [ min_int; max_int ]
        @ List.concat_map (fun k -> [ k - 1; k; k + 1 ]) (Array.to_list keys)
    end)

(* Var keys: every string over "ab" of length 1 .. 6, so keys share
   prefixes and differ in length ("a" < "aa" < "ab" < "b"). *)
module Search_var =
  Search_tests
    (Fptree.Keys.Var)
    (struct
      let name = "var"
      let pool =
        let rec words l =
          if l = 0 then [ "" ]
          else List.concat_map (fun w -> [ w ^ "a"; w ^ "b" ]) (words (l - 1))
        in
        List.concat_map words [ 1; 2; 3; 4; 5; 6 ]
        |> List.sort_uniq String.compare |> Array.of_list
      let probes keys =
        [ ""; "\000"; "c"; "\255\255" ]
        @ Array.to_list pool
        @ List.concat_map (fun k -> [ k ^ "\000"; k ^ "z" ]) (Array.to_list keys)
    end)

(* ---- inner-node form ---- *)

(* Inner nodes of either key kind against a test-side model: the
   node's separators as a sorted array.  The node's prefix, anchors,
   kept keys and DRAM share are recomputed from the model here, from
   the definition, and [K.search] must pick the model's first
   separator at or above the probe.  [M] says what the definition is
   for the key kind, and how a trial draws keys. *)
module Node_tests (K : Fptree.Keys.KEY) (M : sig
  val name : string
  val key_t : K.t Alcotest.testable

  (* What a trial draws its keys around, and a key added to half the
     search trials' pools. *)
  type gen

  val gen : Random.State.t -> gen
  val gen_key : Random.State.t -> gen -> K.t
  val seed : gen -> K.t

  (* The common prefix of sorted separators; a separator's anchor
     under it, and whether it is long; the prefix's DRAM bytes. *)
  val prefix : K.t array -> string
  val anchor : string -> K.t -> int
  val long : string -> K.t -> bool
  val prefix_bytes : string -> int

  (* Below, equal to, between and above every separator, for a node
     holding these. *)
  val probes : K.t array -> K.t list
end) =
struct
  module I = Fptree.Inner

  (* [n] holds [model] in canonical form, and its DRAM share is the
     documented sum: 24 + 8 per child slot + 8 per anchor slot + 8 per
     key slot + the prefix + each long separator. *)
  let check_node what (t : K.t I.t) (n : K.t I.inner) model =
    let cnt = Array.length model in
    Alcotest.(check int) (what ^ ": nkeys") cnt n.nkeys;
    Alcotest.(check (array M.key_t)) (what ^ ": separators") model
      (Array.init cnt (I.key n));
    let prefix = M.prefix model in
    Alcotest.(check string) (what ^ ": prefix") prefix n.prefix;
    let long = M.long prefix in
    Alcotest.(check (array int)) (what ^ ": anchors")
      (Array.map (M.anchor prefix) model)
      (Array.sub n.anchors 0 cnt);
    Alcotest.(check (array M.key_t)) (what ^ ": kept keys")
      (Array.init (Array.length n.keys) (fun i ->
           if i < cnt && long model.(i) then model.(i) else K.dummy))
      n.keys;
    let root = t.root in
    t.root <- n;
    let bytes = I.dram_bytes t in
    t.root <- root;
    let expect =
      24 + (8 * (Array.length n.leaves + Array.length n.inners))
      + (8 * (Array.length n.anchors + Array.length n.keys))
      + M.prefix_bytes prefix
      + Array.fold_left
          (fun b k -> if long k then b + K.dram_bytes k else b) 0 model
    in
    Alcotest.(check int) (what ^ ": dram bytes") expect bytes

  (* The model's child for [k]: its first separator at or above [k]. *)
  let model_index model k =
    let rec go i =
      if i < Array.length model && K.compare k model.(i) > 0 then go (i + 1)
      else i
    in
    go 0

  let check_search what (n : K.t I.inner) model =
    List.iter
      (fun k ->
        let expect = model_index model k in
        let got = K.search n k in
        if got <> expect then
          Alcotest.failf "%s: probe %a: search %d, model %d" what
            (Alcotest.pp M.key_t) k got expect)
      (M.probes model)

  let check what t n model =
    check_node what t n model;
    check_search what n model

  (* Up to [cap] sorted distinct keys: [2 cap] draws (and, half the
     time, the seed), the smallest kept. *)
  let draw_model rng g cap =
    let pool = List.init (2 * cap) (fun _ -> M.gen_key rng g) in
    let pool = if Random.State.bool rng then M.seed g :: pool else pool in
    List.sort_uniq K.compare pool |> List.filteri (fun i _ -> i < cap)
    |> Array.of_list

  (* Random separator sets, set whole. *)
  let test_search () =
    let rng = Random.State.make [| 31 |] in
    for trial = 1 to 300 do
      let g = M.gen rng in
      let cap = 1 + Random.State.int rng 24 in
      let t = I.create ~fanout:(cap + 1) ~kind:K.inner_kind (I.leaf_ref 0) in
      let model = draw_model rng g cap in
      let n = I.make_inner t ~bottom:true in
      I.set_keys n model;
      check (Printf.sprintf "%s trial %d" M.name trial) t n model
    done

  (* [k]'s position in [model] and the model with it *)
  let insert_sorted model k =
    let below, above =
      List.partition (fun x -> K.compare x k < 0) (Array.to_list model)
    in
    (List.length below, Array.of_list (below @ (k :: above)))

  let remove_sep model kpos =
    Array.of_list (List.filteri (fun i _ -> i <> kpos) (Array.to_list model))

  let leaves model =
    Array.mapi (fun i k -> (k, I.leaf_ref i)) model

  (* One random edit of [!n] holding [!model]: an insert, a removal, a
     split (keeping either half) or a rebuild of a tree over the model,
     checked to route every separator to its leaf.  [check] sees each
     half of a split. *)
  let edit ~check rng g t n model step what =
    let cap = t.I.fanout - 1 and cnt = Array.length !model in
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 when cnt < cap ->
      let k = M.gen_key rng g in
      if not (Array.mem k !model) then begin
        let pos, m = insert_sorted !model k in
        I.insert_at !n !n.leaves pos k (I.leaf_ref step);
        model := m
      end
    | 5 | 6 when cnt > 0 ->
      let pos = Random.State.int rng (cnt + 1) in
      I.remove_at t !n pos;
      model := remove_sep !model (if pos = 0 then 0 else pos - 1)
    | 7 | 8 when cnt >= 2 ->
      let mid = cnt / 2 in
      let sep, right = I.split_inner t !n in
      Alcotest.check M.key_t (what ^ ": split separator") !model.(mid) sep;
      let left_m = Array.sub !model 0 mid
      and right_m = Array.sub !model (mid + 1) (cnt - mid - 1) in
      check (what ^ " (split left)") t !n left_m;
      check (what ^ " (split right)") t right right_m;
      if Random.State.bool rng then (n := right; model := right_m)
      else model := left_m
    | 9 when cnt > 0 ->
      let fanout = 3 + Random.State.int rng 4 in
      let r = I.rebuild ~fanout ~kind:K.inner_kind (leaves !model) in
      I.check r;
      Array.iteri
        (fun i k ->
          let l = I.descend r.root k in
          if l.off <> i then
            Alcotest.failf "%s: rebuilt tree routes %a to leaf %d, not %d"
              what (Alcotest.pp M.key_t) k l.off i)
        !model
    | _ -> ()

  (* Random insert_at / remove_at / split_inner / rebuild sequences;
     every node is checked after every step. *)
  let test_edits () =
    let rng = Random.State.make [| 37 |] in
    for trial = 1 to 60 do
      let g = M.gen rng in
      let cap = 2 + Random.State.int rng 14 in
      let t = I.create ~fanout:(cap + 1) ~kind:K.inner_kind (I.leaf_ref 0) in
      let n = ref (I.make_inner t ~bottom:true) and model = ref [||] in
      for step = 1 to 120 do
        let what = Printf.sprintf "%s trial %d step %d" M.name trial step in
        edit ~check rng g t n model step what;
        check what t !n !model
      done
    done

  (* Torn reads.  An optimistic reader may see one write's [nkeys],
     [prefix], [anchors] and [keys] beside another's.  Two canonical
     states of one node (before and after a few edits) give every such
     pairing; on each, [K.search] stays in [0, min nkeys capacity] and
     a bounded descent of a tree holding only that node raises
     nothing, from the root and through the recorded parent. *)
  let test_torn () =
    let rng = Random.State.make [| 41 |] in
    let no_check _ _ _ _ = () in
    for trial = 1 to 200 do
      let g = M.gen rng in
      let cap = 2 + Random.State.int rng 14 in
      let t = I.create ~fanout:(cap + 1) ~kind:K.inner_kind (I.leaf_ref 0) in
      let model = ref (draw_model rng g (Random.State.int rng (cap + 1))) in
      let n = ref (I.make_inner t ~bottom:true) in
      I.set_keys !n !model;
      Array.iteri (fun i _ -> !n.leaves.(i + 1) <- I.leaf_ref i) !model;
      let snap (n : K.t I.inner) =
        (n.nkeys, n.prefix, Array.copy n.anchors, Array.copy n.keys)
      in
      let model_a = !model and a = snap !n in
      for step = 1 to 1 + Random.State.int rng 3 do
        edit ~check:no_check rng g t n model step ""
      done;
      let b = snap !n in
      let probes = M.probes model_a @ M.probes !model in
      for mask = 0 to 15 do
        let pick bit (nk, p, an, ks) (nk', p', an', ks') =
          if mask land bit = 0 then (nk, p, an, ks) else (nk', p', an', ks')
        in
        let nk, _, _, _ = pick 1 a b and _, p, _, _ = pick 2 a b in
        let _, _, an, _ = pick 4 a b and _, _, _, ks = pick 8 a b in
        let h =
          { !n with nkeys = nk; prefix = p; anchors = Array.copy an;
                    keys = Array.copy ks }
        in
        let tree = { t with root = h } in
        let what = Printf.sprintf "%s trial %d hybrid %d" M.name trial mask in
        List.iter
          (fun k ->
            let fail e =
              Alcotest.failf "%s: probe %a raised %s" what
                (Alcotest.pp M.key_t) k (Printexc.to_string e)
            in
            let i = try K.search h k with e -> fail e in
            if i < 0 || i > min nk cap then
              Alcotest.failf "%s: probe %a: search %d outside [0, %d]" what
                (Alcotest.pp M.key_t) k i (min nk cap);
            List.iter
              (fun above ->
                let u = I.upper tree k in
                try
                  for _ = 1 to 2 do
                    ignore
                      (I.find_leaf_upper_rs (Htm.Node_versions.scratch ()) tree
                         k ~above u)
                  done
                with e -> fail e)
              [ false; true ])
          probes
      done
    done
end

(* String keys under a random prefix of 0..20 bytes with suffixes of
   0..12 bytes over [\000 a b \255], so anchors tie, pad with zeros and
   differ only in the length; one key in five leaves the prefix, which
   breaks it on insert.  The anchor is defined as seven suffix bytes,
   big-endian, zero-padded, then the length 0..7, or 8 for longer. *)
module Var_nodes =
  Node_tests
    (Fptree.Keys.Var)
    (struct
      let name = "var"
      let key_t = Alcotest.string
      let alphabet = [| '\000'; 'a'; 'b'; '\255' |]

      let rand_string rng len =
        String.init len (fun _ -> alphabet.(Random.State.int rng 4))

      type gen = string

      let gen rng = rand_string rng (Random.State.int rng 21)

      (* A key under the trial's prefix [p], or (one in five) under a
         shorter cut of it with a random byte after. *)
      let gen_key rng p =
        let suffix = rand_string rng (Random.State.int rng 13) in
        if Random.State.int rng 5 > 0 then p ^ suffix
        else
          let cut = Random.State.int rng (String.length p + 1) in
          String.sub p 0 cut ^ rand_string rng 1 ^ suffix

      let seed p = p

      let lcp a b =
        let n = min (String.length a) (String.length b) in
        let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
        go 0

      let prefix model =
        let cnt = Array.length model in
        if cnt = 0 then ""
        else String.sub model.(0) 0 (lcp model.(0) model.(cnt - 1))

      let anchor p k =
        let pl = String.length p in
        let sl = String.length k - pl in
        let a = ref 0 in
        for j = 0 to 6 do
          a := (!a * 256) + (if j < sl then Char.code k.[pl + j] else 0)
        done;
        (!a * 16) + min sl 8

      let long p k = String.length k - String.length p > 7
      let prefix_bytes = Fptree.Keys.Var.dram_bytes

      (* Probes around every separator, and ones that leave the prefix
         inside it or stop short of it. *)
      let probes model =
        let p = prefix model in
        let around k =
          let l = String.length k in
          [ k; k ^ "\000"; k ^ "\255"; k ^ "a" ]
          @ (if l = 0 then []
             else
               let last = Char.code k.[l - 1] in
               [ String.sub k 0 (l - 1) ]
               @ List.filter_map
                   (fun d ->
                     let c = last + d in
                     if c < 0 || c > 255 then None
                     else Some (String.sub k 0 (l - 1) ^ String.make 1 (Char.chr c)))
                   [ -1; 1 ])
        in
        let inside =
          List.concat
            (List.init (String.length p) (fun j ->
                 let c = Char.code p.[j] in
                 [ String.sub p 0 j ]
                 @ List.filter_map
                     (fun d ->
                       let c = c + d in
                       if c < 0 || c > 255 then None
                       else Some (String.sub p 0 j ^ String.make 1 (Char.chr c) ^ "zz"))
                     [ -1; 1 ]))
        in
        [ ""; "\000"; "\255\255\255\255\255\255\255\255\255" ]
        @ inside @ List.concat_map around (Array.to_list model)
    end)

(* Fixed keys over the whole 63-bit range: the extremes, keys near 0
   of either sign, keys drawn from all of it, and runs of neighbours
   around the trial's base.  A key is its own anchor under the empty
   prefix, never long, and the node keeps no keys. *)
module Fixed_nodes =
  Node_tests
    (Fptree.Keys.Fixed)
    (struct
      let name = "fixed"
      let key_t = Alcotest.int

      type gen = int

      let any rng = Int64.to_int (Random.State.bits64 rng)
      let gen = any

      let specials =
        [| min_int + 1; min_int + 2; -2; -1; 0; 1; max_int - 1; max_int |]

      let gen_key rng base =
        match Random.State.int rng 8 with
        | 0 -> specials.(Random.State.int rng (Array.length specials))
        | 1 | 2 | 3 -> any rng
        | _ -> base + Random.State.int rng 64 - 32

      let seed base = base
      let prefix _ = ""
      let anchor _ k = k
      let long _ _ = false
      let prefix_bytes _ = 0

      let probes model =
        [ min_int; min_int + 1; -1; 0; 1; max_int ]
        @ List.concat_map (fun k -> [ k - 1; k; k + 1 ]) (Array.to_list model)
    end)

(* [Var.matches] reads what [String.equal (Var.read ...) k] reads: the
   cell's two pointer words, then (for a pointer into this region) the
   block's length word, then (for a plausible length) the key span,
   whether or not its length is the probe's.  Each case starts from a
   cold simulated cache, so its counted line reads are the distinct
   lines of those spans. *)
let test_var_matches_line_reads () =
  let line = Scm.Cacheline.line_size in
  let key n c = String.init n (fun i -> if i = n - 1 then c else Char.chr (97 + (i mod 26))) in
  let stored_70 = key 70 'x' and stored_130 = key 130 'x' in
  (* (name, how the cell is set up, probe) *)
  let cases =
    [ ("hit", `Key stored_70, stored_70);
      ("hit, short", `Key "k1", "k1");
      ("equal-length miss, last byte", `Key stored_70, key 70 'y');
      ("equal-length miss, first byte", `Key stored_130, "Z" ^ String.sub stored_130 1 129);
      ("stored longer", `Key stored_130, key 20 'x');
      ("stored shorter", `Key stored_70, stored_130);
      ("stored shorter, short", `Key "k1", "k12");
      ("null cell", `Null, stored_70);
      ("null cell, empty probe", `Null, "");
      ("foreign region", `Foreign, stored_70);
      ("implausible length", `Bad_len, stored_70) ]
  in
  List.iter
    (fun (name, cell, probe) ->
      Scm.Registry.clear ();
      Scm.Config.reset ();
      Scm.Config.set_stats false;
      let a = Pmem.Palloc.create ~size:(1024 * 1024) () in
      let r = Pmem.Palloc.region a in
      let ctx = { Fptree.Keys.region = r; alloc = a } in
      let off = scratch_cells a in
      let stored = match cell with `Key k -> k | _ -> stored_130 in
      Fptree.Keys.Var.write ctx ~off stored;
      let base = (Pmem.Pptr.read r off).Pmem.Pptr.off in
      (match cell with
      | `Key _ -> ()
      | `Null -> Pmem.Pptr.write r off Pmem.Pptr.null
      | `Foreign ->
        Pmem.Pptr.write r off
          (Pmem.Pptr.make ~region_id:(Scm.Region.id r + 1) ~off:base)
      | `Bad_len -> Scm.Region.write_word r base (Fptree.Keys.max_var_key_len + 1));
      let expect = String.equal (Fptree.Keys.Var.read ctx ~off) probe in
      let lines = Hashtbl.create 8 in
      let span o len =
        for ln = o / line to (o + len - 1) / line do
          Hashtbl.replace lines ln ()
        done
      in
      span off 16;
      (match cell with
      | `Key k ->
        span base 8;
        span (base + 8) (String.length k)
      | `Bad_len -> span base 8
      | `Null | `Foreign -> ());
      Scm.Config.set_stats true;
      Scm.Stats.reset ();
      let got = Fptree.Keys.Var.matches ctx ~off probe in
      let reads = (Scm.Stats.snapshot ()).Scm.Stats.line_reads in
      Scm.Config.set_stats false;
      Alcotest.(check bool) (name ^ ": agrees with read") expect got;
      Alcotest.(check int) (name ^ ": line reads") (Hashtbl.length lines) reads)
    cases

(* ---- range-scan gather ---- *)

(* [K.gather] over hand-written leaves, the same body for both key
   modules.  The leaf geometries are the three a range scan meets:
   interleaved FPTree cells (m = 56), PTree's split key and value
   arrays (m = 32), and the concurrent FPTree's m = 64, whose top
   usable slot (62) is the bitmap's sign bit. *)
module Gather_tests (K : Fptree.Keys.KEY) (S : sig
  val name : string
  val key_bytes : int
  val key : int -> K.t
  val key_t : K.t Alcotest.testable
end) =
struct
  let layouts =
    List.map
      (fun (name, m, fingerprints, split_arrays) ->
        ( name,
          Fptree.Layout.make ~m ~key_bytes:S.key_bytes ~value_bytes:8
            ~fingerprints ~split_arrays ))
      [ ("interleaved m=56", 56, true, false);
        ("split arrays m=32", 32, false, true);
        ("m=64", 64, true, false) ]

  (* A fresh region holding one leaf of layout [l] with the given
     [(slot, key, value)] cells.  The cells are written with counting
     off, so the simulated cache holds none of the leaf's lines. *)
  let build l cells =
    Scm.Registry.clear ();
    Scm.Config.reset ();
    Scm.Config.set_stats false;
    let a = Pmem.Palloc.create ~size:(1024 * 1024) () in
    Pmem.Palloc.alloc a ~into:(Pmem.Palloc.root_loc a) l.Fptree.Layout.bytes;
    let ctx = { Fptree.Keys.region = Pmem.Palloc.region a; alloc = a } in
    let leaf = (Pmem.Palloc.root a).Pmem.Pptr.off in
    List.iter
      (fun (slot, k, v) ->
        K.write ctx ~off:(Fptree.Layout.key_off l ~leaf ~slot) k;
        Scm.Region.write_word ctx.Fptree.Keys.region
          (Fptree.Layout.value_off l ~leaf ~slot) v)
      cells;
    Scm.Config.set_stats true;
    (ctx, leaf)

  (* One leaf whose slots carry [(slot, key index)] entries, each with
     value [1000 + index]; returns the gather arguments that stay
     fixed. *)
  let leaf l entries =
    let ctx, leaf =
      build l (List.map (fun (slot, i) -> (slot, S.key i, 1000 + i)) entries)
    in
    (ctx, leaf, List.fold_left (fun bm (slot, _) -> bm lor (1 lsl slot)) 0 entries)

  (* Run one gather; the result is the count and the sorted hit prefix
     as (key, value) pairs. *)
  let gather l (ctx, leaf, bm) ?(bm = bm) ~lo ~hi () =
    let ks = Array.make l.Fptree.Layout.m K.dummy in
    let vs = Array.make l.Fptree.Layout.m 0 in
    let n = K.gather ctx l ~leaf ~bm ~lo:(S.key lo) ~hi:(S.key hi) ks vs in
    (n, List.init n (fun i -> (ks.(i), vs.(i))))

  let hits is = List.map (fun i -> (S.key i, 1000 + i)) is
  let result = Alcotest.(pair int (list (pair S.key_t int)))
  let top l = min (l.Fptree.Layout.m - 1) 62

  (* six keys in permuted slot order, including slot 0 and the top
     usable slot *)
  let entries l = [ (0, 50); (3, 10); (7, 40); (12, 20); (20, 60); (top l, 30) ]

  let test_filters () =
    List.iter
      (fun (name, l) ->
        let lf = leaf l (entries l) in
        let chk what expect got =
          Alcotest.check result (Printf.sprintf "%s %s: %s" S.name name what)
            expect got
        in
        chk "ascending from a permuted leaf"
          (6, hits [ 10; 20; 30; 40; 50; 60 ])
          (gather l lf ~lo:0 ~hi:99 ());
        chk "hi is inclusive" (4, hits [ 10; 20; 30; 40 ])
          (gather l lf ~lo:0 ~hi:40 ());
        chk "lo is inclusive" (5, hits [ 20; 30; 40; 50; 60 ])
          (gather l lf ~lo:20 ~hi:99 ());
        chk "every key below lo" (0, []) (gather l lf ~lo:61 ~hi:99 ());
        chk "every key above hi" (0, []) (gather l lf ~lo:0 ~hi:5 ());
        chk "empty bitmap" (0, []) (gather l lf ~bm:0 ~lo:0 ~hi:99 ()))
      layouts

  (* Random leaves against a reference: the occupied slots below [m]
     filtered in slot order and sorted by key.  A leaf read under its
     version word holds each key once, so each leaf draws distinct
     keys.  Each call starts from a cold simulated cache, so its
     counted [line_reads] must be the number of distinct lines the
     slot-by-slot loop reads: the key cell (and a var key's block) of
     every occupied slot, and the value cell of every hit. *)
  let test_differential () =
    let rng = Random.State.make [| 7 |] in
    let line = Scm.Cacheline.line_size in
    List.iter
      (fun (name, l) ->
        let m = l.Fptree.Layout.m in
        let top = top l in
        for trial = 1 to 150 do
          (* a random permutation of 0 .. top: one key per slot *)
          let keys = Array.init (top + 1) Fun.id in
          for i = top downto 1 do
            let j = Random.State.int rng (i + 1) in
            let k = keys.(i) in
            keys.(i) <- keys.(j);
            keys.(j) <- k
          done;
          let ctx, leaf =
            build l (List.init (top + 1) (fun s -> (s, S.key keys.(s), 1000 + s)))
          in
          let density = [| 0; 10; 50; 90; 100 |].(Random.State.int rng 5) in
          let bm = ref 0 in
          for s = 0 to top do
            if Random.State.int rng 100 < density then bm := !bm lor (1 lsl s)
          done;
          (* a bit at or above [m] names no slot and must be ignored *)
          if m < 63 && Random.State.bool rng then
            bm := !bm lor (1 lsl (m + Random.State.int rng (63 - m)));
          let lo = Random.State.int rng (top + 3) - 1 in
          let hi = Random.State.int rng (top + 3) - 1 in
          let occupied = List.filter (fun s -> !bm land (1 lsl s) <> 0) (List.init m Fun.id) in
          let hit s = keys.(s) >= lo && keys.(s) <= hi in
          let pairs =
            List.filter hit occupied
            |> List.map (fun s -> (keys.(s), 1000 + s))
            |> List.sort compare
          in
          let expect = (List.length pairs, List.map (fun (k, v) -> (S.key k, v)) pairs) in
          let touched = Hashtbl.create 64 in
          let span off len =
            for ln = off / line to (off + len - 1) / line do
              Hashtbl.replace touched ln ()
            done
          in
          Scm.Config.set_stats false;
          List.iter
            (fun s ->
              let ko = Fptree.Layout.key_off l ~leaf ~slot:s in
              span ko K.cell_bytes;
              (match K.cell_ref ctx ~off:ko with
              | Some p ->
                let base = p.Pmem.Pptr.off in
                span base (8 + Scm.Region.read_word ctx.Fptree.Keys.region base)
              | None -> ());
              if hit s then span (Fptree.Layout.value_off l ~leaf ~slot:s) 8)
            occupied;
          Scm.Config.set_stats true;
          Scm.Stats.reset ();
          let got = gather l (ctx, leaf, !bm) ~lo ~hi () in
          let what = Printf.sprintf "%s %s trial %d" S.name name trial in
          Alcotest.check result what expect got;
          Alcotest.(check int) (what ^ ": line reads") (Hashtbl.length touched)
            (Scm.Stats.snapshot ()).Scm.Stats.line_reads
        done)
      layouts
end

module Gather_fixed =
  Gather_tests
    (Fptree.Keys.Fixed)
    (struct
      let name = "fixed"
      let key_bytes = 8
      let key i = i
      let key_t = Alcotest.int
    end)

module Gather_var =
  Gather_tests
    (Fptree.Keys.Var)
    (struct
      let name = "var"
      let key_bytes = 16
      let key i = Printf.sprintf "key-%03d" i
      let key_t = Alcotest.string
    end)

let () =
  Alcotest.run "fptree-units"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "range" `Quick test_fingerprint_range;
          Alcotest.test_case "deterministic" `Quick test_fingerprint_deterministic;
          Alcotest.test_case "uniformity" `Quick test_fingerprint_uniformity;
          Alcotest.test_case "expected-probe formulas" `Quick test_expected_probe_formulas;
        ] );
      ( "layout",
        [
          Alcotest.test_case "first cache line" `Quick test_layout_first_cacheline;
          Alcotest.test_case "geometry variants" `Quick test_layout_geometry_variants;
          Alcotest.test_case "validation" `Quick test_layout_validation;
          Alcotest.test_case "bitmap ops" `Quick test_bitmap_ops;
          Alcotest.test_case "bitmap commit atomicity" `Quick test_bitmap_commit_is_atomic;
        ] );
      ( "microlog",
        [
          Alcotest.test_case "fields" `Quick test_microlog_fields;
          Alcotest.test_case "alignment enforced" `Quick test_microlog_alignment_enforced;
          Alcotest.test_case "crash atomicity" `Quick test_microlog_crash_atomicity;
          Alcotest.test_case "slot pool" `Quick test_microlog_pool;
          Alcotest.test_case "slot pool concurrent" `Quick test_microlog_pool_concurrent;
        ] );
      ( "inner",
        [
          Alcotest.test_case "rebuild and route" `Quick test_inner_rebuild_and_route;
          Alcotest.test_case "update_parents splits" `Quick test_inner_update_parents_splits;
          Alcotest.test_case "find leaf and prev" `Quick test_inner_find_leaf_and_prev;
          Alcotest.test_case "remove leaf" `Quick test_inner_remove_leaf;
          Alcotest.test_case "dram accounting" `Quick test_inner_dram_accounting;
          Alcotest.test_case "edits clear slots without allocating" `Quick
            test_inner_edit_alloc;
          Alcotest.test_case "levels hold as the tree grows and collapses"
            `Quick test_inner_levels;
        ] );
      ( "keys",
        [
          Alcotest.test_case "var key blocks" `Quick test_var_key_blocks;
          Alcotest.test_case "defensive reads" `Quick test_var_key_defensive_read;
          Alcotest.test_case "fixed search matches child_index" `Quick Search_fixed.test;
          Alcotest.test_case "var search matches child_index" `Quick Search_var.test;
          Alcotest.test_case "var matches reads what read reads" `Quick
            test_var_matches_line_reads;
          Alcotest.test_case "anchored search matches child_index" `Quick
            Var_nodes.test_search;
          Alcotest.test_case "anchored node edits keep canonical form" `Quick
            Var_nodes.test_edits;
          Alcotest.test_case "fixed node search matches the model" `Quick
            Fixed_nodes.test_search;
          Alcotest.test_case "fixed node edits keep canonical form" `Quick
            Fixed_nodes.test_edits;
          Alcotest.test_case "var torn node reads stay in bounds" `Quick
            Var_nodes.test_torn;
          Alcotest.test_case "fixed torn node reads stay in bounds" `Quick
            Fixed_nodes.test_torn;
        ] );
      ( "gather",
        [ Alcotest.test_case "fixed filters and order" `Quick Gather_fixed.test_filters;
          Alcotest.test_case "var filters and order" `Quick Gather_var.test_filters;
          Alcotest.test_case "fixed random leaves" `Quick Gather_fixed.test_differential;
          Alcotest.test_case "var random leaves" `Quick Gather_var.test_differential;
        ] );
    ]
