(** [kv-zipf]: the memcached use of the paper (Fig. 13) —
    [Kvstore.Cache] over the concurrent variable-key FPTree, fast mode.

    Set-up preloads [n] [memc-%012d] keys with 32-byte values in a
    seeded shuffled order.  The measured phase is a closed loop of two
    client domains, each sending 95% GET / 5% SET (overwrites of
    preloaded keys), keys drawn from a scrambled Zipfian (theta 0.99).
    Each client's op stream is generated before timing and replayed
    cyclically until the time is up.  A value is its key's 12 digits,
    ':' and a version, so every GET must hit and carry its own key.

    Why: the only workload with concurrent domains, so it alone loads
    the [htm] read-set validation and leaf locks on hot leaves, plus
    out-of-line key dereferences and the [kvstore] item path.  Almost
    no allocation, splits or recovery; its hot set fits in cache. *)

open Bigarray
open Harness
module V = Fptree.Var
module Cache = Kvstore.Cache

let clients = 2

(** Per-client op stream length (a power of two; replayed cyclically). *)
let stream_len a = if a.scale < 1. then 1 lsl 16 else 1 lsl 21

let key_bits = 24
let key_mask = (1 lsl key_bits) - 1

let key_of i = Printf.sprintf "memc-%012d" i
let value_of i version = Printf.sprintf "%012d:%019d" i version

(* [v] carries key [k]'s digits ([k] = "memc-" ^ 12 digits).  Top-level
   and tail-recursive so the per-GET check allocates nothing. *)
let rec owns v k j =
  j = 12 || (String.unsafe_get v j = String.unsafe_get k (5 + j) && owns v k (j + 1))

type stream = {
  entries : (int, int_elt, c_layout) Array1.t;
      (** key index, plus [(set slot + 1) lsl key_bits] for a SET *)
  set_vals : string array;
}

(** One client's op stream: Zipfian ranks scrambled through a seeded
    permutation, so the hot keys are spread over the key space. *)
let generate ~seed ~n ~len ~scramble d =
  let z = Workloads.Zipf.create ~theta:0.99 ~n ~seed:((seed * 131) + d) () in
  let rng = Random.State.make [| seed; 3; d |] in
  let ops = Array1.create int c_layout len in
  let sets = ref [] and nsets = ref 0 in
  for j = 0 to len - 1 do
    let i = scramble.(Workloads.Zipf.next z) in
    if Random.State.int rng 100 < 5 then begin
      sets := value_of i ((d lsl 40) lor j) :: !sets;
      incr nsets;
      ops.{j} <- (!nsets lsl key_bits) lor i
    end
    else ops.{j} <- i
  done;
  { entries = ops; set_vals = Array.of_list (List.rev !sets) }

(* Var-key FPTree footprint: a 64-byte-aligned key block per key plus
   the leaves, ~260 B/key; sized with room under the 90% watermark. *)
let arena_bytes n = Scm.Cacheline.align_up ((n * 400) + (16 * 1024 * 1024)) 4096

let preload ~n ~keys ~vals0 ~order =
  let a = Pmem.Palloc.create ~size:(arena_bytes n) () in
  let tr = V.create_concurrent a in
  let c = Cache.create (Kvstore.Tree_ops.of_fptree_concurrent tr) in
  Array.iter
    (fun i ->
      match Cache.set c keys.(i) vals0.(i) with
      | Ok () -> ()
      | Error `Out_of_space -> check_fail "preload: SET %d refused" i)
    order;
  (a, tr, c)

let run (a : args) =
  let n = scaled a 1_000_000 in
  let len = stream_len a in
  log "kv-zipf: n=%d; generating inputs" n;
  let keys = Array.init n key_of in
  let vals0 = Array.init n (fun i -> value_of i 0) in
  let order = Workloads.Keygen.permutation ~seed:a.seed n in
  let scramble = Workloads.Keygen.permutation ~seed:(a.seed + 1) n in
  let streams = Array.init clients (generate ~seed:a.seed ~n ~len ~scramble) in
  configure ~counted:false;
  let setups = if a.trace then 1 else 5 in
  let built = ref None in
  let setup_times =
    Array.init setups (fun _ ->
        built := None;
        Scm.Registry.clear ();
        settle ();
        let s, r = timed_corrected (fun () -> preload ~n ~keys ~vals0 ~order) in
        built := Some r;
        s)
  in
  let alloc, tr, cache = Option.get !built in
  let fails = Array.make (clients * 8) 0 in
  let body d =
    let { entries = ops; set_vals } = streams.(d) in
    let mask = Array1.dim ops - 1 in
    fun i ->
      let e = Array1.unsafe_get ops (i land mask) in
      let k = Array.unsafe_get keys (e land key_mask) in
      if e lsr key_bits = 0 then begin
        match Cache.get cache k with
        | Some v when String.length v = 32 && owns v k 0 -> ()
        | _ -> fails.(d * 8) <- fails.(d * 8) + 1
      end
      else
        match Cache.set cache k (Array.unsafe_get set_vals ((e lsr key_bits) - 1)) with
        | Ok () -> ()
        | Error `Out_of_space -> fails.(d * 8) <- fails.(d * 8) + 1
  in
  let is_set d i = Array1.get streams.(d).entries (i land (len - 1)) lsr key_bits <> 0 in
  (* warm-up: caches and branch state, then a compacted heap *)
  let warm = Array.init clients (fun _ -> recorder ~cap:1 ~slices:1) in
  run_clients warm ~stop:(Time_ns 500_000_000) ~traced:false body;
  Array.iter (fun r -> attempted := !attempted + r.ops) warm;
  settle ();
  let hits0 = Cache.hits cache and misses0 = Cache.misses cache in
  let htm0 = V.htm_stats tr in
  let slices = slices_for a.seconds in
  let recs =
    Array.init clients (fun _ -> recorder ~cap:(lat_cap ~seconds:a.seconds) ~slices)
  in
  run_clients recs
    ~stop:(Time_ns (a.seconds * 1_000_000_000 / slices))
    ~traced:a.trace body;
  let ph = summarize recs in
  let htm1 = V.htm_stats tr in
  let hits = Cache.hits cache - hits0 and misses = Cache.misses cache - misses0 in
  attempted := !attempted + ph.total_ops;
  log "kv-zipf: %d ops at %.0f ops/s (%d clients)" ph.total_ops ph.throughput clients;
  (* counted pass: one client replays the start of its stream with SCM
     line counting on, for the per-op SCM traffic *)
  let counted_ops = min len (scaled a 200_000 / batch * batch) in
  Scm.Config.set_stats true;
  Scm.Stats.reset ();
  Obs.Attrib.reset ();
  V.reset_stats tr;
  let store0 = Scm.Stats.store_bytes () in
  let fp0 = Obs.Counter.value Fptree.Metrics.fp_false_positives in
  let searches0 = Obs.Histogram.count Fptree.Metrics.probes_per_search in
  let crec = [| recorder ~cap:1 ~slices:1 |] in
  run_clients crec ~stop:(Ops counted_ops) ~traced:false body;
  let counts = Scm.Stats.snapshot () in
  let store_bytes = Scm.Stats.store_bytes () - store0 in
  let probes = (V.stats tr).Fptree.Tree.key_probes in
  let searches = Obs.Histogram.count Fptree.Metrics.probes_per_search - searches0 in
  let fps = Obs.Counter.value Fptree.Metrics.fp_false_positives - fp0 in
  Scm.Config.set_stats false;
  attempted := !attempted + counted_ops;
  Array.iter (fun f -> failed := !failed + f) fails;
  let count = V.count tr in
  if count <> n then check_fail "index holds %d keys, expected %d" count n;
  let dram_bytes = V.dram_bytes tr and scm_bytes = V.scm_bytes tr in
  (* restart of the index image *)
  let reg = Pmem.Palloc.region alloc in
  settle ();
  let checked = ref false in
  let restart =
    repeat_restart ~reps:(if a.trace then 9 else 1) (fun () ->
        let s1, a' = timed (fun () -> Pmem.Palloc.of_region reg) in
        let s2, t' = timed (fun () -> V.recover ~config:V.var_concurrent_config a') in
        if not !checked && V.count t' <> n then
          check_fail "recovered %d keys, expected %d" (V.count t') n;
        checked := true;
        [| s1; s2 |])
  in
  if not a.trace then begin
    metric "throughput" "ops/s" ph.throughput;
    metric "latency_p50_us" "us" ph.p50_us;
    metric "latency_p99_us" "us" ph.p99_us;
    metric "setup_s" "s" (median_f setup_times);
    modeled_metrics ~wall_ns_per_op:ph.ns_per_op ~ops:counted_ops counts;
    metric "dram_bytes_per_key" "B" (per dram_bytes count);
    metric "scm_bytes_per_key" "B" (per scm_bytes count)
  end
  else begin
    let ops = ph.total_ops in
    scm_count_metrics ~ops:counted_ops ~store_bytes counts;
    metric "fptree.key_probes_per_search" "count" (per probes searches);
    metric "fptree.fp_false_positive_rate" "ratio" (per fps probes);
    metric "fptree.recover_ms" "ms" (restart.(1) *. 1e3);
    metric "pmem.of_region_ms" "ms" (restart.(0) *. 1e3);
    let aborts = htm_metrics ~ops htm0 htm1 in
    metric "kvstore.hit_ratio" "ratio" (per hits (hits + misses));
    metric "kvstore.get_p50_us" "us" (span_p50_us recs ~kind_of:is_set ~pick:not);
    metric "kvstore.set_p50_us" "us" (span_p50_us recs ~kind_of:is_set ~pick:Fun.id);
    metric "gc.minor_words_per_op" "words" (minor_words_per_op recs);
    metric "obs.trace_overhead_ratio" "ratio" (trace_overhead_ratio recs);
    metric "fptree.inner_height" "count" (float_of_int (V.height tr));
    (* layer probes on the live cache, keys drawn from client 0's stream *)
    let pkeys =
      Array.init probe_n (fun j ->
          keys.(Array1.get streams.(0).entries (j land (len - 1)) land key_mask))
    in
    let tp =
      tree_probes ~inner:(fun _ -> tr.V.inner) ~cmp:String.compare ~keys:pkeys
        ~fingerprint:Fptree.Keys.Var.fingerprint
        ~find_slot:(fun _ leaf k h -> V.find_slot_raw tr leaf k h)
        ~lin_scan:(fun _ leaf k -> V.lin_scan tr leaf k (V.leaf_bitmap tr leaf) 0)
        ~try_lock:(fun _ -> V.try_lock tr) ~unlock:(fun _ -> V.unlock tr)
    in
    let get_ns, find_ns =
      probe_pair ~reps:9
        (fun i -> ignore (Sys.opaque_identity (Cache.get cache pkeys.(i))))
        (fun i -> ignore (Sys.opaque_identity (V.find tr pkeys.(i))))
    in
    let get_self = Float.max 0. (get_ns -. find_ns) in
    metric "kvstore.get_self_ns" "ns" get_self;
    let sc = scm_probes ~seed:a.seed reg ~extent:(Pmem.Palloc.size alloc) ~counted:false in
    ignore (pmem_probes ());
    let gen =
      gen_ns_per_op ~read:(fun i ->
          keys.(Array1.unsafe_get streams.(0).entries (i land (len - 1)) land key_mask))
    in
    metric "driver.gen_ns_per_op" "ns" gen;
    zero
      [ ("fptree.leaf_splits_per_op", "count"); ("fptree.leaf_deletes_per_op", "count");
        ("fptree.microlog_persists_per_op", "count");
        ("pmem.allocs_per_op", "count"); ("pmem.frees_per_op", "count");
        ("fptree.insert_p50_us", "us"); ("fptree.delete_p50_us", "us");
        ("fptree.update_p50_us", "us"); ("fptree.find_p50_us", "us");
        ("fptree.range_p50_us", "us");
        ("dbproto.column_get_ns", "ns"); ("dbproto.index_finds_per_txn", "count");
        ("dbproto.column_reads_per_txn", "count"); ("dbproto.txn_p50_us", "us") ];
    let set_share =
      let c = ref 0 in
      for i = 0 to len - 1 do
        if is_set 0 i then incr c
      done;
      per !c len
    in
    (* a GET is one tree find; a SET is an insert attempt that finds
       the key, then an update: two descents, two leaf searches, two
       leaf lock round trips *)
    let tree_calls = 1. +. set_share in
    closure ~workload:"kv-zipf" ~measured_ns:ph.raw_ns_per_op
      [
        ("driver.gen_ns_per_op", gen, 1.);
        ("kvstore.get_self_ns", get_self, 1.);
        ("fptree.descent_ns + htm.observe_validate_ns", tp.descent_ns +. tp.observe_validate_ns,
         tree_calls +. aborts);
        ("fptree.fp_scan_ns", tp.fp_scan_ns, tree_calls);
        ("fptree.leaf_lock_ns", tp.leaf_lock_ns, 2. *. set_share);
        ("scm.read_word_ns (value)", sc.read_word_ns, 1. -. set_share);
        ("scm persist (fast mode)", sc.persist_line_ns, per counts.Scm.Stats.persists counted_ops);
      ]
  end
