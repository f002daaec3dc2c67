(** [ingest-churn]: the single-threaded fixed-key FPTree with leaf
    groups, one client, in the latency-model configuration (SCM line
    counting on, crash tracking and delay injection off — the Fig. 7
    convention).

    Set-up bulk-fills [n] shuffled keys.  The measured phase runs a
    fixed, pre-generated uniform mix: 40% inserts of fresh keys spread
    over the key space, 20% deletes, 20% updates, 15% finds and 5%
    ranges of about 100 keys.  Its length is [seconds * ops_per_second]
    ops — derived from the arguments, not from how fast the code runs —
    so the final image, the recovery input and every count depend only
    on the seed and the run length.  The run ends with repeated
    restarts ([Palloc.of_region] + [Fixed.recover]) of that image.

    Why: persists, micro-logs, [Palloc], splits and deletes, range-scan
    allocation and recovery at >= 1M keys do most of their work here;
    the working set is far larger than the simulated 512 KiB cache. *)

open Bigarray
open Harness
module F = Fptree.Fixed

(** Nominal rate that turns [--seconds] into an op budget. *)
let ops_per_second = 200_000

(** Key spacing: initial keys are multiples of [spacing]; fresh keys
    land in the gaps, so inserts are spread over the key space. *)
let spacing = 64

(** Keys a range spans on average at the initial density. *)
let range_keys = 100

let k_insert = 0
let k_delete = 1
let k_update = 2
let k_find = 3
let k_range = 4

type stream = {
  kind : (int, int_elt, c_layout) Array1.t;
  key : (int, int_elt, c_layout) Array1.t;
  arg : (int, int_elt, c_layout) Array1.t;  (** value, or range [hi] *)
  exp : (int, int_elt, c_layout) Array1.t;  (** find value / range count *)
  exp2 : (int, int_elt, c_layout) Array1.t; (** range key sum *)
  final_count : int;
  probe_keys : int array;                   (** present at the end *)
}

let value_of j k = ((j * 2654435761) lxor (k * 40503)) land 0xFF_FFFF_FFFF

let range_sum l = List.fold_left (fun a (k, _) -> a + k) 0 l

(** Simulate the op sequence against a DRAM reference and record each
    op with the result the tree must return.  The reference is flat so
    that generating millions of ops stays cheap: present keys and their
    values in two arrays (uniform picks by position, swap-remove on
    delete) and a presence bitmap over the key space for fresh-key
    draws and range counts.  Ranges are checked by count and key sum;
    values are checked by the finds. *)
let generate ~seed ~n ~ops ~init =
  let rng = Random.State.make [| seed; 2 |] in
  let mk () = Array1.create int c_layout ops in
  let kind = mk () and key = mk () and arg = mk () and exp = mk () and exp2 = mk () in
  let cap = n + ops in
  let pres = Array.make cap 0 and vals = Array.make cap 0 in
  let bits = Bytes.make (((n * spacing) / 8) + 1) '\000' in
  let mem k = Char.code (Bytes.unsafe_get bits (k lsr 3)) land (1 lsl (k land 7)) <> 0 in
  let flip k =
    let b = k lsr 3 in
    Bytes.unsafe_set bits b
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits b) lxor (1 lsl (k land 7))))
  in
  Array.iteri
    (fun i k ->
      pres.(i) <- k;
      vals.(i) <- value_of (-1) k;
      flip k)
    init;
  let np = ref n in
  for j = 0 to ops - 1 do
    let d = Random.State.int rng 100 in
    if d < 40 || !np < 2 then begin
      let rec fresh () =
        let k =
          (Random.State.int rng n * spacing) + 1 + Random.State.int rng (spacing - 1)
        in
        if mem k then fresh () else k
      in
      let k = fresh () in
      let v = value_of j k in
      pres.(!np) <- k;
      vals.(!np) <- v;
      incr np;
      flip k;
      kind.{j} <- k_insert; key.{j} <- k; arg.{j} <- v
    end
    else if d < 60 then begin
      let p = Random.State.int rng !np in
      let k = pres.(p) in
      decr np;
      pres.(p) <- pres.(!np);
      vals.(p) <- vals.(!np);
      flip k;
      kind.{j} <- k_delete; key.{j} <- k
    end
    else begin
      let p = Random.State.int rng !np in
      let k = pres.(p) in
      key.{j} <- k;
      if d < 80 then begin
        let v = value_of j k in
        vals.(p) <- v;
        kind.{j} <- k_update; arg.{j} <- v
      end
      else if d < 95 then begin
        kind.{j} <- k_find; exp.{j} <- vals.(p)
      end
      else begin
        let hi = k + (range_keys * spacing) in
        let cnt = ref 0 and sum = ref 0 in
        for b = k lsr 3 to min (hi lsr 3) (Bytes.length bits - 1) do
          let byte = Char.code (Bytes.unsafe_get bits b) in
          if byte <> 0 then
            for i = 0 to 7 do
              let x = (b lsl 3) + i in
              if byte land (1 lsl i) <> 0 && x >= k && x <= hi then begin
                incr cnt;
                sum := !sum + x
              end
            done
        done;
        kind.{j} <- k_range; arg.{j} <- hi; exp.{j} <- !cnt; exp2.{j} <- !sum
      end
    end
  done;
  let probe_keys = Array.init probe_n (fun _ -> pres.(Random.State.int rng !np)) in
  { kind; key; arg; exp; exp2; final_count = !np; probe_keys }

(* Fixed-tree SCM footprint is ~28 bytes per key at the fill factor
   random inserts leave; size the arena for the largest key count the
   run can reach (every insert, no delete) with room under the 90%
   admission watermark. *)
let arena_bytes max_keys =
  Scm.Cacheline.align_up ((max_keys * 48) + (8 * 1024 * 1024)) 4096

let fill ~n ~arena init =
  let a = Pmem.Palloc.create ~size:arena () in
  let t = F.create_single a in
  Array.iteri
    (fun i k ->
      match F.try_insert t k (value_of (-1) k) with
      | Ok true -> ()
      | _ -> check_fail "fill: insert %d of %d refused" i n)
    init;
  (a, t)

let run (a : args) =
  let n = scaled a 1_000_000 in
  let ops = max (batch * 8) (int_of_float (float_of_int (a.seconds * ops_per_second) *. a.scale)) in
  let slices = slices_for a.seconds in
  let per_slice = ops_per_slice ops slices in
  let ops = per_slice * slices in
  let init =
    Array.map (fun i -> i * spacing) (Workloads.Keygen.permutation ~seed:a.seed n)
  in
  log "ingest-churn: n=%d ops=%d; generating inputs" n ops;
  let st = generate ~seed:a.seed ~n ~ops ~init in
  log "ingest-churn: inputs ready";
  let arena = arena_bytes (n + (ops * 2 / 5) + 1) in
  configure ~counted:true;
  let setups = if a.trace then 1 else 5 in
  let built = ref None in
  let setup_times =
    Array.init setups (fun _ ->
        built := None;
        Scm.Registry.clear ();
        settle ();
        let s, r = timed_corrected (fun () -> fill ~n ~arena init) in
        built := Some r;
        s)
  in
  let alloc, t = Option.get !built in
  log "ingest-churn: set-up %.2fs (median of %d)" (median_f setup_times) setups;
  if F.count t <> n then check_fail "fill: count %d <> %d" (F.count t) n;
  settle ();
  (* --- measured phase --- *)
  Scm.Stats.reset ();
  Obs.Attrib.reset ();
  F.reset_stats t;
  let store0 = Scm.Stats.store_bytes () in
  let allocs0 = Pmem.Palloc.alloc_count alloc and frees0 = Pmem.Palloc.free_count alloc in
  let fp0 = Obs.Counter.value Fptree.Metrics.fp_false_positives in
  let searches0 = Obs.Histogram.count Fptree.Metrics.probes_per_search in
  let htm0 = F.htm_stats t in
  let { kind; key; arg; exp; exp2; _ } = st in
  let body i =
    let k = Array1.unsafe_get key i in
    match Array1.unsafe_get kind i with
    | 0 -> (
      match F.try_insert t k (Array1.unsafe_get arg i) with
      | Ok true -> ()
      | _ -> op_failed ())
    | 1 -> if not (F.delete t k) then op_failed ()
    | 2 -> (
      match F.try_update t k (Array1.unsafe_get arg i) with
      | Ok true -> ()
      | _ -> op_failed ())
    | 3 -> if F.find_value t ~default:(-1) k <> Array1.unsafe_get exp i then op_failed ()
    | _ ->
      let l = F.range t ~lo:k ~hi:(Array1.unsafe_get arg i) in
      if List.length l <> Array1.unsafe_get exp i || range_sum l <> Array1.unsafe_get exp2 i
      then op_failed ()
  in
  let recs = [| recorder ~cap:ops ~slices |] in
  run_clients recs ~stop:(Ops per_slice) ~traced:a.trace (fun _ -> body);
  let ph = summarize recs in
  let counts = Scm.Stats.snapshot () in
  let store_bytes = Scm.Stats.store_bytes () - store0 in
  let stats = F.stats t in
  attempted := ph.total_ops;
  let final = F.count t in
  if final <> st.final_count then check_fail "final count %d <> reference %d" final st.final_count;
  log "ingest-churn: %d ops at %.0f ops/s; %d keys at the end" ph.total_ops ph.throughput final;
  let dram_bytes = F.dram_bytes t and scm_bytes = F.scm_bytes t in
  log "ingest-churn: checked; restarting";
  (* --- restart of the final image --- *)
  let reg = Pmem.Palloc.region alloc in
  let recovered = ref None in
  settle ();
  let restart =
    repeat_restart ~reps:(if a.trace then 9 else 1) (fun () ->
        recovered := None;
        let s1, a' = timed (fun () -> Pmem.Palloc.of_region reg) in
        let s2, t' = timed (fun () -> F.recover a') in
        recovered := Some t';
        [| s1; s2 |])
  in
  let t' = Option.get !recovered in
  if F.count t' <> st.final_count then
    check_fail "recovered count %d <> reference %d" (F.count t') st.final_count;
  if not a.trace then begin
    metric "throughput" "ops/s" ph.throughput;
    metric "latency_p50_us" "us" ph.p50_us;
    metric "latency_p99_us" "us" ph.p99_us;
    metric "setup_s" "s" (median_f setup_times);
    modeled_metrics ~wall_ns_per_op:ph.ns_per_op ~ops:ph.total_ops counts;
    metric "dram_bytes_per_key" "B" (per dram_bytes final);
    metric "scm_bytes_per_key" "B" (per scm_bytes final)
  end
  else begin
    let ops = ph.total_ops in
    scm_count_metrics ~ops ~store_bytes counts;
    let probes = stats.Fptree.Tree.key_probes in
    let searches = Obs.Histogram.count Fptree.Metrics.probes_per_search - searches0 in
    metric "fptree.key_probes_per_search" "count" (per probes searches);
    metric "fptree.fp_false_positive_rate" "ratio"
      (per (Obs.Counter.value Fptree.Metrics.fp_false_positives - fp0) probes);
    let splits = per stats.Fptree.Tree.leaf_splits ops in
    let leaf_deletes = per stats.Fptree.Tree.leaf_deletes ops in
    metric "fptree.leaf_splits_per_op" "count" splits;
    metric "fptree.leaf_deletes_per_op" "count" leaf_deletes;
    metric "fptree.microlog_persists_per_op" "count"
      (per (Obs.Attrib.comp_total ~comp:Obs.Attrib.comp_microlog Obs.Attrib.q_persists) ops);
    let allocs = per (Pmem.Palloc.alloc_count alloc - allocs0) ops in
    let frees = per (Pmem.Palloc.free_count alloc - frees0) ops in
    metric "pmem.allocs_per_op" "count" allocs;
    metric "pmem.frees_per_op" "count" frees;
    metric "fptree.recover_ms" "ms" (restart.(1) *. 1e3);
    metric "pmem.of_region_ms" "ms" (restart.(0) *. 1e3);
    let kind_of _ i = Array1.get kind i in
    let span name k = metric name "us" (span_p50_us recs ~kind_of ~pick:(( = ) k)) in
    span "fptree.insert_p50_us" k_insert;
    span "fptree.delete_p50_us" k_delete;
    span "fptree.update_p50_us" k_update;
    span "fptree.find_p50_us" k_find;
    span "fptree.range_p50_us" k_range;
    let aborts = htm_metrics ~ops htm0 (F.htm_stats t) in
    metric "gc.minor_words_per_op" "words" (minor_words_per_op recs);
    metric "obs.trace_overhead_ratio" "ratio" (trace_overhead_ratio recs);
    (* layer probes, on the final image, in the workload's own mode *)
    let tp =
      tree_probes ~inner:(fun _ -> t.F.inner) ~cmp:Int.compare ~keys:st.probe_keys
        ~fingerprint:Fptree.Keys.Fixed.fingerprint
        ~find_slot:(fun _ leaf k h -> F.find_slot_raw t leaf k h)
        ~lin_scan:(fun _ leaf k -> F.lin_scan t leaf k (F.leaf_bitmap t leaf) 0)
        ~try_lock:(fun _ -> F.try_lock t) ~unlock:(fun _ -> F.unlock t)
    in
    (* the stream's own ranges, replayed on the final image *)
    let ranges =
      let acc = ref [] and c = ref 0 and i = ref 0 in
      while !c < 2000 && !i < ops do
        if Array1.get kind !i = k_range then begin
          acc := (Array1.get key !i, Array1.get arg !i) :: !acc;
          incr c
        end;
        incr i
      done;
      Array.of_list !acc
    in
    let range_ns =
      probe ~n:(Array.length ranges) (fun i ->
          let lo, hi = ranges.(i) in
          ignore (Sys.opaque_identity (F.range t ~lo ~hi)))
    in
    metric "fptree.inner_height" "count" (float_of_int (F.height t));
    let sc = scm_probes ~seed:a.seed reg ~extent:(Pmem.Palloc.size alloc) ~counted:true in
    let alloc_free_ns, arm_reset_ns = pmem_probes () in
    let gen = gen_ns_per_op ~read:(fun i -> Array1.unsafe_get key (i mod Array1.dim key)) in
    metric "driver.gen_ns_per_op" "ns" gen;
    zero
      [ ("kvstore.get_self_ns", "ns"); ("kvstore.hit_ratio", "ratio");
        ("kvstore.get_p50_us", "us"); ("kvstore.set_p50_us", "us");
        ("dbproto.column_get_ns", "ns"); ("dbproto.index_finds_per_txn", "count");
        ("dbproto.column_reads_per_txn", "count"); ("dbproto.txn_p50_us", "us") ];
    let share k =
      let c = ref 0 in
      for i = 0 to ops - 1 do
        if Array1.unsafe_get kind i = k then incr c
      done;
      per !c ops
    in
    let point = 1. -. share k_range in
    let writes = share k_insert +. share k_delete +. share k_update in
    closure ~workload:"ingest-churn" ~measured_ns:ph.raw_ns_per_op
      [
        ("driver.gen_ns_per_op", gen, 1.);
        ("fptree.descent_ns + htm.observe_validate_ns", tp.descent_ns +. tp.observe_validate_ns,
         1. +. aborts);
        ("fptree.fp_scan_ns (counted)", tp.fp_scan_ns, point);
        ("fptree.leaf_lock_ns", tp.leaf_lock_ns, writes);
        ("scm.persist_line_ns_counted", sc.persist_line_ns, per counts.Scm.Stats.persists ops);
        ("pmem.alloc_free_ns / 2", alloc_free_ns /. 2., allocs +. frees);
        ("fptree.microlog_arm_reset_ns", arm_reset_ns, splits +. leaf_deletes);
        ("fptree range call (the stream's ranges)", range_ns, share k_range);
      ]
  end
