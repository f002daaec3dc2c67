(** [tatp-ro]: the TATP read-only mix (GET_SUBSCRIBER_DATA 35 /
    GET_NEW_DESTINATION 10 / GET_ACCESS_DATA 35) on [Dbproto.Tatp] with
    FPTree indexes, one client, fast mode, followed by repeated
    [Tatp.restart]s (Fig. 12).

    Set-up populates the database (subscriber ids in sequence, as the
    benchmark specifies).  Transaction parameters are generated before
    timing and replayed cyclically until the time is up.  Every result
    is checked against the population formula: GET_SUBSCRIBER_DATA
    exactly, the other two as "absent or the formula's value" (row
    counts per subscriber are drawn during population).

    Why: fixed-key point lookups plus [dbproto] column reads with zero
    SCM writes after set-up, so write-path changes should leave it
    unchanged. *)

open Bigarray
open Harness
module T = Dbproto.Tatp
module Ix = Dbproto.Index
module Col = Dbproto.Column
module F = Fptree.Fixed

let stream_len a = if a.scale < 1. then 1 lsl 16 else 1 lsl 21

(* One transaction packed in an int: subscriber id (24 bits), the mix
   draw in [0, 80) (7 bits), then two small parameters. *)
let pack s_id dice p1 p2 = s_id lor (dice lsl 24) lor (p1 lsl 31) lor (p2 lsl 34)
let s_id_of e = e land 0xFF_FFFF
let dice_of e = (e lsr 24) land 0x7F
let p1_of e = (e lsr 31) land 7
let p2_of e = (e lsr 34) land 3

let generate ~seed ~subscribers ~len =
  let rng = Random.State.make [| seed; 5 |] in
  let ops = Array1.create int c_layout len in
  for j = 0 to len - 1 do
    let s_id = 1 + Random.State.int rng subscribers in
    let dice = Random.State.int rng 80 in
    let p1 = 1 + Random.State.int rng 4 in
    let p2 = Random.State.int rng 3 in
    ops.{j} <- pack s_id dice p1 p2
  done;
  ops

let subscriber_data s = T.attr s 1 0 + T.attr s 2 0 + T.attr s 3 0 + T.attr s 4 0

(** Run one transaction and check its result against the population
    formula. *)
let txn db e =
  let s = s_id_of e and dice = dice_of e in
  if dice < 35 then T.get_subscriber_data db s = subscriber_data s
  else if dice < 45 then begin
    let v = T.get_new_destination db s (p1_of e) (p2_of e) in
    v = 0 || v = T.attr s 8 (p2_of e)
  end
  else begin
    let ai = p1_of e in
    let v = T.get_access_data db s ai in
    v = 0 || v = T.attr s 5 ai + T.attr s 6 ai
  end

(** Replay one transaction's control flow (that of [Tatp]'s
    transactions) and report each index find as [on_find index key] and
    each column read as [on_col column row]: the counts per transaction
    and the inputs of the layer probes. *)
let replay (db : T.db) e ~on_find ~on_col =
  let find i (ix : Ix.t) k =
    on_find i k;
    ix.Ix.find k
  in
  let col c r =
    on_col c r;
    Col.get c r
  in
  let s = s_id_of e and dice = dice_of e in
  if dice < 35 then begin
    match find 0 db.T.sub_index s with
    | Some row -> List.iter (fun c -> ignore (col c row)) [ db.T.sub_nbr; db.T.sub_bits; db.T.sub_vlr; db.T.sub_msc ]
    | None -> ()
  end
  else if dice < 45 then begin
    match find 2 db.T.sf_index (T.sf_key s (p1_of e)) with
    | Some sf_row when col db.T.sf_active sf_row <> 0 -> (
      match find 3 db.T.cf_index (T.cf_key sf_row (p2_of e)) with
      | Some cf_row -> if col db.T.cf_end_time cf_row > p2_of e * 8 then ignore (col db.T.cf_numberx cf_row)
      | None -> ())
    | _ -> ()
  end
  else
    match find 1 db.T.ai_index (T.ai_key s (p1_of e)) with
    | Some row -> ignore (col db.T.ai_data12 row); ignore (col db.T.ai_data34 row)
    | None -> ()

(* Fixed-key FPTree footprint under sequential inserts is ~40 B/key;
   the largest index (call forwarding) holds ~2.3 keys per subscriber. *)
let arena_bytes subscribers =
  Scm.Cacheline.align_up ((subscribers * 4 * 64) + (4 * 1024 * 1024)) 4096

let indexes (db : T.db) = [| db.T.sub_index; db.T.ai_index; db.T.sf_index; db.T.cf_index |]

let region_of (ix : Ix.t) = Pmem.Palloc.region (Option.get ix.Ix.alloc)

let run (a : args) =
  let subscribers = scaled a 200_000 in
  let len = stream_len a in
  let ops = generate ~seed:a.seed ~subscribers ~len in
  configure ~counted:false;
  let setups = if a.trace then 1 else 5 in
  let built = ref None in
  let setup_times =
    Array.init setups (fun _ ->
        built := None;
        Scm.Registry.clear ();
        settle ();
        let s, db =
          timed_corrected (fun () ->
              T.populate ~arena_bytes:(arena_bytes subscribers) ~subscribers Ix.FPTree)
        in
        built := Some db;
        s)
  in
  let db = Option.get !built in
  (* spot checks of the index contents against the population formula *)
  let rng = Random.State.make [| a.seed; 6 |] in
  for _ = 1 to 1000 do
    let s = 1 + Random.State.int rng subscribers in
    if db.T.sub_index.Ix.find s <> Some (s - 1) then check_fail "sub_index %d" s;
    if db.T.ai_index.Ix.find (T.ai_key s 1) = None then check_fail "ai_index %d" s;
    if db.T.sf_index.Ix.find (T.sf_key s 1) = None then check_fail "sf_index %d" s
  done;
  let mask = len - 1 in
  let body _ i = if not (txn db (Array1.unsafe_get ops (i land mask))) then op_failed () in
  let warm = [| recorder ~cap:1 ~slices:1 |] in
  run_clients warm ~stop:(Time_ns 500_000_000) ~traced:false body;
  attempted := warm.(0).ops;
  settle ();
  let slices = slices_for a.seconds in
  let recs = [| recorder ~cap:(lat_cap ~seconds:a.seconds) ~slices |] in
  run_clients recs ~stop:(Time_ns (a.seconds * 1_000_000_000 / slices)) ~traced:a.trace body;
  let ph = summarize recs in
  attempted := !attempted + ph.total_ops;
  log "tatp-ro: %d txns at %.0f txn/s" ph.total_ops ph.throughput;
  (* counted pass over the start of the stream *)
  let counted_ops = min len (scaled a 200_000 / batch * batch) in
  Scm.Config.set_stats true;
  Scm.Stats.reset ();
  let fp0 = Obs.Counter.value Fptree.Metrics.fp_false_positives in
  let searches0 = Obs.Histogram.count Fptree.Metrics.probes_per_search in
  let probes0 = Obs.Histogram.sum Fptree.Metrics.probes_per_search in
  let store0 = Scm.Stats.store_bytes () in
  let crec = [| recorder ~cap:1 ~slices:1 |] in
  run_clients crec ~stop:(Ops counted_ops) ~traced:false body;
  let counts = Scm.Stats.snapshot () in
  let store_bytes = Scm.Stats.store_bytes () - store0 in
  let searches = Obs.Histogram.count Fptree.Metrics.probes_per_search - searches0 in
  let probes = Obs.Histogram.sum Fptree.Metrics.probes_per_search - probes0 in
  let fps = Obs.Counter.value Fptree.Metrics.fp_false_positives - fp0 in
  Scm.Config.set_stats false;
  attempted := !attempted + counted_ops;
  (* a whole-database restart must answer like the original; restart
     time is then taken per index, allocator re-attach and tree recovery
     apart, from the same images *)
  settle ();
  let db', _ = T.restart ~workers:1 db in
  for s = 1 to min subscribers 1000 do
    if T.get_subscriber_data db' s <> subscriber_data s then check_fail "restarted db, subscriber %d" s
  done;
  let trees = ref [||] in
  let split =
    repeat_restart ~reps:(if a.trace then 9 else 1) (fun () ->
        let parts = [| 0.; 0. |] in
        trees :=
          Array.map
            (fun ix ->
              let s1, a' = timed (fun () -> Pmem.Palloc.of_region (region_of ix)) in
              let s2, t' = timed (fun () -> F.recover a') in
              parts.(0) <- parts.(0) +. s1;
              parts.(1) <- parts.(1) +. s2;
              t')
            (indexes db);
        parts)
  in
  let trees = !trees in
  let sum f = Array.fold_left (fun acc t -> acc + f t) 0 trees in
  let keys = sum F.count in
  Array.iteri
    (fun i t ->
      if F.count t <> (indexes db).(i).Ix.count () then check_fail "recovered index %d count" i)
    trees;
  if not a.trace then begin
    metric "throughput" "ops/s" ph.throughput;
    metric "latency_p50_us" "us" ph.p50_us;
    metric "latency_p99_us" "us" ph.p99_us;
    metric "setup_s" "s" (median_f setup_times);
    modeled_metrics ~wall_ns_per_op:ph.ns_per_op ~ops:counted_ops counts;
    metric "dram_bytes_per_key" "B" (per (sum F.dram_bytes) keys);
    metric "scm_bytes_per_key" "B" (per (sum F.scm_bytes) keys)
  end
  else begin
    scm_count_metrics ~ops:counted_ops ~store_bytes counts;
    metric "fptree.key_probes_per_search" "count" (per probes searches);
    metric "fptree.fp_false_positive_rate" "ratio" (per fps probes);
    metric "fptree.recover_ms" "ms" (split.(1) *. 1e3);
    metric "pmem.of_region_ms" "ms" (split.(0) *. 1e3);
    let finds = ref [] and cols = ref [] and nf = ref 0 and nc = ref 0 in
    for i = 0 to counted_ops - 1 do
      replay db (Array1.get ops (i land mask))
        ~on_find:(fun ix k ->
          incr nf;
          if !nf <= probe_n then finds := (ix, k) :: !finds)
        ~on_col:(fun c r ->
          incr nc;
          if !nc <= probe_n then cols := (c, r) :: !cols)
    done;
    let finds_per = per !nf counted_ops and cols_per = per !nc counted_ops in
    let finds = Array.of_list (List.rev !finds) and cols = Array.of_list (List.rev !cols) in
    metric "dbproto.index_finds_per_txn" "count" finds_per;
    metric "dbproto.column_reads_per_txn" "count" cols_per;
    metric "dbproto.txn_p50_us" "us" (span_p50_us recs ~kind_of:(fun _ _ -> ()) ~pick:(fun () -> true));
    metric "gc.minor_words_per_op" "words" (minor_words_per_op recs);
    metric "obs.trace_overhead_ratio" "ratio" (trace_overhead_ratio recs);
    let sub = trees.(0) in
    metric "fptree.inner_height" "count" (float_of_int (F.height sub));
    (* layer probes replay the transactions' own index finds (on the
       indexes recovered from the same images) and column reads *)
    let tree i = trees.(fst finds.(i)) in
    let tp =
      tree_probes ~inner:(fun i -> (tree i).F.inner) ~cmp:Int.compare
        ~keys:(Array.map snd finds) ~fingerprint:Fptree.Keys.Fixed.fingerprint
        ~find_slot:(fun i leaf k h -> F.find_slot_raw (tree i) leaf k h)
        ~lin_scan:(fun i leaf k -> F.lin_scan (tree i) leaf k (F.leaf_bitmap (tree i) leaf) 0)
        ~try_lock:(fun i -> F.try_lock (tree i)) ~unlock:(fun i -> F.unlock (tree i))
    in
    let col_ns =
      probe ~n:(Array.length cols) (fun i ->
          let c, r = cols.(i) in
          ignore (Sys.opaque_identity (Col.get c r)))
    in
    metric "dbproto.column_get_ns" "ns" col_ns;
    let reg = region_of db.T.sub_index in
    let sc = scm_probes ~seed:a.seed reg ~extent:(Scm.Region.size reg) ~counted:false in
    ignore (pmem_probes ());
    let gen = gen_ns_per_op ~read:(fun i -> Array1.unsafe_get ops (i land mask)) in
    metric "driver.gen_ns_per_op" "ns" gen;
    (* one client and no writes: no optimistic section can abort (and
       the [Index.t] handles do not expose the trees' counters) *)
    let aborts = htm_metrics ~ops:counted_ops [] [] in
    zero
      [ ("fptree.leaf_splits_per_op", "count"); ("fptree.leaf_deletes_per_op", "count");
        ("fptree.microlog_persists_per_op", "count");
        ("pmem.allocs_per_op", "count"); ("pmem.frees_per_op", "count");
        ("fptree.insert_p50_us", "us"); ("fptree.delete_p50_us", "us");
        ("fptree.update_p50_us", "us"); ("fptree.find_p50_us", "us");
        ("fptree.range_p50_us", "us");
        ("kvstore.get_self_ns", "ns"); ("kvstore.hit_ratio", "ratio");
        ("kvstore.get_p50_us", "us"); ("kvstore.set_p50_us", "us") ];
    closure ~workload:"tatp-ro" ~measured_ns:ph.raw_ns_per_op
      [
        ("driver.gen_ns_per_op", gen, 1.);
        ("fptree.descent_ns + htm.observe_validate_ns", tp.descent_ns +. tp.observe_validate_ns,
         finds_per +. aborts);
        ("fptree.fp_scan_ns", tp.fp_scan_ns, finds_per);
        ("scm.read_word_ns (value)", sc.read_word_ns, finds_per);
        ("dbproto.column_get_ns", col_ns, cols_per);
      ]
  end
