(** Hot-path microbenchmark for the fast-mode SCM accessors and the
    allocation-free tree operations.

    Measures throughput of insert / find / update / delete / range on
    the single-threaded FPTree at [scale * 1M] keys, and of the
    var-key lookups behind the kvstore's GET (memcached-style keys on
    the concurrent FPTreeVar), in two simulator modes:

    - [fast]: stats, crash tracking and delay injection all off — the
      configuration of the paper's throughput experiments (Figs 7-10);
    - [instrumented]: SCM access counting on (modeled-time runs).

    plus a concurrent find/mixed run on 1, 2 and 4 domains scored in
    effective thread-CPU seconds, and the flight recorder's
    gate-on/gate-off find throughput ratio.  (The fixed op traces that
    pin the simulator's counters are tier-1 tests, in
    test/test_hotpath.ml.)  Per-op minor-heap words are reported so
    allocation regressions on the hot paths are visible.

    Two gates end the run: the 2-domain [conc_find] speedup must be at
    least 1.0 (readers do not invalidate each other, Figs 9-11) and the
    traced/untraced find throughput ratio at least 0.9 (DESIGN.md §12).
    A gate below its bound prints one [FAIL:] line and exits 1. *)

module F = Fptree.Fixed

let record ~mode ~domains ~op ~ops f =
  let mw0 = Gc.minor_words () in
  let t0 = Obs.Clock.now_s () in
  f ();
  let secs = Obs.Clock.now_s () -. t0 in
  let mw = Gc.minor_words () -. mw0 in
  Printf.printf "  %-12s %-10s d=%-2d %8.3f Mops/s  (%7.3fs, %6.1f minor w/op)\n"
    mode op domains
    (float_of_int ops /. secs /. 1e6)
    secs
    (mw /. float_of_int (max 1 ops));
  flush stdout

(* ---- single-threaded suite (one tree per mode) ---- *)

let single_suite ~mode n =
  let a = Pmem.Palloc.create ~size:(512 * 1024 * 1024) () in
  let t = F.create_single a in
  let ins = Workloads.Keygen.permutation ~seed:101 n in
  let probe = Workloads.Keygen.permutation ~seed:102 n in
  record ~mode ~domains:1 ~op:"insert" ~ops:n (fun () ->
      Array.iter (fun k -> ignore (F.insert t (2 * k) k)) ins);
  record ~mode ~domains:1 ~op:"find" ~ops:n (fun () ->
      Array.iter (fun k -> ignore (F.find t (2 * k))) probe);
  record ~mode ~domains:1 ~op:"find_miss" ~ops:n (fun () ->
      Array.iter (fun k -> ignore (F.find t ((2 * k) + 1))) probe);
  record ~mode ~domains:1 ~op:"update" ~ops:n (fun () ->
      Array.iter (fun k -> ignore (F.update t (2 * k) (k + 1))) probe);
  (* a fixed count, so that both range rows time over 50 ms at any
     scale: a 200-key scan takes 12-19 us at --scale 0.05 *)
  let scans = 5000 in
  let span = 200 in
  record ~mode ~domains:1 ~op:"range" ~ops:scans (fun () ->
      let rng = Random.State.make [| 103 |] in
      for _ = 1 to scans do
        let lo = 2 * Random.State.int rng (max 1 (n - span)) in
        ignore (F.range t ~lo ~hi:(lo + (2 * span)))
      done);
  record ~mode ~domains:1 ~op:"delete" ~ops:(n / 2) (fun () ->
      for i = 0 to (n / 2) - 1 do
        ignore (F.delete t (2 * ins.(i)))
      done)

(* ---- var-key lookups: the kvstore's GET path ---- *)

(* A [Kvstore.Cache] over the concurrent FPTreeVar, SET with [n]
   memcached-style keys ("memc-%012d", as the mc-benchmark and the
   layered kv-zipf workload use); then [var_find] times the tree's
   [find_value] and [kv_get] a cache GET, both hitting every key once
   in a permuted order.  Probe keys are built before timing. *)
let var_suite ~mode n =
  let a = Pmem.Palloc.create ~size:(256 * 1024 * 1024) () in
  let t = Fptree.Var.create_concurrent a in
  let cache = Kvstore.Cache.create (Kvstore.Tree_ops.of_fptree_concurrent t) in
  let key i = Printf.sprintf "memc-%012d" i in
  Array.iter
    (fun i -> Kvstore.Cache.set_exn cache (key i) "value")
    (Workloads.Keygen.permutation ~seed:104 n);
  let probe = Array.map key (Workloads.Keygen.permutation ~seed:105 n) in
  record ~mode ~domains:1 ~op:"var_find" ~ops:n (fun () ->
      Array.iter (fun k -> ignore (Fptree.Var.find_value t ~default:(-1) k)) probe);
  record ~mode ~domains:1 ~op:"kv_get" ~ops:n (fun () ->
      Array.iter (fun k -> ignore (Kvstore.Cache.get cache k)) probe)

(* ---- concurrent suite (find and 50/50 mixed on 1, 2 and 4 domains) ---- *)

(* Throughput here is computed from *effective* seconds — the maximum
   per-worker thread-CPU time ({!Workloads.Domain_pool.run_cpu}) — not
   wall-clock.  On a dedicated-core host the two coincide; on an
   oversubscribed container (CI hosts routinely expose a single core)
   wall-clock measures the kernel scheduler's time-slicing, not the
   concurrency protocol.  Effective seconds still charge every abort,
   retry, spin and cache miss the protocol costs, so the 1→N ratio is
   the dedicated-core scaling ratio.  They do not charge time a worker
   sleeps in a blocking mutex (the fallback path's [Mutex.t]), so
   readers serialised that way still read as ~1.1x.  Wall seconds are printed
   alongside for transparency.  Returns [(domains, (find, mixed))]
   throughputs in Mops/s. *)
let concurrent_suite n =
  let record_conc ~domains ~op body =
    let wall, eff = Workloads.Domain_pool.run_cpu ~domains body in
    let secs = if eff > 0. then eff else wall in
    let mops = float_of_int n /. secs /. 1e6 in
    Printf.printf
      "  %-12s %-10s d=%-2d %8.3f Mops/s  (eff %7.3fs, wall %7.3fs)\n" "fast"
      op domains mops secs wall;
    flush stdout;
    mops
  in
  List.map
    (fun domains ->
      let a = Pmem.Palloc.create ~size:(512 * 1024 * 1024) () in
      let t = F.create_concurrent a in
      let warm = n in
      for i = 0 to warm - 1 do
        ignore (F.insert t (2 * i) i)
      done;
      let find =
        record_conc ~domains ~op:"conc_find" (fun d ->
            let lo, hi = Workloads.Domain_pool.slice ~domains ~total:n d in
            let rng = Random.State.make [| 7; d |] in
            for _ = lo to hi - 1 do
              ignore (F.find t (2 * Random.State.int rng warm))
            done)
      in
      let mixed =
        record_conc ~domains ~op:"conc_mixed" (fun d ->
            let lo, hi = Workloads.Domain_pool.slice ~domains ~total:n d in
            let rng = Random.State.make [| 8; d |] in
            for j = lo to hi - 1 do
              if j land 1 = 0 then ignore (F.find t (2 * Random.State.int rng warm))
              else ignore (F.insert t ((2 * j) + 1) j)
            done)
      in
      (domains, (find, mixed)))
    [ 1; 2; 4 ]

(* ---- trace overhead: the flight recorder's hot-path cost ---- *)

(* The observability contract (DESIGN.md §12): with the gate off the
   hot paths are byte-identical to the uninstrumented build; with it on,
   single-domain find throughput may drop at most 10%.  This stage
   measures the second half of that pin — gate-off vs gate-on find
   throughput over the same tree and probe order, interleaved best-of-k
   so scheduler drift hits both sides equally.  The tree is the bench's
   canonical 1M-key scale regardless of --scale: the pin is a ratio
   against the find everyone else measures, and a toy tree whose hot
   set fits in L2 overstates the relative cost of the fixed ~30 ns
   per-event budget.  Returns the on / off throughput ratio. *)
let measure_trace_overhead () =
  Env.parallel ~latency_ns:90. ();
  let n = 1_000_000 in
  let a = Pmem.Palloc.create ~size:(256 * 1024 * 1024) () in
  let t = F.create_single a in
  let ins = Workloads.Keygen.permutation ~seed:301 n in
  Array.iter (fun k -> ignore (F.insert t (2 * k) k)) ins;
  let probe = Workloads.Keygen.permutation ~seed:302 n in
  (* Comparing two whole passes is too noisy on this container (CPU
     frequency and scheduler drift show up as +/-8% between passes,
     swamping a ~5% effect).  Instead the two sides alternate per 64k
     chunk of the probe order, with the side that goes first flipping
     each chunk so neither side systematically inherits the other's
     warm cache; total per-side time over several passes gives the
     ratio. *)
  let chunk = 65_536 in
  let nchunks = (n + chunk - 1) / chunk in
  let passes = 8 in
  let time_chunk lo hi =
    let t0 = Obs.Clock.now_s () in
    for i = lo to hi - 1 do
      ignore (F.find t (2 * Array.unsafe_get probe i))
    done;
    Obs.Clock.now_s () -. t0
  in
  ignore (time_chunk 0 n);  (* warm caches before either side is timed *)
  let t_off = ref 0. and t_on = ref 0. in
  for pass = 0 to passes - 1 do
    for ci = 0 to nchunks - 1 do
      let lo = ci * chunk and hi = min n ((ci + 1) * chunk) in
      if (pass + ci) land 1 = 0 then begin
        Obs.Gate.set_enabled true;
        t_on := !t_on +. time_chunk lo hi;
        Obs.Gate.set_enabled false;
        t_off := !t_off +. time_chunk lo hi
      end
      else begin
        Obs.Gate.set_enabled false;
        t_off := !t_off +. time_chunk lo hi;
        Obs.Gate.set_enabled true;
        t_on := !t_on +. time_chunk lo hi
      end
    done
  done;
  Obs.Gate.set_enabled false;
  let total = float_of_int (passes * n) in
  let mops secs = total /. secs /. 1e6 in
  let ratio = !t_off /. !t_on in
  Printf.printf
    "  trace-overhead find: off %8.3f Mops/s, on %8.3f Mops/s  (ratio %.3f)\n"
    (mops !t_off) (mops !t_on) ratio;
  flush stdout;
  ratio

(* ---- entry point ---- *)

(* [(gate, value, bound)]: each value must be at least its bound. *)
let check_gates gates =
  List.iter
    (fun (gate, v, bound) ->
      Printf.printf "  gate %-26s %.3f (bound %.1f)\n" gate v bound)
    gates;
  let failed = List.filter (fun (_, v, bound) -> not (v >= bound)) gates in
  List.iter
    (fun (gate, v, bound) -> Printf.printf "FAIL: %s %.3f < %.1f\n" gate v bound)
    failed;
  flush stdout;
  if failed <> [] then exit 1

let run () =
  Report.heading "Hot-path microbenchmark (fast vs instrumented mode)";
  let n = Env.scaled 1_000_000 in
  (* fast mode: the paper's throughput configuration (Figs 7-10) *)
  Env.parallel ~latency_ns:90. ();
  single_suite ~mode:"fast" n;
  var_suite ~mode:"fast" n;
  (* instrumented mode: access counting on (modeled-time runs) *)
  Env.single ();
  single_suite ~mode:"instrumented" n;
  var_suite ~mode:"instrumented" n;
  (* concurrency: wall-clock mode, 1 and N domains *)
  Env.parallel ~latency_ns:90. ();
  let conc = concurrent_suite (max 100_000 (n / 2)) in
  let find1, mixed1 = List.assoc 1 conc and find2, mixed2 = List.assoc 2 conc in
  Printf.printf "  2-domain speedup: conc_find %.3fx, conc_mixed %.3fx\n"
    (find2 /. find1) (mixed2 /. mixed1);
  (* flight-recorder overhead pin (gate restored to off afterwards) *)
  let ratio = measure_trace_overhead () in
  check_gates
    [ ("conc_find_speedup_2x", find2 /. find1, 1.0);
      ("trace_overhead_find_ratio", ratio, 0.9) ]
