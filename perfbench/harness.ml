(** Shared machinery of the layered benchmark: command line, simulator
    configuration, the closed-loop load generator with its per-op latency
    recorder, layer probes, the closure report and the result line.

    Every workload prints exactly one JSON object as the last line of
    standard output; progress and reports go before it. *)

open Bigarray

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  scale : float;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and scale = ref 1.0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME kv-zipf | ingest-churn | tatp-ro");
      ("--seed", Arg.Set_int seed, "N seed of every generated input");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--scale", Arg.Set_float scale, "F dataset scale; 1.0 is the documented size");
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--scale F]";
  if !seconds < 1 then failwith "--seconds must be >= 1";
  if !trace <> 0 && !trace <> 1 then failwith "--trace must be 0 or 1";
  if not (!scale > 0. && !scale <= 1.) then failwith "--scale must be in (0, 1]";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    scale = !scale }

let scaled a n = max 256 (int_of_float (float_of_int n *. a.scale))

let t_start = Obs.Clock.now_s ()

(** Progress line on stderr, stamped with seconds since start. *)
let log fmt =
  Printf.ksprintf (fun s -> Printf.eprintf "[%6.2fs] %s\n%!" (Obs.Clock.now_s () -. t_start) s) fmt

(* ---- simulator configuration ---- *)

(** Fresh simulator state.  [counted] is the latency-model
    configuration (SCM line counting on); otherwise fast mode.  Crash
    tracking and delay injection are always off. *)
let configure ~counted =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Obs.Attrib.reset ();
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_delay_injection false;
  Scm.Config.set_stats counted

(** Drop the previous set-up's arenas and compact the heap, so every
    timed phase starts from the same heap shape. *)
let settle () = Gc.compact ()

(* ---- results ---- *)

let metrics : (string * float * string) list ref = ref []
let attempted = ref 0
let failed = ref 0
let correct = ref true

let metric name unit v = metrics := (name, v, unit) :: !metrics

(** A failed structural check: the run is reported incorrect. *)
let check_fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("check failed: " ^ s);
      correct := false)
    fmt

(** A single operation whose result disagrees with the reference (or
    that was refused): counted in [failed]. *)
let op_failed () = incr failed

let print_result () =
  let b = Buffer.create 2048 in
  let ms = List.rev !metrics in
  List.iter
    (fun (n, v, _) -> if not (Float.is_finite v) then check_fail "%s is %f" n v)
    ms;
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (!correct && !failed = 0 && !attempted > 0) (max 1 !attempted) !failed;
  List.iteri
    (fun i (n, v, u) ->
      let v = if Float.is_finite v then v else 0. in
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ") n v u)
    ms;
  Buffer.add_string b "}}";
  print_endline (Buffer.contents b)

(* ---- statistics ---- *)

let median_f a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** Nearest-rank percentile of a sorted array. *)
let pct_sorted a q =
  let n = Array.length a in
  if n = 0 then nan else a.(min (n - 1) (int_of_float (q *. float_of_int n)))

let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let now_ns = Obs.Clock.now_ns

(** [timed f] runs [f ()] and returns (elapsed seconds, result). *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (float_of_int (now_ns () - t0) *. 1e-9, r)

(* ---- host speed ---- *)

(* On a shared host the speed of the same code drifts by up to 1.7x
   within minutes: other tenants take shared caches, memory bandwidth
   and core time.  End-to-end timings are therefore corrected by a
   frozen reference that runs right beside them and shares no code with
   the system under test.  A round of it times three kernels, each
   standing for one kind of work an op does:
   - memory: binary searches of pseudo-random keys in a 64 MB sorted
     array, dependent cache misses like a tree descent;
   - cached: reads at pseudo-random offsets of a 4 MB buffer behind a
     direct-mapped tag check that counts tag misses atomically, the
     shape of the simulator's counted read path in code of its own;
   - compute: a heap sort of 32 ints through a comparison closure,
     branchy OCaml code with indirect calls.
   A kernel's speed factor is its time per round over its nominal time;
   the host factor is the mean of the three.  A timing taken at host
   factor [f] is divided by [f] (a rate multiplied), to what it would
   read with the host at its nominal speed.  The memory kernel alone
   tracked the read-only workloads but corrected little more than half
   of ingest-churn's drift; the mean of the three tracks it (NOTES.md).
   The report prints the raw throughput and the factors next to the
   corrected figures. *)

let ref_len = 1 lsl 23
let ref_searches = 2
let cached_bytes = 4 * 1024 * 1024
let cached_reads = 32
let sort_len = 32

(** Nominal ns per round of each kernel (memory, cached, compute):
    about their medians on the development host. *)
let ref_nominal_ns = [| 4000.; 1800.; 3300. |]

let kernels = Array.length ref_nominal_ns

let ref_array =
  lazy
    (let a = Array1.create int c_layout ref_len in
     for i = 0 to ref_len - 1 do
       Array1.unsafe_set a i (2 * i)
     done;
     a)

let cached_buf = lazy (Bytes.init cached_bytes (fun i -> Char.unsafe_chr (i land 255)))
let sort_src = Array.init sort_len (fun i -> (i * 7919 * 31) land 0xFFFF)

(* Per-domain reference state: Weyl sequences of search keys and read
   offsets, the tag array and its miss counter, the sort buffer. *)
type ref_state = {
  mutable key : int;
  mutable pos : int;
  tags : int array;
  misses : int Atomic.t;
  scratch : int array;
}

let ref_state =
  Domain.DLS.new_key (fun () ->
      { key = 0; pos = 0; tags = Array.make 8192 (-1); misses = Atomic.make 0;
        scratch = Array.make sort_len 0 })

let memory_kernel st =
  let a = Lazy.force ref_array in
  for _ = 1 to ref_searches do
    st.key <- (st.key + 0x9E3779B9) land 0x3FFF_FFFF;
    let k = 2 * (st.key land (ref_len - 1)) in
    let lo = ref 0 and hi = ref (ref_len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Array1.unsafe_get a mid < k then lo := mid + 1 else hi := mid
    done;
    if !lo <> k / 2 then failwith "reference kernel"
  done

let cached_kernel st =
  let b = Lazy.force cached_buf in
  let acc = ref 0 in
  for _ = 1 to cached_reads do
    st.pos <- (st.pos + 0x9E3779B9) land 0x3FFF_FFFF;
    let off = (st.pos land ((cached_bytes / 8) - 1)) * 8 in
    let line = off lsr 6 in
    let slot = line land (Array.length st.tags - 1) in
    if st.tags.(slot) <> line then begin
      st.tags.(slot) <- line;
      Atomic.incr st.misses
    end;
    acc := !acc + Int64.to_int (Bytes.get_int64_le b off)
  done;
  ignore (Sys.opaque_identity !acc)

let compute_kernel st =
  Array.blit sort_src 0 st.scratch 0 sort_len;
  Array.sort Int.compare st.scratch;
  if st.scratch.(0) > st.scratch.(sort_len - 1) then failwith "reference kernel"

(** Run one reference round, adding each kernel's ns to [acc]. *)
let reference_round acc =
  let st = Domain.DLS.get ref_state in
  let t0 = now_ns () in
  memory_kernel st;
  let t1 = now_ns () in
  cached_kernel st;
  let t2 = now_ns () in
  compute_kernel st;
  let t3 = now_ns () in
  acc.(0) <- acc.(0) + (t1 - t0);
  acc.(1) <- acc.(1) + (t2 - t1);
  acc.(2) <- acc.(2) + (t3 - t2)

(** Speed factor of each kernel over [rounds] rounds that spent [acc]. *)
let kernel_factors acc rounds =
  Array.mapi (fun k ns -> float_of_int ns /. float_of_int (max 1 rounds) /. ref_nominal_ns.(k)) acc

let host_factor_of acc rounds =
  Array.fold_left ( +. ) 0. (kernel_factors acc rounds) /. float_of_int kernels

(** Host speed factor now, over 1000 rounds. *)
let host_factor () =
  ignore (Lazy.force ref_array, Lazy.force cached_buf);
  let acc = Array.make kernels 0 in
  for _ = 1 to 1000 do
    reference_round acc
  done;
  host_factor_of acc 1000

(** [timed] corrected for host speed: the raw seconds divided by the
    mean factor measured just before and just after. *)
let timed_corrected f =
  let f0 = host_factor () in
  let s, r = timed f in
  let f1 = host_factor () in
  (s /. ((f0 +. f1) /. 2.), r)

(** Restart timing: one untimed warm-up, then [reps] timed restarts of
    the same image with no heap compaction in between, so they reuse
    the same heap pages.  [restart ()] returns the seconds of its parts
    (allocator re-attach, tree recovery); the result is the median of
    each part over the reps. *)
let repeat_restart ~reps restart =
  ignore (restart ());
  let runs = Array.init reps (fun _ -> restart ()) in
  Array.init (Array.length runs.(0)) (fun p -> median_f (Array.map (fun r -> r.(p)) runs))

(* ---- the closed-loop load generator ---- *)

(** Ops between two clock checks of the slice boundary; also the unit
    in which the traced run alternates plain and traced ops. *)
let batch = 64

(** Reference time allowed per slice: a round runs after a batch while
    the slice's reference time is below 1/[ref_share] of its busy time,
    so the reference takes about 2% of every workload's run. *)
let ref_share = 50

type stop = Time_ns of int | Ops of int
(** How a slice ends: after [d] ns spent in ops, or after [n] ops. *)

(** Per-client record of one timed phase. *)
type recorder = {
  lat : (int, int_elt, c_layout) Array1.t;
      (** per-op ns: consecutive clock deltas (plain ops) or the span
          around the call (traced ops) *)
  mutable ops : int;
  slice_ops : int array;  (** ops completed at the end of each slice *)
  slice_busy : int array; (** ns spent in ops during each slice *)
  slice_ref : int array array; (** per slice, ns spent in each reference kernel *)
  slice_rounds : int array; (** reference rounds run in each slice *)
  mutable minor_words : float;
  mutable plain_ns : int; (** traced run: time spent in plain batches *)
  mutable traced_ns : int;
  mutable plain_ops : int;
  mutable traced_ops : int;
}

let recorder ~cap ~slices =
  {
    lat = Array1.create int c_layout (max 1 cap);
    ops = 0;
    slice_ops = Array.make slices 0;
    slice_busy = Array.make slices 0;
    slice_ref = Array.init slices (fun _ -> Array.make kernels 0);
    slice_rounds = Array.make slices 0;
    minor_words = 0.;
    plain_ns = 0;
    traced_ns = 0;
    plain_ops = 0;
    traced_ops = 0;
  }

(** Latency slots per client: enough for every op of a run at a rate no
    workload reaches (ops beyond are still counted, just not timed). *)
let lat_cap ~seconds = min (1 lsl 25) (seconds * 2_500_000)

(** Run one client's closed loop: [body i] performs the op at stream
    position [i]; the next op is sent only when it returns.  Between
    batches the client runs reference rounds (outside the timed ops)
    within their share of the slice.  With [traced], every other batch
    times each call with a span (two clock reads around it) instead of
    the plain one-read-per-op delta, and the time spent in each kind of
    batch is kept so the harness's own tracing cost can be reported. *)
let run_client r ~stop ~traced body =
  ignore (Lazy.force ref_array, Lazy.force cached_buf);
  let slices = Array.length r.slice_ops in
  let cap = Array1.dim r.lat in
  let lat = r.lat in
  let mw0 = Gc.minor_words () in
  let i = ref 0 and s = ref 0 and b = ref 0 and base = ref 0 in
  let prev = ref (now_ns ()) in
  while !s < slices do
    let bstart = !prev in
    if traced && !b land 1 = 1 then begin
      for _ = 1 to batch do
        let ts = now_ns () in
        body !i;
        let te = now_ns () in
        if !i < cap then Array1.unsafe_set lat !i (te - ts);
        incr i
      done;
      prev := now_ns ();
      r.traced_ns <- r.traced_ns + (!prev - bstart);
      r.traced_ops <- r.traced_ops + batch
    end
    else begin
      for _ = 1 to batch do
        body !i;
        let t = now_ns () in
        if !i < cap then Array1.unsafe_set lat !i (t - !prev);
        prev := t;
        incr i
      done;
      r.plain_ns <- r.plain_ns + (!prev - bstart);
      r.plain_ops <- r.plain_ops + batch
    end;
    incr b;
    r.slice_busy.(!s) <- r.slice_busy.(!s) + (!prev - bstart);
    let acc = r.slice_ref.(!s) in
    if ref_share * Array.fold_left ( + ) 0 acc < r.slice_busy.(!s) then begin
      reference_round acc;
      r.slice_rounds.(!s) <- r.slice_rounds.(!s) + 1
    end;
    let ended =
      match stop with
      | Time_ns d -> r.slice_busy.(!s) >= d
      | Ops n -> !i - !base >= n
    in
    if ended then begin
      r.slice_ops.(!s) <- !i;
      base := !i;
      incr s
    end;
    prev := now_ns ()
  done;
  r.ops <- !i;
  r.minor_words <- Gc.minor_words () -. mw0

(** Run [clients] closed-loop clients, one domain each (the first on the
    calling domain), released together by a start barrier. *)
let run_clients recs ~stop ~traced body =
  let n = Array.length recs in
  let ready = Atomic.make 0 and go = Atomic.make false in
  let worker d () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    run_client recs.(d) ~stop ~traced (body d)
  in
  let ds = List.init (n - 1) (fun d -> Domain.spawn (worker (d + 1))) in
  while Atomic.get ready < n - 1 do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  worker 0 ();
  List.iter Domain.join ds

(** Slices of a timed phase: two per second, four at least. *)
let slices_for seconds = max 4 (2 * seconds)

(** Ops per slice when slices end on op counts: a whole number of
    batches. *)
let ops_per_slice total slices =
  let per = max 1 (total / slices) in
  (per + batch - 1) / batch * batch

type phase = {
  throughput : float;  (** ops/s, corrected; median over slices *)
  p50_us : float;      (** corrected; median over slices of the slice's p50 *)
  p99_us : float;
  total_ops : int;
  ns_per_op : float;   (** per client, corrected: clients / throughput *)
  raw_ns_per_op : float; (** per client, as measured *)
}

(** Slice statistics over every client.  Each client's slice is
    corrected by the host factor its own reference rounds measured in
    that slice; throughput and percentiles are medians over slices, so
    one disturbed slice moves them little. *)
let summarize recs =
  let slices = Array.length recs.(0).slice_ops in
  let tput = Array.make slices 0. and raw = Array.make slices 0. in
  let p50 = Array.make slices 0. and p99 = Array.make slices 0. in
  let factors = ref [] and kfactors = ref [] in
  for s = 0 to slices - 1 do
    let lats =
      Array.concat
        (Array.to_list
           (Array.map
              (fun r ->
                let lo = if s = 0 then 0 else r.slice_ops.(s - 1) in
                let ops = r.slice_ops.(s) - lo in
                let f = host_factor_of r.slice_ref.(s) r.slice_rounds.(s) in
                factors := f :: !factors;
                kfactors := kernel_factors r.slice_ref.(s) r.slice_rounds.(s) :: !kfactors;
                let rate = float_of_int ops /. (float_of_int r.slice_busy.(s) *. 1e-9) in
                raw.(s) <- raw.(s) +. rate;
                tput.(s) <- tput.(s) +. (rate *. f);
                Array.init
                  (max 0 (min r.slice_ops.(s) (Array1.dim r.lat) - lo))
                  (fun j -> float_of_int (Array1.unsafe_get r.lat (lo + j)) /. f))
              recs))
    in
    Array.sort compare lats;
    p50.(s) <- pct_sorted lats 0.50 /. 1e3;
    p99.(s) <- pct_sorted lats 0.99 /. 1e3
  done;
  let throughput = median_f tput and raw_tput = median_f raw in
  let clients = float_of_int (Array.length recs) in
  Printf.printf "timed phase: %d slices; host factor median %.3f (min %.3f, max %.3f)\n"
    slices
    (median_f (Array.of_list !factors))
    (List.fold_left Float.min infinity !factors)
    (List.fold_left Float.max 0. !factors);
  Printf.printf "  throughput %.0f ops/s corrected, %.0f ops/s as measured\n" throughput raw_tput;
  log "slice throughput (corrected): %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") tput)));
  log "slice throughput (as measured): %s"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") raw)));
  Printf.printf "  kernel factor medians: memory %.3f, cached %.3f, compute %.3f\n"
    (median_f (Array.of_list (List.map (fun k -> k.(0)) !kfactors)))
    (median_f (Array.of_list (List.map (fun k -> k.(1)) !kfactors)))
    (median_f (Array.of_list (List.map (fun k -> k.(2)) !kfactors)));
  {
    throughput;
    p50_us = median_f p50;
    p99_us = median_f p99;
    total_ops = Array.fold_left (fun a r -> a + r.ops) 0 recs;
    ns_per_op = clients *. 1e9 /. throughput;
    raw_ns_per_op = clients *. 1e9 /. raw_tput;
  }

(** Median span (µs, as measured) of the traced ops whose kind
    satisfies [pick] ([kind_of d i] is the kind of client [d]'s op at
    stream position [i]). *)
let span_p50_us recs ~kind_of ~pick =
  let acc = ref [] in
  Array.iteri
    (fun d r ->
      let cap = min r.ops (Array1.dim r.lat) in
      for i = 0 to cap - 1 do
        if (i / batch) land 1 = 1 && pick (kind_of d i) then
          acc := float_of_int (Array1.unsafe_get r.lat i) :: !acc
      done)
    recs;
  let a = Array.of_list !acc in
  Array.sort compare a;
  if Array.length a = 0 then 0. else pct_sorted a 0.5 /. 1e3

(** Traced ÷ untraced throughput over the alternating batches. *)
let trace_overhead_ratio recs =
  let sum f = Array.fold_left (fun a r -> a + f r) 0 recs in
  let plain = per (sum (fun r -> r.plain_ops)) (sum (fun r -> r.plain_ns)) in
  let traced = per (sum (fun r -> r.traced_ops)) (sum (fun r -> r.traced_ns)) in
  if plain = 0. then 0. else traced /. plain

let minor_words_per_op recs =
  let w = Array.fold_left (fun a r -> a +. r.minor_words) 0. recs in
  w /. float_of_int (max 1 (Array.fold_left (fun a r -> a + r.ops) 0 recs))

(* ---- layer probes ---- *)

(** Calls per probe pass. *)
let probe_n = 100_000

let loop_overhead_ns = ref nan

let raw_probe ~reps n f =
  median_f
    (Array.init reps (fun _ ->
         let t0 = now_ns () in
         for i = 0 to n - 1 do
           f i
         done;
         float_of_int (now_ns () - t0) /. float_of_int n))

(** Unit cost of one call into a layer, timed from outside: median over
    passes of [f 0 .. f (n-1)], minus the cost of the empty loop.  The
    inputs [f] indexes are prepared before timing. *)
let probe ?(reps = 5) ?(n = probe_n) f =
  if Float.is_nan !loop_overhead_ns then
    loop_overhead_ns :=
      raw_probe ~reps:5 probe_n (fun i -> ignore (Sys.opaque_identity i));
  Float.max 0. (raw_probe ~reps n f -. !loop_overhead_ns)

(** [probe] for two calls whose difference matters: their passes
    alternate, so a slow stretch of the host hits both alike. *)
let probe_pair ?(reps = 5) ?(n = probe_n) f g =
  ignore (probe ~reps:1 ~n f);
  let a = Array.make reps 0. and b = Array.make reps 0. in
  for r = 0 to reps - 1 do
    a.(r) <- probe ~reps:1 ~n f;
    b.(r) <- probe ~reps:1 ~n g
  done;
  (median_f a, median_f b)

(** Cost of the load generator itself per op, as measured: the loop
    over 2^20 ops with a body that only reads its input. *)
let gen_ns_per_op ~read =
  let r = recorder ~cap:(1 lsl 20) ~slices:1 in
  run_client r ~stop:(Ops (1 lsl 20)) ~traced:false (fun i ->
      ignore (Sys.opaque_identity (read i)));
  float_of_int r.slice_busy.(0) /. float_of_int r.ops

type scm_costs = {
  read_word_ns : float;  (** in the workload's own mode *)
  persist_line_ns : float;
}

(** Unit costs of the SCM accessors on region [reg], timed at random
    word offsets below [extent]; the counted variants switch line
    counting on for the duration.  Reads only; the persist probe
    flushes lines without changing their contents. *)
let scm_probes ~seed reg ~extent ~counted =
  let rng = Random.State.make [| seed; 77 |] in
  let words = Array.init probe_n (fun _ -> 8 * Random.State.int rng ((extent / 8) - 4)) in
  let lines = Array.map (fun o -> o land lnot 63) words in
  let with_stats on f =
    let was = Scm.Config.current.Scm.Config.stats in
    Scm.Config.set_stats on;
    let v = f () in
    Scm.Config.set_stats was;
    v
  in
  let read_word () =
    probe (fun i -> ignore (Sys.opaque_identity (Scm.Region.read_word reg words.(i))))
  in
  let persist () = probe (fun i -> Scm.Region.persist reg lines.(i) 64) in
  let rw_fast = with_stats false read_word and rw_counted = with_stats true read_word in
  metric "scm.read_word_ns" "ns" rw_fast;
  metric "scm.read_word_ns_counted" "ns" rw_counted;
  metric "scm.read_string_ns" "ns"
    (with_stats counted (fun () ->
         probe (fun i -> ignore (Sys.opaque_identity (Scm.Region.read_string reg words.(i) 17)))));
  let p_counted = with_stats true persist and p_fast = with_stats false persist in
  metric "scm.persist_line_ns_counted" "ns" p_counted;
  (* the probes' own traffic must not leak into later counts *)
  Scm.Stats.reset ();
  Obs.Attrib.reset ();
  if counted then { read_word_ns = rw_counted; persist_line_ns = p_counted }
  else { read_word_ns = rw_fast; persist_line_ns = p_fast }

type tree_costs = {
  descent_ns : float;
  observe_validate_ns : float;
  fp_scan_ns : float;
  leaf_lock_ns : float;
}

(** Unit costs of the FPTree layers, for the workload's own lookups:
    call [i] looks up [keys.(i)] in tree [inner i] (several trees when
    the workload spreads its lookups over indexes).  Timed: DRAM inner
    descent, the read-set observe/validate the optimistic path adds to
    it, the in-leaf fingerprint search (with its key probe) against the
    linear-scan reference, and the leaf lock round trip.  Leaves are
    located before timing. *)
let tree_probes ~inner ~cmp ~keys ~fingerprint ~find_slot ~lin_scan ~try_lock ~unlock =
  let n = Array.length keys in
  let leaves = Array.mapi (fun i k -> Fptree.Inner.find_leaf cmp (inner i).Fptree.Inner.root k) keys in
  let offs = Array.map (fun l -> l.Fptree.Inner.off) leaves in
  let fps = Array.map fingerprint keys in
  let descent_ns, rs_ns =
    probe_pair ~n
      (fun i -> ignore (Sys.opaque_identity (Fptree.Inner.find_leaf cmp (inner i).Fptree.Inner.root keys.(i))))
      (fun i ->
        let rs = Htm.Node_versions.scratch () in
        ignore (Sys.opaque_identity (Fptree.Inner.find_leaf_rs rs cmp (inner i) keys.(i)));
        ignore (Sys.opaque_identity (Htm.Node_versions.validate rs)))
  in
  let fp_scan_ns, lin_ns =
    probe_pair ~n
      (fun i -> ignore (Sys.opaque_identity (find_slot i offs.(i) keys.(i) fps.(i))))
      (fun i -> ignore (Sys.opaque_identity (lin_scan i offs.(i) keys.(i))))
  in
  let leaf_lock_ns =
    probe ~n (fun i ->
        let l = leaves.(i) in
        if try_lock i l then unlock i l)
  in
  let observe_validate_ns = Float.max 0. (rs_ns -. descent_ns) in
  metric "fptree.descent_ns" "ns" descent_ns;
  metric "htm.observe_validate_ns" "ns" observe_validate_ns;
  metric "fptree.fp_scan_ns" "ns" fp_scan_ns;
  metric "fptree.lin_scan_ns" "ns" lin_ns;
  metric "fptree.leaf_lock_ns" "ns" leaf_lock_ns;
  { descent_ns; observe_validate_ns; fp_scan_ns; leaf_lock_ns }

(** Persistent micro-log arm + reset and allocator alloc + free, on a
    scratch arena so the workload's image is untouched. *)
let pmem_probes () =
  let a = Pmem.Palloc.create ~size:(4 * 1024 * 1024) () in
  let reg = Pmem.Palloc.region a in
  let loc = Pmem.Palloc.root_loc a in
  let alloc_free =
    probe ~n:20_000 (fun _ ->
        Pmem.Palloc.alloc a ~into:loc 256;
        Pmem.Palloc.free a ~from:loc)
  in
  metric "pmem.alloc_free_ns" "ns" alloc_free;
  (* a cache-line-aligned slot in a block of the scratch arena *)
  Pmem.Palloc.alloc a ~into:loc 256;
  let blk = (Pmem.Pptr.Loc.read loc).Pmem.Pptr.off in
  let log = Fptree.Microlog.make reg blk in
  Fptree.Microlog.format log;
  let p1 = Pmem.Pptr.of_region reg ~off:(blk + 128) in
  let p2 = Pmem.Pptr.of_region reg ~off:(blk + 192) in
  let arm_reset =
    probe ~n:20_000 (fun _ ->
        Fptree.Microlog.set_fst log p1;
        Fptree.Microlog.set_snd log p2;
        Fptree.Microlog.reset log)
  in
  metric "fptree.microlog_arm_reset_ns" "ns" arm_reset;
  Scm.Stats.reset ();
  Obs.Attrib.reset ();
  (alloc_free, arm_reset)

(* ---- the closure report ---- *)

(** Layer unit cost × that layer's calls per op, against the measured
    per-client op time.  The terms are disjoint pieces of an op; what
    they do not cover is printed as the residue. *)
let closure ~workload ~measured_ns terms =
  Printf.printf "closure %s: measured %.1f ns/op per client\n" workload measured_ns;
  let explained =
    List.fold_left
      (fun acc (name, unit_ns, calls) ->
        let ns = unit_ns *. calls in
        Printf.printf "  %-34s %9.1f ns x %8.4f /op = %9.1f ns/op\n" name unit_ns calls ns;
        acc +. ns)
      0. terms
  in
  let residue = measured_ns -. explained in
  let frac = if measured_ns > 0. then explained /. measured_ns else 0. in
  Printf.printf "  explained %.1f ns/op (%.3f of measured), residue %.1f ns/op\n"
    explained frac residue;
  metric "closure.explained_frac" "ratio" frac;
  metric "closure.residue_ns_per_op" "ns" residue

(** Per-layer metrics a workload does not exercise, printed as 0 so
    every traced run reports the same names. *)
let zero names = List.iter (fun (n, u) -> metric n u 0.) names

(* ---- shared derived metrics ---- *)

(** SCM counts over [ops] operations from a stats snapshot delta. *)
let scm_count_metrics ~ops ~store_bytes (s : Scm.Stats.snapshot) =
  metric "scm.persists_per_op" "count" (per s.Scm.Stats.persists ops);
  metric "scm.line_reads_per_op" "count" (per s.Scm.Stats.line_reads ops);
  metric "scm.line_writes_per_op" "count" (per s.Scm.Stats.line_writes ops);
  metric "scm.write_amplification" "ratio"
    (if store_bytes = 0 then 0.
     else float_of_int (64 * s.Scm.Stats.line_writes) /. float_of_int store_bytes)

(** End-to-end modeled time at 650 ns SCM latency (the Fig. 7
    convention): wall per op plus each counted line at (650 − DRAM) ns.
    A run that counted no line reads cannot model anything: fail it. *)
let modeled_metrics ~wall_ns_per_op ~ops (s : Scm.Stats.snapshot) =
  if s.Scm.Stats.line_reads = 0 then
    check_fail "modeled time requested but no SCM line reads were counted";
  let extra = Scm.Stats.modeled_extra_ns ~read_ns:650. s /. float_of_int (max 1 ops) in
  metric "modeled_us_per_op_650ns" "us" ((wall_ns_per_op +. extra) /. 1e3);
  metric "scm_lines_per_op" "count" (per (s.Scm.Stats.line_reads + s.Scm.Stats.line_writes) ops)

(** HTM counters over [ops] ops, from [Tree_intf.S.htm_stats] deltas. *)
let htm_metrics ~ops before after =
  let get l k = try List.assoc k l with Not_found -> 0 in
  let d k = get after k - get before k in
  let aborts = d "aborts" in
  metric "htm.aborts_per_op" "count" (per aborts ops);
  metric "htm.precise_conflicts_per_op" "count" (per (d "precise_conflicts") ops);
  metric "htm.explicit_aborts_per_op" "count" (per (d "explicit_aborts") ops);
  metric "htm.fallbacks_per_op" "count" (per (d "fallbacks") ops);
  metric "htm.backoff_waits_per_op" "count" (per (d "backoff_waits") ops);
  metric "htm.commit_ratio" "ratio" (per ops (ops + aborts));
  per aborts ops
