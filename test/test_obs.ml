(* Tests of the observability subsystem (lib/obs) and its wiring:
   histogram bucket geometry and percentiles against a sorted-array
   oracle, sharded counter/histogram exactness under parallel domains,
   registry exposition round-trips, span capture, the fingerprint
   probe-count regression (Fig. 4), and the parallel-exactness of the
   sharded SCM counters that the seed's plain refs could not provide. *)

module C = Obs.Counter
module H = Obs.Histogram
module F = Fptree.Fixed

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- histogram bucket geometry ---- *)

let test_bucket_boundaries () =
  (* 0..15 are exact unit buckets *)
  for v = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "unit bucket %d" v) v (H.bucket_of v);
    Alcotest.(check (pair int int))
      (Printf.sprintf "unit bounds %d" v)
      (v, v) (H.bounds v)
  done;
  (* every sample lies inside its own bucket's inclusive bounds *)
  List.iter
    (fun v ->
      let lo, hi = H.bounds (H.bucket_of v) in
      if not (lo <= v && v <= hi) then
        Alcotest.failf "sample %d outside its bucket [%d,%d]" v lo hi)
    [ 16; 17; 31; 32; 33; 100; 255; 256; 257; 1000; 4095; 4096;
      65535; 65536; 1_000_000; 123_456_789; max_int / 2 ];
  (* consecutive buckets tile the axis: no gaps, no overlap *)
  for i = 0 to 400 do
    let _, hi = H.bounds i in
    let lo', _ = H.bounds (i + 1) in
    Alcotest.(check int) (Printf.sprintf "tiling at bucket %d" i) (hi + 1) lo'
  done;
  (* beyond the unit range, relative bucket width is at most 1/16 *)
  for i = 16 to 400 do
    let lo, hi = H.bounds i in
    if (hi - lo + 1) * 16 > lo then
      Alcotest.failf "bucket %d too wide: [%d,%d]" i lo hi
  done

let test_quantile_oracle () =
  let rng = Random.State.make [| 42 |] in
  let h = H.make () in
  let n = 10_000 in
  let samples =
    Array.init n (fun _ ->
        match Random.State.int rng 3 with
        | 0 -> Random.State.int rng 16
        | 1 -> Random.State.int rng 1_000
        | _ -> Random.State.int rng 1_000_000)
  in
  Array.iter (H.record h) samples;
  Array.sort compare samples;
  Alcotest.(check int) "count" n (H.count h);
  Alcotest.(check int) "sum" (Array.fold_left ( + ) 0 samples) (H.sum h);
  Alcotest.(check int) "max exact up to bucket" (H.quantile h 1.0) (H.max_value h);
  List.iter
    (fun q ->
      let rank = max 0 (int_of_float (ceil (q *. float_of_int n)) - 1) in
      let oracle = samples.(rank) in
      let got = H.quantile h q in
      (* [got] is the upper bound of the oracle's bucket: never below
         the true order statistic, and within 1/16 relative above it. *)
      if not (got >= oracle && got <= oracle + (oracle / 16) + 1) then
        Alcotest.failf "q=%.2f: got %d, oracle %d" q got oracle)
    [ 0.5; 0.9; 0.95; 0.99; 1.0 ]

(* ---- sharded exactness under parallel domains ---- *)

let test_counter_parallel_exact () =
  let c = C.make () in
  let per = 200_000 in
  let ds =
    Array.init 8 (fun _ ->
        Domain.spawn (fun () -> for _ = 1 to per do C.incr c done))
  in
  Array.iter Domain.join ds;
  Alcotest.(check int) "exact total under 8 domains" (8 * per) (C.value c);
  let shard_sum = List.fold_left (fun a (_, v) -> a + v) 0 (C.per_shard c) in
  Alcotest.(check int) "per_shard sums to total" (8 * per) shard_sum

let test_histogram_parallel_exact () =
  let h = H.make () in
  let per = 50_000 in
  let ds =
    Array.init 8 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do H.record h ((d * 17) + (i land 1023)) done))
  in
  Array.iter Domain.join ds;
  let expected_sum = ref 0 in
  for d = 0 to 7 do
    for i = 1 to per do expected_sum := !expected_sum + (d * 17) + (i land 1023) done
  done;
  Alcotest.(check int) "merged count exact" (8 * per) (H.count h);
  Alcotest.(check int) "merged sum exact" !expected_sum (H.sum h);
  let bucket_total =
    List.fold_left (fun a (_, _, n) -> a + n) 0 (H.nonzero_buckets h)
  in
  Alcotest.(check int) "bucket counts sum to count" (8 * per) bucket_total

(* ---- registry exposition ---- *)

let test_registry_roundtrip () =
  let c = Obs.Registry.counter "test_rt_total" ~help:"round-trip counter" in
  let h = Obs.Registry.histogram "test_rt_us" ~help:"round-trip histogram" in
  C.reset c;
  H.reset h;
  for i = 1 to 100 do
    C.incr c;
    H.record h i
  done;
  (* re-registering the same name returns the same instance *)
  Alcotest.(check int) "memoized by name" 100
    (C.value (Obs.Registry.counter "test_rt_total"));
  (* JSON dump parses back with the same values *)
  let j = Obs.Json.parse (Obs.Registry.to_json ()) in
  let m = Obs.Json.member "metrics" j in
  let field mname f = Obs.Json.(member f (member mname m)) in
  Alcotest.(check int) "json counter total" 100
    (Obs.Json.to_int (field "test_rt_total" "total"));
  Alcotest.(check int) "json histogram count" 100
    (Obs.Json.to_int (field "test_rt_us" "count"));
  Alcotest.(check int) "json histogram sum" 5050
    (Obs.Json.to_int (field "test_rt_us" "sum"));
  Alcotest.(check string) "json help" "round-trip counter"
    (Obs.Json.to_string_val (field "test_rt_total" "help"));
  (* text exposition carries the same totals in Prometheus format *)
  let txt = Obs.Registry.to_text () in
  Alcotest.(check bool) "text TYPE line" true
    (contains txt "# TYPE test_rt_total counter");
  Alcotest.(check bool) "text counter value" true
    (contains txt "test_rt_total 100");
  Alcotest.(check bool) "text histogram count" true
    (contains txt "test_rt_us_count 100");
  Alcotest.(check bool) "text histogram sum" true
    (contains txt "test_rt_us_sum 5050")

let test_span_capture () =
  Obs.Trace.clear ();
  Obs.Trace.with_span "test.span" (fun () -> ignore (Sys.opaque_identity 1));
  match List.rev (Obs.Trace.dump ()) with
  | s :: _ ->
    Alcotest.(check string) "span name" "test.span" s.Obs.Trace.name;
    Alcotest.(check bool) "span duration >= 0" true (s.Obs.Trace.dur_us >= 0.)
  | [] -> Alcotest.fail "span not recorded"

(* ---- tree wiring: probe-count regression (Fig. 4) ---- *)

let fresh_alloc ?(size = 64 * 1024 * 1024) () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Pmem.Palloc.create ~size ()

let test_probe_count_regression () =
  (* With one-byte fingerprints at m=64, an in-leaf search should cost
     ~1 key probe (the paper's Fig. 4 claim): the matching key plus a
     1/256-rate false positive per other filled slot. *)
  let t = F.create_single ~m:64 (fresh_alloc ()) in
  let n = 20_000 in
  let keys = Array.init n (fun i -> i + 1) in
  let rng = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- tmp
  done;
  Array.iter (fun k -> ignore (F.insert t k (k * 3))) keys;
  (* drop the setup-phase samples (inserts record 0-probe dup-check
     misses); measure finds only *)
  H.reset Fptree.Metrics.probes_per_search;
  Array.iter (fun k -> ignore (F.find t k)) keys;
  Alcotest.(check int) "one probe sample per find" n
    (H.count Fptree.Metrics.probes_per_search);
  let mean = H.mean Fptree.Metrics.probes_per_search in
  if not (mean >= 0.9 && mean <= 1.1) then
    Alcotest.failf "probe mean %.4f outside [0.9, 1.1]" mean

(* ---- SCM counter exactness under parallel domains (satellite 1) ---- *)

let test_parallel_scm_counters_exact () =
  (* The same insert trace on identical trees must cost identical SCM
     traffic; running four traces in four domains must therefore count
     exactly 4x one trace — the seed's plain-ref counters lost
     increments here. *)
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Scm.Config.set_crash_tracking false;
  let mk () =
    let a = Pmem.Palloc.create ~size:(8 * 1024 * 1024) () in
    F.create_single ~m:16 a
  in
  let trees = Array.init 5 (fun _ -> mk ()) in
  let trace t =
    for i = 1 to 3_000 do ignore (F.insert t i (i * 2)) done;
    for i = 1 to 3_000 do ignore (F.find t i) done
  in
  Scm.Stats.reset ();
  trace trees.(0);
  let one = Scm.Stats.snapshot () in
  Scm.Stats.reset ();
  let ds =
    Array.init 4 (fun d -> Domain.spawn (fun () -> trace trees.(d + 1)))
  in
  Array.iter Domain.join ds;
  let par = Scm.Stats.snapshot () in
  Alcotest.(check bool) "trace does persist" true (one.Scm.Stats.persists > 0);
  Alcotest.(check int) "persists exactly 4x under 4 domains"
    (4 * one.Scm.Stats.persists) par.Scm.Stats.persists;
  Alcotest.(check int) "flushes exactly 4x" (4 * one.Scm.Stats.flushes)
    par.Scm.Stats.flushes;
  Alcotest.(check int) "fences exactly 4x" (4 * one.Scm.Stats.fences)
    par.Scm.Stats.fences;
  Alcotest.(check int) "line reads exactly 4x" (4 * one.Scm.Stats.line_reads)
    par.Scm.Stats.line_reads

(* ---- HTM abort accounting per domain (satellite 2) ---- *)

let test_htm_per_domain_shards () =
  let module Spec = Htm.Speculative_lock in
  let module Run = Spec.Section (struct
    type ctx = Spec.t
    type arg = bool ref
    type aux = unit
    type res = int

    let lock l = l

    (* abort explicitly once, then commit *)
    let optimistic _ aborted () _ =
      if !aborted then 7
      else begin
        aborted := true;
        raise Spec.Abort
      end

    let locked _ _ () = 7
    let committed _ = ()
  end) in
  let l = Spec.create () in
  let ds =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            (* one deterministic explicit abort attributed to this
               domain's shard *)
            let v = Run.run l (ref false) () in
            if v <> 7 then failwith "section returned wrong value"))
  in
  Array.iter Domain.join ds;
  let s = Spec.stats l in
  Alcotest.(check int) "4 aborts total" 4 s.Spec.aborts;
  Alcotest.(check int) "all explicit" 4 s.Spec.explicit_aborts;
  Alcotest.(check int) "no precise conflicts" 0 s.Spec.precise_conflicts;
  Alcotest.(check int) "no fallbacks" 0 s.Spec.fallbacks;
  let shards = Spec.shard_stats l in
  Alcotest.(check bool) "per-domain shards present" true (shards <> []);
  let zero =
    Spec.zero_stats
  in
  let folded = List.fold_left (fun a (_, x) -> Spec.merge a x) zero shards in
  Alcotest.(check int) "folding shard_stats reproduces stats" s.Spec.aborts
    folded.Spec.aborts;
  Alcotest.(check int) "folded explicit matches" s.Spec.explicit_aborts
    folded.Spec.explicit_aborts;
  (* the same events reached the process-wide registry *)
  let j = Obs.Json.parse (Obs.Registry.to_json ()) in
  let total =
    Obs.Json.(
      to_int (member "total" (member "htm_aborts_total" (member "metrics" j))))
  in
  Alcotest.(check bool) "registry htm_aborts_total >= 4" true (total >= 4)

(* ---- hand-written JSON parser edge cases ---- *)

let parses s = match Obs.Json.parse s with _ -> true | exception _ -> false

let rejects s =
  match Obs.Json.parse s with
  | _ -> false
  | exception Obs.Json.Parse_error _ -> true

let test_json_escapes () =
  let open Obs.Json in
  Alcotest.(check string) "standard escapes" "a\"b\\c\nd\te\rf\bg"
    (to_string_val (parse {|"a\"b\\c\nd\te\rf\bg"|}));
  Alcotest.(check string) "solidus" "a/b" (to_string_val (parse {|"a\/b"|}));
  Alcotest.(check string) "unicode ascii" "A!"
    (to_string_val (parse "\"\\u0041\\u0021\""));
  Alcotest.(check string) "unicode non-ascii placeholder" "?"
    (to_string_val (parse "\"\\u00e9\""));
  Alcotest.(check string) "uppercase hex" "J" (to_string_val (parse "\"\\u004A\""));
  Alcotest.(check bool) "underscore in \\u rejected" true (rejects "\"\\u00_1\"");
  Alcotest.(check bool) "sign in \\u rejected" true (rejects "\"\\u+041\"");
  Alcotest.(check bool) "non-hex \\u rejected" true (rejects "\"\\u00zz\"");
  Alcotest.(check bool) "truncated \\u rejected" true (rejects "\"\\u00");
  Alcotest.(check bool) "unknown escape rejected" true (rejects {|"\q"|});
  (* control characters round-trip through our own escaper *)
  let s = "\001\031 ok" in
  Alcotest.(check string) "control chars round-trip" s
    (to_string_val (parse (to_string (Str s))))

let test_json_nesting () =
  let depth = 1000 in
  let deep =
    String.concat "" (List.init depth (fun _ -> "["))
    ^ "1"
    ^ String.concat "" (List.init depth (fun _ -> "]"))
  in
  Alcotest.(check bool) "1000-deep array parses" true (parses deep);
  let rec unwrap j n =
    match j with Obs.Json.Arr [ x ] -> unwrap x (n + 1) | other -> (other, n)
  in
  let inner, n = unwrap (Obs.Json.parse deep) 0 in
  Alcotest.(check int) "all layers seen" depth n;
  Alcotest.(check bool) "innermost is 1" true (inner = Obs.Json.Int 1);
  let deep_obj =
    String.concat "" (List.init 200 (fun _ -> {|{"k":|}))
    ^ "null"
    ^ String.make 200 '}'
  in
  Alcotest.(check bool) "200-deep object parses" true (parses deep_obj)

let test_json_truncated_and_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "rejects %S" s) true (rejects s))
    [
      ""; "{"; "["; {|{"a"|}; {|{"a":|}; {|{"a":1|}; {|{"a":1,|}; "[1,";
      "[1, 2"; {|"unterminated|}; {|"esc\|}; "tru"; "falsy"; "nul";
      "1 2" (* trailing garbage *); "[] []"; "{} x"; "1.2.3"; "--1"; "+";
      {|{"a":1}}|}; "[1]]";
    ];
  (* whitespace around a valid document is fine *)
  Alcotest.(check bool) "surrounding whitespace ok" true
    (parses " \t\r\n {\"a\": [1, 2.5, true, null]} \n ")

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "escape sequences" `Quick test_json_escapes;
          Alcotest.test_case "deep nesting" `Quick test_json_nesting;
          Alcotest.test_case "truncated input / garbage" `Quick
            test_json_truncated_and_garbage;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "percentiles vs sorted oracle" `Quick
            test_quantile_oracle;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "counter exact under 8 domains" `Slow
            test_counter_parallel_exact;
          Alcotest.test_case "histogram exact under 8 domains" `Slow
            test_histogram_parallel_exact;
        ] );
      ( "registry",
        [
          Alcotest.test_case "exposition round-trip" `Quick
            test_registry_roundtrip;
          Alcotest.test_case "span capture" `Quick test_span_capture;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "probe count ~1 at m=64" `Slow
            test_probe_count_regression;
          Alcotest.test_case "scm counters exact under 4 domains" `Slow
            test_parallel_scm_counters_exact;
          Alcotest.test_case "htm abort counts per domain shard" `Quick
            test_htm_per_domain_shards;
        ] );
    ]
