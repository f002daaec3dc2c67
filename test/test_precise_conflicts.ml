(* Satellite stress test for per-node read-set validation: a 4-domain
   mixed workload (inserts / updates / deletes / cross-stripe finds on
   contended small leaves) compared exactly against an in-DRAM oracle,
   plus assertions that the precise-conflict accounting has the shape
   the fine-grained protocol promises:

   - the abort partition is exact (aborts = precise_conflicts +
     explicit_aborts);
   - precise conflicts are far below what the global protocol would
     have produced.  Under global validation every structural update
     (split / leaf unlink) invalidates EVERY in-flight reader, so with
     4 domains running continuously the old abort count is bounded
     below by the number of structural updates.  Per-node validation
     only aborts readers whose own root-to-leaf path moved. *)

module F = Fptree.Fixed

let n_domains = 4
let per = 4000

let setup () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_stats false;
  let a = Pmem.Palloc.create ~size:(256 * 1024 * 1024) () in
  (* m = 8: tiny leaves so splits and whole-leaf deletes are frequent
     and every leaf is contended across stripes *)
  F.create_concurrent ~m:8 a

(* Domain [d] owns keys k with k mod n_domains = d.  The script per
   owned key is deterministic, so the final state is computable without
   running the tree; finds roam across ALL stripes so readers traverse
   leaves other domains are splitting. *)
let script_owned d i =
  let k = (i * n_domains) + d in
  (* returns final state for key k *)
  if i mod 5 = 0 then (k, None)
  else if i mod 3 = 0 then (k, Some ((k * 3) + 1))
  else (k, Some (k * 3))

let worker t d =
  let rng = Random.State.make [| 42; d |] in
  for i = 0 to per - 1 do
    let k = (i * n_domains) + d in
    ignore (F.insert t k (k * 3));
    if i mod 3 = 0 then ignore (F.update t k ((k * 3) + 1));
    if i mod 5 = 0 then ignore (F.delete t k);
    (* cross-stripe reads: 3 probes per owned-key step *)
    for _ = 1 to 3 do
      ignore (F.find t (Random.State.int rng (per * n_domains)))
    done
  done

let test_oracle_divergence_and_counters () =
  let t = setup () in
  let ds = List.init n_domains (fun d -> Domain.spawn (fun () -> worker t d)) in
  List.iter Domain.join ds;
  F.check_invariants t;
  (* oracle: merged per-domain models (stripes are disjoint, so the
     merge is exact — same machinery Pmcheck.Chaos uses, computed
     deterministically here) *)
  let oracle = Hashtbl.create (per * n_domains) in
  for d = 0 to n_domains - 1 do
    for i = 0 to per - 1 do
      match script_owned d i with
      | _, None -> ()
      | k, Some v -> Hashtbl.replace oracle k v
    done
  done;
  (* zero divergence: counts equal and every oracle pair present with
     the oracle's value; tree can hold nothing else at equal counts *)
  Alcotest.(check int) "count matches oracle" (Hashtbl.length oracle) (F.count t);
  let diverged = ref 0 in
  Hashtbl.iter
    (fun k v -> if F.find t k <> Some v then incr diverged)
    oracle;
  Alcotest.(check int) "zero divergence from oracle" 0 !diverged;
  (* deleted keys really absent *)
  for d = 0 to n_domains - 1 do
    for i = 0 to per - 1 do
      match script_owned d i with
      | k, None ->
        if F.find t k <> None then Alcotest.failf "key %d should be deleted" k
      | _ -> ()
    done
  done;
  (* ---- abort accounting ---- *)
  let s = List.assoc "aborts" (F.htm_stats t)
  and pc = List.assoc "precise_conflicts" (F.htm_stats t)
  and ea = List.assoc "explicit_aborts" (F.htm_stats t) in
  (* the partition is exact *)
  Alcotest.(check int) "abort causes partition the total" s (pc + ea);
  (* Far below the global protocol's floor: every split/unlink would
     have aborted every overlapping reader, so the old abort count is
     bounded below by the number of splits.  The split-instrumentation
     counter is off in fast mode, but the bound is analytic: with m = 8
     a tree holding the oracle's keys has at least |oracle| / 8 leaves,
     and every leaf beyond the first came from a split.  Precise
     conflicts must stay well under half that floor — a generous margin
     so scheduler-dependent interleavings cannot flake. *)
  let split_floor = Hashtbl.length oracle / 8 in
  Alcotest.(check bool)
    (Printf.sprintf
       "precise conflicts (%d) far below global-protocol floor (>= %d splits)"
       pc split_floor)
    true
    (pc < split_floor / 2);
  (* sanity: the workload really did exercise structure *)
  Alcotest.(check bool) "workload split leaves" true (split_floor > 500)

let test_single_domain_has_no_aborts () =
  (* With one domain nothing can invalidate a read set between observe
     and validate: the precise protocol must be abort-free, which is
     also why single-domain instrumented counter traces are byte-stable
     (DESIGN.md "Conflict granularity"). *)
  let t = setup () in
  for i = 0 to 5000 - 1 do
    ignore (F.insert t i (i * 3));
    if i mod 3 = 0 then ignore (F.update t i ((i * 3) + 1));
    if i mod 5 = 0 then ignore (F.delete t i);
    ignore (F.find t (i / 2))
  done;
  F.check_invariants t;
  Alcotest.(check int) "no aborts single-domain" 0
    (List.assoc "aborts" (F.htm_stats t))

let () =
  Alcotest.run "precise-conflicts"
    [
      ( "stress",
        [
          Alcotest.test_case "4-domain mixed vs oracle + counters" `Quick
            test_oracle_divergence_and_counters;
          Alcotest.test_case "single-domain is abort-free" `Quick
            test_single_domain_has_no_aborts;
        ] );
    ]
