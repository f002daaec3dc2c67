(* Chaos harness and hardened-recovery tests.

   The randomized crash-recover-verify loop (500 seeded iterations,
   mixed clean / crash / torn-store / allocation-failure restarts) is
   the acceptance gate for the fault model; the deterministic cases
   around it pin each fault class and recovery property individually:
   torn stores really tear, allocation failures abort without leaking,
   recovery crashed at any of its own persist boundaries converges,
   checksummed recovery quarantines media damage instead of aborting,
   and recovering twice in a row is a persistent no-op. *)

module F = Fptree.Fixed
module Tree = Fptree.Tree
module C = Pmcheck.Chaos
module E = Pmcheck.Enumerate

let arena = 32 * 1024 * 1024

let cfg_small =
  { Tree.fptree_config with
    Tree.m = 8; Tree.inner_keys = 8; Tree.use_groups = false }

let cfg_groups =
  { Tree.fptree_config with
    Tree.m = 8; Tree.inner_keys = 8; Tree.use_groups = true;
    Tree.group_size = 2 }

let fresh ~config () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  let a = Pmem.Palloc.create ~size:arena () in
  (a, F.create ~config a)

let restart ~config a =
  Scm.Region.crash ~mode:Scm.Config.Revert_all_dirty (Pmem.Palloc.region a);
  let a' = Pmem.Palloc.of_region (Pmem.Palloc.region a) in
  (a', F.recover ~config a')

(* ---- the main chaos loops ---- *)

let test_chaos_500 () =
  let r = C.run ~config:Tree.fptree_config ~seed:1 ~iterations:500 () in
  (* The whole report is pinned: the seed decides every fault and
     every op, so any move means the injectors or the harness changed
     what they count. *)
  Alcotest.(check (list int))
    "iterations, ops, clean, crashes, torn, alloc failures, final keys"
    [ 500; 18213; 399; 53; 47; 1; 4122 ]
    [ r.C.iterations; r.C.ops; r.C.clean; r.C.crashes; r.C.torn;
      r.C.alloc_failures; r.C.final_keys ]

let test_chaos_checksums_concurrent () =
  let config =
    { Tree.fptree_concurrent_config with Tree.checksums = true }
  in
  let r = C.run ~config ~seed:2 ~iterations:120 () in
  Alcotest.(check int) "all iterations survived" 120 r.C.iterations

(* ---- deterministic fault-class cases ---- *)

(* A torn multi-word store must persist a strict prefix: after the
   crash the region holds neither the old nor the new full value. *)
let test_torn_store_tears () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  let r = Scm.Region.make ~id:77 ~size:4096 in
  Scm.Region.write_string r 0 (String.make 32 'A');
  Scm.Region.persist r 0 32;
  Alcotest.(check bool) "torn store crashed" true
    (Scm.Fault.inject ~seed:11 Torn_store 1 (fun () ->
         Scm.Region.write_string r 0 (String.make 32 'B')));
  Scm.Region.crash ~mode:Scm.Config.Revert_all_dirty r;
  let s = Scm.Region.read_string r 0 32 in
  Alcotest.(check bool) "prefix is new" true (s.[0] = 'B');
  Alcotest.(check bool) "suffix is old" true (s.[31] = 'A')

(* Allocation failure mid-insert: the operation aborts, and a restart
   finds a consistent, leak-free tree without the key. *)
let test_alloc_failure_no_leak () =
  let config = cfg_small in
  let a, t = fresh ~config () in
  for i = 1 to 8 do
    ignore (F.insert t (i * 10) i)
  done;
  (* the 9th insert splits, which must allocate a fresh leaf *)
  Alcotest.(check bool) "allocation failure fired" true
    (Scm.Fault.inject Alloc_crash 1 (fun () -> ignore (F.insert t 90 9)));
  let a', t' = restart ~config a in
  F.check_invariants t';
  Alcotest.(check int) "committed keys survived" 8 (F.count t');
  Alcotest.(check (option int)) "in-flight key absent" None (F.find t' 90);
  Alcotest.(check int) "no leaked blocks" 0
    (List.length
       (Pmem.Palloc.leaked_blocks a' ~reachable:(F.reachable_blocks t')));
  Alcotest.(check bool) "usable after restart" true (F.insert t' 90 9)

(* ---- crash-during-recovery convergence ---- *)

(* Crash the original run at EVERY persist of the script, and for each
   resulting image crash recovery itself at every one of its own
   persist boundaries (a crash point past the end just proves recovery
   converged without injection — the verify still runs).  Both counts
   are pinned: the sum shows recoveries really were interrupted
   mid-repair, and a move means the injector or the sweep changed.
   [K] is the sweeps of one key kind. *)
let sweep_all_crash_points (type k) (module K : E.S with type key = k) ~config
    ~setup ~ops ~expect =
  let total = ref 0 in
  let crash_at = ref 1 in
  let exhausted = ref false in
  while not !exhausted do
    match K.sweep_recovery_crashes ~config ~setup ~ops ~crash_at:!crash_at () with
    | r ->
      total := !total + r.E.recovery_crash_points;
      incr crash_at
    | exception Invalid_argument _ -> exhausted := true
  done;
  Alcotest.(check (pair int int))
    "recovery crash points, original crash points" expect
    (!total, !crash_at - 1)

let split_script = (List.init 8 (fun i -> E.Ins ((i + 1) * 10, i)), [ E.Ins (90, 9) ])

let test_recovery_crash_sweep () =
  let setup, ops = split_script in
  sweep_all_crash_points (module E) ~config:cfg_small ~setup ~ops
    ~expect:(58, 17);
  sweep_all_crash_points (module E) ~config:cfg_groups ~setup ~ops
    ~expect:(30, 13)

let test_recovery_crash_sweep_checksums () =
  let config = { cfg_small with Tree.checksums = true } in
  let setup, ops = split_script in
  sweep_all_crash_points (module E) ~config ~setup ~ops ~expect:(126, 23)

(* The same sweep over string keys: m = 4, so the 9th key splits a
   full leaf and recovery has a split to redo or roll back, and an
   out-of-line key block to keep or free (Algorithm 17). *)
let test_recovery_crash_sweep_var () =
  let key i = Printf.sprintf "key%02d" ((i + 1) * 10) in
  sweep_all_crash_points (module E.Var)
    ~config:{ cfg_small with Tree.m = 4 }
    ~setup:(List.init 8 (fun i -> E.Ins (key i, i)))
    ~ops:[ E.Ins (key 8, 8) ] ~expect:(143, 26)

(* ---- checksummed recovery quarantines media damage ---- *)

let test_recover_quarantines_corrupt_leaf () =
  let config =
    { Tree.fptree_config with
      Tree.m = 8; Tree.inner_keys = 8; Tree.use_groups = false;
      Tree.checksums = true }
  in
  let a, t = fresh ~config () in
  for i = 1 to 40 do
    ignore (F.insert t i (i * 7))
  done;
  (* flip bits in the data cells of some middle leaf *)
  let leaves = ref [] in
  F.iter_leaves t (fun l -> leaves := l :: !leaves);
  let leaves = Array.of_list (List.rev !leaves) in
  Alcotest.(check bool) "several leaves" true (Array.length leaves > 3);
  let victim = leaves.(Array.length leaves / 2) in
  let layout = t.F.layout in
  Scm.Region.corrupt (Pmem.Palloc.region a)
    ~off:(victim + layout.Fptree.Layout.data_off)
    ~len:(layout.Fptree.Layout.bytes - layout.Fptree.Layout.data_off)
    ~bits:9 ~seed:3;
  let a', t' = restart ~config a in
  F.check_invariants t';
  Alcotest.(check bool) "victim quarantined" true
    (List.mem victim (F.Testing.quarantined t'));
  Alcotest.(check bool) "surviving keys intact and correct" true
    (let ok = ref true and found = ref 0 in
     for i = 1 to 40 do
       match F.find t' i with
       | Some v -> incr found; if v <> i * 7 then ok := false
       | None -> ()
     done;
     !ok && !found = F.count t' && !found < 40 && !found >= 40 - 8);
  Alcotest.(check int) "quarantined leaf is not a leak" 0
    (List.length
       (Pmem.Palloc.leaked_blocks a' ~reachable:(F.reachable_blocks t')));
  Alcotest.(check bool) "usable after quarantine" true (F.insert t' 4242 1)

(* ---- double recovery is a persistent no-op (satellite) ---- *)

let double_recovery ~config () =
  let a, t = fresh ~config () in
  for i = 1 to 200 do
    ignore (F.insert t i i)
  done;
  (* crash mid-operation so the first recovery has real work to do *)
  ignore
    (Scm.Fault.inject Persist_crash 3 (fun () -> ignore (F.insert t 999_999 9)));
  let _, t1 = restart ~config a in
  F.check_invariants t1;
  let keys1 = ref [] in
  F.iter t1 (fun k v -> keys1 := (k, v) :: !keys1);
  let leaves1 = F.leaf_count t1 in
  let before = Scm.Stats.snapshot () in
  let a2 = Pmem.Palloc.of_region (Pmem.Palloc.region a) in
  let t2 = F.recover ~config a2 in
  let d = Scm.Stats.diff before (Scm.Stats.snapshot ()) in
  Alcotest.(check int) "second recovery persists nothing" 0
    d.Scm.Stats.persists;
  F.check_invariants t2;
  let keys2 = ref [] in
  F.iter t2 (fun k v -> keys2 := (k, v) :: !keys2);
  Alcotest.(check bool) "identical key sets" true (!keys1 = !keys2);
  Alcotest.(check int) "identical leaf count" leaves1 (F.leaf_count t2);
  Alcotest.(check bool) "nothing quarantined" true (F.Testing.quarantined t2 = [])

let test_double_recovery () = double_recovery ~config:cfg_small ()

let test_double_recovery_checksums () =
  double_recovery ~config:{ cfg_groups with Tree.checksums = true } ()

let () =
  Alcotest.run "chaos"
    [
      ( "loop",
        [
          Alcotest.test_case "500 seeded iterations, mixed faults" `Slow
            test_chaos_500;
          Alcotest.test_case "concurrent config + checksums" `Slow
            test_chaos_checksums_concurrent;
        ] );
      ( "faults",
        [
          Alcotest.test_case "torn store persists a strict prefix" `Quick
            test_torn_store_tears;
          Alcotest.test_case "alloc failure aborts without leaking" `Quick
            test_alloc_failure_no_leak;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash-during-recovery converges" `Slow
            test_recovery_crash_sweep;
          Alcotest.test_case "crash-during-recovery, checksums" `Slow
            test_recovery_crash_sweep_checksums;
          Alcotest.test_case "crash-during-recovery, var keys" `Slow
            test_recovery_crash_sweep_var;
          Alcotest.test_case "media damage is quarantined" `Quick
            test_recover_quarantines_corrupt_leaf;
          Alcotest.test_case "double recovery is a no-op" `Quick
            test_double_recovery;
          Alcotest.test_case "double recovery, checksums+groups" `Quick
            test_double_recovery_checksums;
        ] );
    ]
