(* Crash-consistency torture tests: the paper's headline persistence
   claim is that the FPTree "self-recovers to a consistent state from
   any software crash or power failure scenario".

   Strategy: run an operation sequence, inject a crash at the n-th
   persistence point (for every n until the sequence completes), drop
   all unflushed words, recover, and verify that

   - every operation completed before the crash is fully visible,
   - the in-flight operation is atomic (fully applied or absent),
   - structural invariants hold,
   - no persistent memory is leaked,
   - the tree remains fully usable afterwards. *)

module F = Fptree.Fixed
module Tree = Fptree.Tree
module E = Pmcheck.Enumerate

let sweep ?mode ~config ops =
  (E.sweep_crash_states ?mode ~config ~setup:[] ops).E.crash_points

(* An op mix that forces splits, in-leaf deletes, whole-leaf deletes,
   and updates with tiny leaves so every micro-log path fires. *)
let torture_ops =
  List.concat
    [
      List.init 40 (fun i -> E.Ins (i * 3, i));
      List.init 10 (fun i -> E.Upd (i * 6, i + 100));
      List.init 12 (fun i -> E.Del (i * 9));
      List.init 10 (fun i -> E.Ins ((i * 3) + 1, i));
      List.init 30 (fun i -> E.Del (i * 3));
    ]

let test_sweep_groups () =
  let config =
    { Tree.fptree_config with Tree.m = 4; Tree.group_size = 2; Tree.use_groups = true }
  in
  Alcotest.(check int) "crash points (groups)" 628 (sweep ~config torture_ops)

let test_sweep_no_groups () =
  let config = { Tree.fptree_config with Tree.m = 4; Tree.use_groups = false } in
  Alcotest.(check int) "crash points (no groups)" 572 (sweep ~config torture_ops)

let test_sweep_random_eviction () =
  (* Eviction-adversarial mode: each dirty word independently survives,
     drawn from a seed per crash point. *)
  let config = { Tree.fptree_config with Tree.m = 4; Tree.use_groups = false } in
  let ops = List.filteri (fun i _ -> i < 60) torture_ops in
  Alcotest.(check int) "crash points (random eviction)" 412
    (sweep ~mode:(fun n -> Scm.Config.Keep_random_subset n) ~config ops)

(* Variable-size keys: same sweep over a key-churn workload, checking
   the Algorithm 17 leak audit at every crash point. *)
let test_sweep_var_keys () =
  let config = { Tree.fptree_config with Tree.m = 4; Tree.use_groups = false } in
  let keypool = Array.init 40 (fun i -> Printf.sprintf "vk%03d" i) in
  let ops =
    List.concat
      [
        List.init 40 (fun i -> E.Ins (keypool.(i), i));
        List.init 20 (fun i -> E.Upd (keypool.(i * 2), i + 50));
        List.init 30 (fun i -> E.Del keypool.(i));
      ]
  in
  Alcotest.(check int) "var-key crash points" 1209
    (E.Var.sweep_crash_states ~config ~setup:[] ops).E.crash_points

(* Crash during tree creation must be recoverable too. *)
let test_crash_during_create () =
  let config = { Tree.fptree_config with Tree.m = 4 } in
  let points =
    Scm.Fault.sweep Persist_crash (fun n inject ->
        Scm.Registry.clear ();
        Scm.Config.reset ();
        let a = Pmem.Palloc.create ~size:E.default_arena () in
        if inject (fun () -> ignore (F.create ~config a)) then begin
          Scm.Region.crash (Pmem.Palloc.region a);
          let a' = Pmem.Palloc.of_region (Pmem.Palloc.region a) in
          (* Either no root was anchored yet (re-create), or the partially
             initialized tree completes on recover. *)
          let t2 =
            if Pmem.Pptr.is_null (Pmem.Palloc.root a') then F.create ~config a'
            else F.recover ~config a'
          in
          ignore (F.insert t2 1 1);
          Alcotest.(check (option int))
            (Printf.sprintf "create crash@%d: tree usable" n)
            (Some 1) (F.find t2 1)
        end)
  in
  Alcotest.(check int) "create crash points" 26 points

(* Double crash: crash during recovery itself (recovery must be
   idempotent). *)
let test_crash_during_recovery () =
  let config = { Tree.fptree_config with Tree.m = 4; Tree.use_groups = false } in
  (* First crash mid-split. *)
  Scm.Registry.clear ();
  Scm.Config.reset ();
  let a = Pmem.Palloc.create ~size:E.default_arena () in
  let t = F.create ~config a in
  let m = Hashtbl.create 16 in
  ignore
    (Scm.Fault.inject Persist_crash 400 (fun () ->
         for i = 1 to 200 do
           ignore (F.insert t i i);
           Hashtbl.replace m i i
         done));
  Scm.Region.crash (Pmem.Palloc.region a);
  (* Now crash at every persist point of the recovery, then recover
     fully and check consistency. *)
  let points =
    Scm.Fault.sweep Persist_crash (fun _ inject ->
        if inject (fun () ->
               ignore (F.recover ~config (Pmem.Palloc.of_region (Pmem.Palloc.region a))))
        then Scm.Region.crash (Pmem.Palloc.region a))
  in
  let a' = Pmem.Palloc.of_region (Pmem.Palloc.region a) in
  let t2 = F.recover ~config a' in
  F.check_invariants t2;
  (* Every committed insert must be present (the model only records
     inserts whose call returned before the crash). *)
  Hashtbl.iter
    (fun k v ->
      match F.find t2 k with
      | Some v' -> Alcotest.(check int) (Printf.sprintf "value of %d" k) v v'
      | None -> Alcotest.failf "committed key %d lost" k)
    m;
  Alcotest.(check int) "nested recovery crash points" 4 points

let () =
  Alcotest.run "crash-consistency"
    [
      ( "sweeps",
        [
          Alcotest.test_case "all crash points (leaf groups)" `Slow test_sweep_groups;
          Alcotest.test_case "all crash points (allocator per split)" `Slow
            test_sweep_no_groups;
          Alcotest.test_case "random-eviction crashes" `Slow test_sweep_random_eviction;
          Alcotest.test_case "var-key crash points + leak audit" `Slow
            test_sweep_var_keys;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "crash during create" `Quick test_crash_during_create;
          Alcotest.test_case "crash during recovery" `Quick test_crash_during_recovery;
        ] );
    ]
