(* Multi-domain tests of the concurrent FPTree (Selective Concurrency,
   Section 4.4): parallel inserts/finds/updates/deletes with interleaved
   key ownership so that leaves are contended, plus recovery after a
   concurrent run.

   Crash-word tracking is disabled while domains run (the dirty-word
   table is not synchronized, exactly like the paper's emulation which
   cannot test TSX and crashes on the same machine). *)

module F = Fptree.Fixed
module Tree = Fptree.Tree

let n_domains = max 2 (min 8 (Domain.recommended_domain_count () - 1))

let default_retries = Tree.fptree_concurrent_config.Tree.htm_retries

let setup ?(htm_retries = default_retries) () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_stats false;
  let a = Pmem.Palloc.create ~size:(256 * 1024 * 1024) () in
  (a, F.create ~config:{ Tree.fptree_concurrent_config with m = 8; htm_retries } a)

(* Run a test with the default retry budget, then with none: every
   section then runs its body under the fallback mutex. *)
let with_and_without_speculation f () =
  List.iter (fun htm_retries -> f ~htm_retries) [ default_retries; 0 ]

let spawn_all f =
  let ds = List.init n_domains (fun d -> Domain.spawn (fun () -> f d)) in
  List.iter Domain.join ds

let test_parallel_disjoint_inserts () =
  let _, t = setup () in
  let per = 3000 in
  spawn_all (fun d ->
      for i = 0 to per - 1 do
        let k = (d * per) + i in
        if not (F.insert t k (k * 2)) then failwith "unexpected duplicate"
      done);
  Alcotest.(check int) "all keys present" (n_domains * per) (F.count t);
  F.check_invariants t;
  for k = 0 to (n_domains * per) - 1 do
    if F.find t k <> Some (k * 2) then Alcotest.failf "key %d wrong" k
  done

let test_parallel_interleaved_inserts () =
  (* Interleaved ownership: adjacent keys belong to different domains,
     so every leaf is contended. *)
  let _, t = setup () in
  let per = 3000 in
  spawn_all (fun d ->
      for i = 0 to per - 1 do
        ignore (F.insert t ((i * n_domains) + d) i)
      done);
  Alcotest.(check int) "count" (n_domains * per) (F.count t);
  F.check_invariants t

let test_duplicate_race () =
  (* All domains insert the SAME keys: exactly one wins per key and the
     value is one of the attempted values. *)
  let _, t = setup () in
  let keys = 2000 in
  spawn_all (fun d ->
      for k = 0 to keys - 1 do
        ignore (F.insert t k ((d * 1_000_000) + k))
      done);
  Alcotest.(check int) "each key once" keys (F.count t);
  for k = 0 to keys - 1 do
    match F.find t k with
    | None -> Alcotest.failf "key %d lost" k
    | Some v ->
      if v mod 1_000_000 <> k then Alcotest.failf "key %d has foreign value %d" k v
  done

let test_readers_never_see_garbage () =
  (* Writers insert k -> k*7; concurrent readers must only ever see
     None or k*7. *)
  let _, t = setup () in
  let keys = 20_000 in
  let bad = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        for k = 0 to keys - 1 do
          ignore (F.insert t k (k * 7))
        done)
  in
  let readers =
    List.init (n_domains - 1) (fun _ ->
        Domain.spawn (fun () ->
            for round = 0 to 2 do
              ignore round;
              for k = 0 to keys - 1 do
                match F.find t k with
                | None -> ()
                | Some v -> if v <> k * 7 then Atomic.incr bad
              done
            done))
  in
  Domain.join writer;
  List.iter Domain.join readers;
  Alcotest.(check int) "no torn reads" 0 (Atomic.get bad)

let test_mixed_workload_per_owner ~htm_retries =
  (* Each domain owns keys k with k mod n_domains = d and runs a
     deterministic insert/update/delete script on them; the final state
     is exactly predictable per key. *)
  let _, t = setup ~htm_retries () in
  let per = 2000 in
  spawn_all (fun d ->
      for i = 0 to per - 1 do
        let k = (i * n_domains) + d in
        ignore (F.insert t k k);
        if i mod 3 = 0 then ignore (F.update t k (k + 1));
        if i mod 5 = 0 then ignore (F.delete t k)
      done);
  F.check_invariants t;
  let expected = ref 0 in
  for i = 0 to per - 1 do
    for d = 0 to n_domains - 1 do
      let k = (i * n_domains) + d in
      if i mod 5 = 0 then begin
        if F.find t k <> None then Alcotest.failf "key %d should be deleted" k
      end
      else begin
        incr expected;
        let want = if i mod 3 = 0 then k + 1 else k in
        if F.find t k <> Some want then Alcotest.failf "key %d wrong value" k
      end
    done
  done;
  Alcotest.(check int) "count" !expected (F.count t)

let test_concurrent_whole_leaf_deletes () =
  (* Tiny leaves + dense deletes => many concurrent leaf unlinks, the
     trickiest path (two leaf locks + inner update + micro-log). *)
  let _, t = setup () in
  let per = 1500 in
  spawn_all (fun d ->
      for i = 0 to per - 1 do
        ignore (F.insert t ((i * n_domains) + d) i)
      done);
  spawn_all (fun d ->
      for i = 0 to per - 1 do
        if not (F.delete t ((i * n_domains) + d)) then
          failwith "owned key must delete exactly once"
      done);
  Alcotest.(check int) "all deleted" 0 (F.count t);
  (* reusable *)
  ignore (F.insert t 12345 1);
  Alcotest.(check (option int)) "usable" (Some 1) (F.find t 12345)

let test_range_during_writes_is_sane () =
  let _, t = setup () in
  for k = 0 to 999 do
    ignore (F.insert t (k * 2) k)
  done;
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let i = ref 1000 in
        while not (Atomic.get stop) do
          ignore (F.insert t (!i * 2) !i);
          incr i
        done)
  in
  (* The writer only inserts keys >= 2000, so the window [100, 200]
     holds exactly its 51 preloaded pairs throughout. *)
  let expect = List.init 51 (fun j -> (100 + (2 * j), 50 + j)) in
  for _ = 1 to 200 do
    let r = F.range t ~lo:100 ~hi:200 in
    if r <> expect then
      Alcotest.failf "range returned %d pairs, not the 51 preloaded in order: %s"
        (List.length r)
        (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "(%d,%d)" k v) r))
  done;
  Atomic.set stop true;
  Domain.join writer

(* A writer inserts odd keys between preloaded even ones, splitting
   the very leaves concurrent range scans walk and end in.  Every scan
   must come back strictly ascending, inside its bounds, with every
   preloaded pair and with each odd key carrying its inserted value.
   Windows of ~60 keys end mid-chain, so the scans stop at a leaf
   whose routing bound moves when it splits. *)
let test_range_during_splits_is_ascending ~htm_retries =
  let _, t = setup ~htm_retries () in
  let w_lo = 10_000 and w_hi = 50_000 in
  for i = 0 to w_hi / 2 do
    ignore (F.insert t (2 * i) i)
  done;
  let done_ = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        Array.iter
          (fun i ->
            let k = w_lo + 1 + (2 * i) in
            if not (F.insert t k (3 * k)) then failwith "odd key inserted twice")
          (Workloads.Keygen.permutation ~seed:5 ((w_hi - w_lo) / 2));
        Atomic.set done_ true)
  in
  let check lo hi =
    let r = F.range t ~lo ~hi in
    let rec go prev evens = function
      | [] -> evens
      | (k, v) :: rest ->
        if k <= prev || k < lo || k > hi then
          Alcotest.failf "range [%d, %d]: key %d after %d" lo hi k prev;
        let want = if k land 1 = 0 then k / 2 else 3 * k in
        if v <> want then
          Alcotest.failf "range [%d, %d]: key %d has value %d, not %d" lo hi k v want;
        go k (if k land 1 = 0 then evens + 1 else evens) rest
    in
    let evens = go min_int 0 r in
    let expect = (hi / 2) - ((lo + 1) / 2) + 1 in
    if evens <> expect then
      Alcotest.failf "range [%d, %d]: %d preloaded pairs, not %d" lo hi evens expect
  in
  let j = ref 0 in
  while not (Atomic.get done_) do
    let lo = w_lo + (37 * !j mod (w_hi - w_lo)) in
    check lo (lo + 120);
    if !j mod 64 = 0 then check w_lo w_hi;
    incr j
  done;
  Domain.join writer;
  check w_lo w_hi;
  Alcotest.(check int) "every odd key landed" (w_hi - w_lo)
    (List.length (F.range t ~lo:w_lo ~hi:(w_hi - 1)));
  F.check_invariants t

(* A writer deletes keys and re-inserts their odd neighbours, then the
   reverse, for 300 rounds: each insert refills the slot the delete
   just freed, so a leaf's bitmap ends each step where it began while
   its slot changes hands.  Values are a function of the key (even k
   carries k / 2, odd k 3k), so a scan that pairs a key with the value
   of the slot's next occupant shows.  The even keys between the
   churned ones stay put: each scan must return all of them, strictly
   ascending, inside its bounds. *)
let test_range_during_delete_reinsert () =
  let _, t = setup () in
  let w_lo = 2_000 and w_hi = 2_800 and top = 3_200 in
  for i = 0 to top / 2 do
    ignore (F.insert t (2 * i) i)
  done;
  let churn = Array.init ((w_hi - w_lo) / 4) (fun i -> w_lo + (4 * i)) in
  let swap ~del ~ins v =
    Array.iter
      (fun k ->
        if not (F.delete t (del k)) then failwith "churned key missing";
        if not (F.insert t (ins k) (v (ins k))) then failwith "churned key present")
      churn
  in
  let done_ = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        for _ = 1 to 300 do
          swap ~del:Fun.id ~ins:succ (fun k -> 3 * k);
          swap ~del:succ ~ins:Fun.id (fun k -> k / 2)
        done;
        Atomic.set done_ true)
  in
  let check lo hi =
    let rec go prev steady = function
      | [] -> steady
      | (k, v) :: rest ->
        if k <= prev || k < lo || k > hi then
          Alcotest.failf "range [%d, %d]: key %d after %d" lo hi k prev;
        let want = if k land 1 = 0 then k / 2 else 3 * k in
        if v <> want then
          Alcotest.failf "range [%d, %d]: key %d has value %d, not %d" lo hi k v want;
        go k (if k land 3 = 2 || k < w_lo || k >= w_hi then steady + 1 else steady) rest
    in
    let steady = go min_int 0 (F.range t ~lo ~hi) in
    let expect = ref 0 in
    for k = lo to hi do
      if k land 1 = 0 && (k land 3 = 2 || k < w_lo || k >= w_hi) then incr expect
    done;
    if steady <> !expect then
      Alcotest.failf "range [%d, %d]: %d steady keys, not %d" lo hi steady !expect
  in
  let j = ref 0 in
  while not (Atomic.get done_) do
    let lo = w_lo - 100 + (37 * !j mod (w_hi - w_lo)) in
    check lo (lo + 200);
    incr j
  done;
  Domain.join writer;
  check 0 top;
  Alcotest.(check int) "every churned key is back" ((top / 2) + 1) (F.count t);
  F.check_invariants t

(* Var keys on anchored inner nodes.  A block of keys sharing a long
   prefix is preloaded; two writer domains then insert keys under
   ever shorter cuts of that prefix and under new first bytes, below
   the block (one writer) and above it (the other), so leaves split at
   both ends and the inner nodes along the tree's edges lose prefix
   bytes and are re-encoded, while a reader domain finds every
   preloaded key.  The block's keys carry a group letter before a
   seven-byte run, so a node spanning two groups holds long suffixes
   whose anchors tie. *)
module V = Fptree.Var

let test_var_prefix_breaks ~htm_retries =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_stats false;
  let t =
    V.create
      ~config:{ Tree.fptree_concurrent_config with m = 8; inner_keys = 8; htm_retries }
      (Pmem.Palloc.create ~size:(64 * 1024 * 1024) ())
  in
  let block =
    Array.init 3000 (fun i ->
        Printf.sprintf "m/shared-prefix/%c-same-7-%05d" (Char.chr (97 + (i mod 4))) (i / 4))
  in
  Array.iteri (fun i k -> if not (V.insert t k i) then failwith "preload duplicate") block;
  let per = 1500 in
  let leads = [| "m/shared-prefix/"; "m/shared-"; "m/"; "" |] in
  let written d i =
    Printf.sprintf "%s%c%05d" leads.(i mod 4) (if d = 0 then '0' else '~') i
  in
  let writing = Atomic.make 2 and bad = Atomic.make 0 in
  let writers =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              if not (V.insert t (written d i) ((10 * i) + d)) then
                failwith "written key present"
            done;
            Atomic.decr writing))
  in
  let reader =
    Domain.spawn (fun () ->
        let pass () =
          Array.iteri
            (fun i k -> if V.find t k <> Some i then Atomic.incr bad)
            block
        in
        pass ();
        while Atomic.get writing > 0 do
          pass ()
        done)
  in
  List.iter Domain.join writers;
  Domain.join reader;
  Alcotest.(check int) "every find of a preloaded key hit with its value" 0
    (Atomic.get bad);
  let model =
    List.init 2 (fun d -> List.init per (fun i -> (written d i, (10 * i) + d)))
    |> List.concat
    |> List.append (Array.to_list (Array.mapi (fun i k -> (k, i)) block))
    |> List.sort compare
  in
  Alcotest.(check int) "count" (List.length model) (V.count t);
  Alcotest.(check (list (pair string int))) "full range" model
    (V.range t ~lo:"" ~hi:(String.make 8 '\255'));
  V.check_invariants t

let test_recovery_after_concurrent_run () =
  let a, t = setup () in
  let per = 2000 in
  spawn_all (fun d ->
      for i = 0 to per - 1 do
        let k = (i * n_domains) + d in
        ignore (F.insert t k (k * 3));
        if i mod 7 = 0 then ignore (F.delete t k)
      done);
  let expected = F.count t in
  let t2 = F.recover (Pmem.Palloc.of_region (Pmem.Palloc.region a)) in
  F.check_invariants t2;
  Alcotest.(check int) "count after recovery" expected (F.count t2);
  for i = 0 to per - 1 do
    for d = 0 to n_domains - 1 do
      let k = (i * n_domains) + d in
      let want = if i mod 7 = 0 then None else Some (k * 3) in
      if F.find t2 k <> want then Alcotest.failf "key %d wrong after recovery" k
    done
  done

let test_spec_lock_statistics () =
  let _, t = setup () in
  spawn_all (fun d ->
      for i = 0 to 2000 - 1 do
        ignore (F.insert t ((i * n_domains) + d) i)
      done);
  let s = F.Testing.spec_stats t in
  (* with interleaved contention there must have been some speculation
     activity; this is a smoke check that the machinery is engaged *)
  Alcotest.(check bool) "stats are non-negative" true
    (s.Htm.Speculative_lock.aborts >= 0 && s.Htm.Speculative_lock.fallbacks >= 0)

let () =
  Alcotest.run "fptree-concurrent"
    [
      ( "inserts",
        [
          Alcotest.test_case "disjoint ranges" `Quick test_parallel_disjoint_inserts;
          Alcotest.test_case "interleaved (contended leaves)" `Quick
            test_parallel_interleaved_inserts;
          Alcotest.test_case "duplicate race" `Quick test_duplicate_race;
        ] );
      ( "mixed",
        [
          Alcotest.test_case "readers never see garbage" `Quick
            test_readers_never_see_garbage;
          Alcotest.test_case "mixed workload" `Quick
            (with_and_without_speculation test_mixed_workload_per_owner);
          Alcotest.test_case "concurrent whole-leaf deletes" `Quick
            test_concurrent_whole_leaf_deletes;
          Alcotest.test_case "range during writes" `Quick test_range_during_writes_is_sane;
          Alcotest.test_case "range during splits" `Quick
            (with_and_without_speculation test_range_during_splits_is_ascending);
          Alcotest.test_case "range during delete and re-insert" `Quick
            test_range_during_delete_reinsert;
          Alcotest.test_case "var keys while prefixes break" `Quick
            (with_and_without_speculation test_var_prefix_breaks);
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recovery after concurrent run" `Quick
            test_recovery_after_concurrent_run;
          Alcotest.test_case "speculation statistics" `Quick test_spec_lock_statistics;
        ] );
    ]
