(* Functional tests of the fixed-key FPTree: base operations, splits,
   leaf deletion, leaf groups, recovery, invariants, and model-based
   property tests. *)

module F = Fptree.Fixed
module Tree = Fptree.Tree

let fresh_alloc ?(size = 16 * 1024 * 1024) () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Pmem.Palloc.create ~size ()

let single ?(m = 8) () = F.create_single ~m (fresh_alloc ())

let test_empty () =
  let t = single () in
  Alcotest.(check (option int)) "find on empty" None (F.find t 1);
  Alcotest.(check bool) "delete on empty" false (F.delete t 1);
  Alcotest.(check bool) "update on empty" false (F.update t 1 2);
  Alcotest.(check int) "count empty" 0 (F.count t)

let test_insert_find () =
  let t = single () in
  Alcotest.(check bool) "insert ok" true (F.insert t 10 100);
  Alcotest.(check bool) "insert ok" true (F.insert t 20 200);
  Alcotest.(check (option int)) "find 10" (Some 100) (F.find t 10);
  Alcotest.(check (option int)) "find 20" (Some 200) (F.find t 20);
  Alcotest.(check (option int)) "find missing" None (F.find t 15);
  Alcotest.(check int) "count" 2 (F.count t)

let test_duplicate_insert () =
  let t = single () in
  Alcotest.(check bool) "first insert" true (F.insert t 7 1);
  Alcotest.(check bool) "duplicate rejected" false (F.insert t 7 2);
  Alcotest.(check (option int)) "value unchanged" (Some 1) (F.find t 7)

let test_update () =
  let t = single () in
  ignore (F.insert t 5 50);
  Alcotest.(check bool) "update hits" true (F.update t 5 55);
  Alcotest.(check (option int)) "updated value" (Some 55) (F.find t 5);
  Alcotest.(check bool) "update miss" false (F.update t 6 66);
  Alcotest.(check int) "count stable under update" 1 (F.count t)

let test_delete () =
  let t = single () in
  ignore (F.insert t 1 10);
  ignore (F.insert t 2 20);
  Alcotest.(check bool) "delete hits" true (F.delete t 1);
  Alcotest.(check (option int)) "deleted gone" None (F.find t 1);
  Alcotest.(check (option int)) "other survives" (Some 20) (F.find t 2);
  Alcotest.(check bool) "delete again misses" false (F.delete t 1);
  Alcotest.(check int) "count" 1 (F.count t)

let test_splits_many_keys () =
  let t = single ~m:4 () in
  let n = 500 in
  for i = 1 to n do
    Alcotest.(check bool) (Printf.sprintf "insert %d" i) true (F.insert t i (i * 2))
  done;
  F.check_invariants t;
  for i = 1 to n do
    Alcotest.(check (option int)) (Printf.sprintf "find %d" i) (Some (i * 2))
      (F.find t i)
  done;
  Alcotest.(check int) "count" n (F.count t);
  Alcotest.(check bool) "splits happened" true ((F.stats t).Tree.leaf_splits > 0)

let test_random_order_inserts () =
  let t = single ~m:8 () in
  let keys = Array.init 400 (fun i -> i * 7) in
  (* deterministic shuffle *)
  let rng = Random.State.make [| 4242 |] in
  for i = Array.length keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- tmp
  done;
  Array.iter (fun k -> ignore (F.insert t k (k + 1))) keys;
  F.check_invariants t;
  Array.iter
    (fun k -> Alcotest.(check (option int)) "find" (Some (k + 1)) (F.find t k))
    keys

let test_descending_inserts () =
  let t = single ~m:4 () in
  for i = 300 downto 1 do
    ignore (F.insert t i i)
  done;
  F.check_invariants t;
  Alcotest.(check int) "count" 300 (F.count t);
  Alcotest.(check (option int)) "min" (Some 1) (F.find t 1);
  Alcotest.(check (option int)) "max" (Some 300) (F.find t 300)

let test_delete_emptying_leaves () =
  let t = single ~m:4 () in
  for i = 1 to 200 do
    ignore (F.insert t i i)
  done;
  for i = 1 to 200 do
    Alcotest.(check bool) (Printf.sprintf "delete %d" i) true (F.delete t i)
  done;
  Alcotest.(check int) "empty after deleting all" 0 (F.count t);
  Alcotest.(check bool) "leaf deletions happened" true
    ((F.stats t).Tree.leaf_deletes > 0);
  (* tree still usable *)
  ignore (F.insert t 42 4242);
  Alcotest.(check (option int)) "reusable" (Some 4242) (F.find t 42)

let test_delete_reverse_order () =
  let t = single ~m:4 () in
  for i = 1 to 200 do
    ignore (F.insert t i i)
  done;
  for i = 200 downto 1 do
    Alcotest.(check bool) "delete" true (F.delete t i)
  done;
  Alcotest.(check int) "empty" 0 (F.count t);
  F.check_invariants t

let test_range () =
  let t = single ~m:4 () in
  for i = 0 to 99 do
    ignore (F.insert t (i * 2) i)
  done;
  let r = F.range t ~lo:10 ~hi:20 in
  Alcotest.(check (list (pair int int))) "range [10,20]"
    [ (10, 5); (12, 6); (14, 7); (16, 8); (18, 9); (20, 10) ]
    r;
  Alcotest.(check (list (pair int int))) "empty range" [] (F.range t ~lo:21 ~hi:21);
  Alcotest.(check int) "full range" 100 (List.length (F.range t ~lo:0 ~hi:1000));
  Alcotest.(check (list (pair int int))) "inverted range" [] (F.range t ~lo:5 ~hi:1)

let test_recovery_rebuilds_inner () =
  let a = fresh_alloc () in
  let t = F.create_single ~m:8 a in
  for i = 1 to 300 do
    ignore (F.insert t i (i * 3))
  done;
  (* clean restart: rebuild from SCM *)
  let a2 = Pmem.Palloc.of_region (Pmem.Palloc.region a) in
  let t2 = F.recover a2 in
  F.check_invariants t2;
  Alcotest.(check int) "count preserved" 300 (F.count t2);
  for i = 1 to 300 do
    Alcotest.(check (option int)) "find after recovery" (Some (i * 3)) (F.find t2 i)
  done;
  (* still writable after recovery *)
  ignore (F.insert t2 1000 1);
  Alcotest.(check (option int)) "insert after recovery" (Some 1) (F.find t2 1000)

let test_recovery_after_deletes () =
  let a = fresh_alloc () in
  let t = F.create_single ~m:4 a in
  for i = 1 to 100 do
    ignore (F.insert t i i)
  done;
  for i = 1 to 50 do
    ignore (F.delete t (i * 2))
  done;
  let t2 = F.recover (Pmem.Palloc.of_region (Pmem.Palloc.region a)) in
  F.check_invariants t2;
  Alcotest.(check int) "count" 50 (F.count t2);
  Alcotest.(check (option int)) "odd key present" (Some 1) (F.find t2 1);
  Alcotest.(check (option int)) "even key gone" None (F.find t2 2)

let test_no_leaks_after_churn () =
  let a = fresh_alloc () in
  let t = F.create_single ~m:4 a in
  for i = 1 to 300 do
    ignore (F.insert t i i)
  done;
  for i = 1 to 150 do
    ignore (F.delete t i)
  done;
  let leaks = Pmem.Palloc.leaked_blocks a ~reachable:(F.reachable_blocks t) in
  Alcotest.(check (list int)) "no persistent leaks" [] leaks

let test_concurrent_config_no_groups () =
  let a = fresh_alloc () in
  let t = F.create_concurrent ~m:8 a in
  for i = 1 to 300 do
    ignore (F.insert t i i)
  done;
  for i = 1 to 100 do
    ignore (F.delete t i)
  done;
  F.check_invariants t;
  Alcotest.(check int) "count" 200 (F.count t);
  let leaks = Pmem.Palloc.leaked_blocks a ~reachable:(F.reachable_blocks t) in
  Alcotest.(check (list int)) "no leaks without groups" [] leaks

(* A range stops right after the leaf covering [hi] instead of reading
   one leaf past it, so with [hi] strictly inside a leaf E that is not
   the last one, the scan's SCM line reads do not depend on how full
   E's successor is.  Sequential keys 0, 10, .., 990 at the default
   m = 56 leave three leaves: [0, 270], E = [280, 550] and S =
   [560, 990].  S then keeps three keys, or is refilled to 52 with keys
   above 550 (they all route to S, so E never splits). *)
let test_range_stops_at_end_leaf () =
  let lines_with ~s_fill =
    let t = F.create_single (fresh_alloc ()) in
    for i = 0 to 99 do
      ignore (F.insert t (i * 10) i)
    done;
    for i = 59 to 99 do
      ignore (F.delete t (i * 10))
    done;
    for i = 0 to s_fill - 1 do
      ignore (F.insert t (591 + (10 * i)) i)
    done;
    Alcotest.(check int) "three leaves" 3 (F.leaf_count t);
    Alcotest.(check int) "S holds 3 + fill keys" (59 + s_fill) (F.count t);
    (* a flush evicts its line from the simulated cache: the scan
       starts cold, so every line it touches counts *)
    Scm.Region.persist_all (Pmem.Palloc.region (F.alloc t));
    Scm.Stats.reset ();
    let r = F.range t ~lo:300 ~hi:405 in
    let lines = (Scm.Stats.snapshot ()).Scm.Stats.line_reads in
    Alcotest.(check (list (pair int int))) "range [300, 405]"
      (List.init 11 (fun j -> (300 + (10 * j), 30 + j)))
      r;
    lines
  in
  let few = lines_with ~s_fill:0 and full = lines_with ~s_fill:49 in
  Alcotest.(check bool) (Printf.sprintf "scan counted (%d lines)" few) true (few > 0);
  Alcotest.(check int) "line reads independent of the successor's fill" few full

let test_group_recycling () =
  (* Leaf groups: deleting a whole key range must eventually free a
     group and reuse its leaves. *)
  let a = fresh_alloc () in
  let t = F.create_single ~m:4 a in
  for i = 1 to 400 do
    ignore (F.insert t i i)
  done;
  let before = Pmem.Palloc.live_bytes a in
  for i = 1 to 400 do
    ignore (F.delete t i)
  done;
  let after = Pmem.Palloc.live_bytes a in
  Alcotest.(check bool) "groups were deallocated" true (after < before);
  for i = 1 to 400 do
    ignore (F.insert t i i)
  done;
  F.check_invariants t;
  Alcotest.(check int) "count after refill" 400 (F.count t)

let test_fingerprints_reduce_probes () =
  let mk config =
    let a = fresh_alloc () in
    let t = F.create ~config a in
    for i = 1 to 2000 do
      ignore (F.insert t i i)
    done;
    F.reset_stats t;
    for i = 1 to 2000 do
      ignore (F.find t i)
    done;
    (F.stats t).Tree.key_probes
  in
  let with_fp = mk { Tree.fptree_config with Tree.m = 56 } in
  let without_fp =
    mk { Tree.fptree_config with Tree.m = 56; Tree.fingerprints = false }
  in
  Alcotest.(check bool)
    (Printf.sprintf "fingerprints cut probes (%d vs %d)" with_fp without_fp)
    true
    (with_fp * 4 < without_fp);
  (* close to the theoretical expectation of ~1 probe per find *)
  Alcotest.(check bool) "about one probe per find" true (with_fp < 2 * 2000)

let test_payload_bytes_persisted () =
  let a = fresh_alloc () in
  let t = F.create_single ~m:8 ~value_bytes:112 a in
  for i = 1 to 50 do
    ignore (F.insert t i i)
  done;
  Alcotest.(check (option int)) "value intact with payload" (Some 7) (F.find t 7);
  let t2 = F.recover (Pmem.Palloc.of_region (Pmem.Palloc.region a)) in
  Alcotest.(check int) "recovered with payload" 50 (F.count t2)

let test_negative_and_boundary_keys () =
  let t = single ~m:4 () in
  let keys = [ min_int + 1; -1000; -1; 0; 1; 1000; max_int ] in
  List.iter (fun k -> ignore (F.insert t k (k land 0xff))) keys;
  List.iter
    (fun k ->
      Alcotest.(check (option int)) "boundary key" (Some (k land 0xff)) (F.find t k))
    keys;
  F.check_invariants t

let test_dram_scm_accounting () =
  let a = fresh_alloc () in
  let t = F.create_single ~m:56 a in
  (* Large enough that the eagerly-sized inner root amortizes, as in
     the paper (< 3% of the tree in DRAM at 100M keys; we accept < 10%
     at this scale). *)
  for i = 1 to 100_000 do
    ignore (F.insert t i i)
  done;
  let scm = F.scm_bytes t in
  let dram = F.dram_bytes t in
  Alcotest.(check bool) "SCM dominates" true (scm > dram);
  Alcotest.(check bool)
    (Printf.sprintf "DRAM is a small fraction (scm=%d dram=%d)" scm dram)
    true
    (float_of_int dram /. float_of_int (scm + dram) < 0.10)

(* ---- model-based property tests ---- *)

type op = Insert of int * int | Delete of int | Update of int * int | Find of int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun k v -> Insert (k, v)) (int_bound 200) (int_bound 10000));
        (2, map (fun k -> Delete k) (int_bound 200));
        (2, map2 (fun k v -> Update (k, v)) (int_bound 200) (int_bound 10000));
        (2, map (fun k -> Find k) (int_bound 200));
      ])

let op_print = function
  | Insert (k, v) -> Printf.sprintf "Insert(%d,%d)" k v
  | Delete k -> Printf.sprintf "Delete(%d)" k
  | Update (k, v) -> Printf.sprintf "Update(%d,%d)" k v
  | Find k -> Printf.sprintf "Find(%d)" k

let apply_model m = function
  | Insert (k, v) -> if Hashtbl.mem m k then () else Hashtbl.replace m k v
  | Delete k -> Hashtbl.remove m k
  | Update (k, v) -> if Hashtbl.mem m k then Hashtbl.replace m k v
  | Find _ -> ()

let check_against_model t m =
  let ok = ref true in
  Hashtbl.iter (fun k v -> if F.find t k <> Some v then ok := false) m;
  for k = 0 to 200 do
    match F.find t k with
    | Some v -> if Hashtbl.find_opt m k <> Some v then ok := false
    | None -> if Hashtbl.mem m k then ok := false
  done;
  !ok && F.count t = Hashtbl.length m

let qcheck_model ~use_groups name =
  QCheck.Test.make ~name ~count:60
    (QCheck.make ~print:(fun l -> String.concat ";" (List.map op_print l))
       (QCheck.Gen.list_size (QCheck.Gen.return 300) op_gen))
    (fun ops ->
      let a = fresh_alloc () in
      let cfg = { Tree.fptree_config with Tree.m = 4; Tree.use_groups } in
      let t = F.create ~config:cfg a in
      let m = Hashtbl.create 64 in
      List.iter
        (fun op ->
          (match op with
          | Insert (k, v) -> ignore (F.insert t k v)
          | Delete k -> ignore (F.delete t k)
          | Update (k, v) -> ignore (F.update t k v)
          | Find k -> ignore (F.find t k));
          apply_model m op)
        ops;
      F.check_invariants t;
      check_against_model t m)

let qcheck_model_survives_recovery =
  QCheck.Test.make ~name:"model equivalence after clean recovery" ~count:30
    (QCheck.make ~print:(fun l -> String.concat ";" (List.map op_print l))
       (QCheck.Gen.list_size (QCheck.Gen.return 200) op_gen))
    (fun ops ->
      let a = fresh_alloc () in
      let t = F.create ~config:{ Tree.fptree_config with Tree.m = 4 } a in
      let m = Hashtbl.create 64 in
      List.iter
        (fun op ->
          (match op with
          | Insert (k, v) -> ignore (F.insert t k v)
          | Delete k -> ignore (F.delete t k)
          | Update (k, v) -> ignore (F.update t k v)
          | Find k -> ignore (F.find t k));
          apply_model m op)
        ops;
      let t2 = F.recover (Pmem.Palloc.of_region (Pmem.Palloc.region a)) in
      F.check_invariants t2;
      check_against_model t2 m)

let qcheck_range_matches_model =
  QCheck.Test.make ~name:"range scan equals model filter" ~count:50
    QCheck.(pair (list (pair (int_bound 300) (int_bound 1000)))
              (pair (int_bound 300) (int_bound 300)))
    (fun (kvs, (a, b)) ->
      let lo = min a b and hi = max a b in
      let al = fresh_alloc () in
      let t = F.create ~config:{ Tree.fptree_config with Tree.m = 4 } al in
      let m = Hashtbl.create 64 in
      List.iter
        (fun (k, v) -> if F.insert t k v then Hashtbl.replace m k v)
        kvs;
      let expect =
        Hashtbl.fold (fun k v acc -> if k >= lo && k <= hi then (k, v) :: acc else acc) m []
        |> List.sort compare
      in
      F.range t ~lo ~hi = expect)

let () =
  Alcotest.run "fptree-fixed"
    [
      ( "basic",
        [
          Alcotest.test_case "empty tree" `Quick test_empty;
          Alcotest.test_case "insert/find" `Quick test_insert_find;
          Alcotest.test_case "duplicate insert" `Quick test_duplicate_insert;
          Alcotest.test_case "update" `Quick test_update;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "boundary keys" `Quick test_negative_and_boundary_keys;
        ] );
      ( "structure",
        [
          Alcotest.test_case "many keys with splits" `Quick test_splits_many_keys;
          Alcotest.test_case "random-order inserts" `Quick test_random_order_inserts;
          Alcotest.test_case "descending inserts" `Quick test_descending_inserts;
          Alcotest.test_case "deletes empty leaves" `Quick test_delete_emptying_leaves;
          Alcotest.test_case "reverse-order deletes" `Quick test_delete_reverse_order;
          Alcotest.test_case "range scans" `Quick test_range;
          Alcotest.test_case "range stops at the end leaf" `Quick
            test_range_stops_at_end_leaf;
          Alcotest.test_case "group recycling" `Quick test_group_recycling;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "rebuilds inner nodes" `Quick test_recovery_rebuilds_inner;
          Alcotest.test_case "after deletes" `Quick test_recovery_after_deletes;
          Alcotest.test_case "no leaks after churn" `Quick test_no_leaks_after_churn;
          Alcotest.test_case "concurrent config (no groups)" `Quick
            test_concurrent_config_no_groups;
        ] );
      ( "design-properties",
        [
          Alcotest.test_case "fingerprints reduce probes" `Quick
            test_fingerprints_reduce_probes;
          Alcotest.test_case "payload bytes persisted" `Quick test_payload_bytes_persisted;
          Alcotest.test_case "DRAM/SCM accounting" `Quick test_dram_scm_accounting;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest (qcheck_model ~use_groups:true
            "model equivalence (groups)");
          QCheck_alcotest.to_alcotest (qcheck_model ~use_groups:false
            "model equivalence (no groups)");
          QCheck_alcotest.to_alcotest qcheck_model_survives_recovery;
          QCheck_alcotest.to_alcotest qcheck_range_matches_model;
        ] );
    ]
