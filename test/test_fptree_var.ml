(* Tests of the variable-size (string) key FPTree: out-of-line key
   blocks, the update-by-reference optimization, key deallocation, and
   the leak audit of Algorithm 17. *)

module V = Fptree.Var
module Tree = Fptree.Tree

let fresh_alloc ?(size = 32 * 1024 * 1024) () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Pmem.Palloc.create ~size ()

let single ?(m = 8) () =
  let a = fresh_alloc () in
  (a, V.create_single ~m a)

let key i = Printf.sprintf "key-%06d" i

let test_insert_find () =
  let _, t = single () in
  Alcotest.(check bool) "insert" true (V.insert t "alpha" 1);
  Alcotest.(check bool) "insert" true (V.insert t "beta" 2);
  Alcotest.(check (option int)) "find alpha" (Some 1) (V.find t "alpha");
  Alcotest.(check (option int)) "find beta" (Some 2) (V.find t "beta");
  Alcotest.(check (option int)) "missing" None (V.find t "gamma");
  Alcotest.(check bool) "duplicate" false (V.insert t "alpha" 9);
  Alcotest.(check (option int)) "unchanged" (Some 1) (V.find t "alpha")

let test_lexicographic_order () =
  let _, t = single ~m:4 () in
  List.iter (fun k -> ignore (V.insert t k 0)) [ "b"; "ab"; "a"; "ba"; "aa"; "bb" ];
  let r = V.range t ~lo:"a" ~hi:"b" in
  Alcotest.(check (list string)) "range is lexicographic"
    [ "a"; "aa"; "ab"; "b" ]
    (List.map fst r)

let test_long_and_short_keys () =
  let _, t = single ~m:4 () in
  let long = String.make 1000 'x' in
  ignore (V.insert t "s" 1);
  ignore (V.insert t long 2);
  Alcotest.(check (option int)) "1-char key" (Some 1) (V.find t "s");
  Alcotest.(check (option int)) "1000-char key" (Some 2) (V.find t long);
  Alcotest.check_raises "empty key rejected"
    (Invalid_argument "Var key length must be in [1, 4096]") (fun () ->
      ignore (V.insert t "" 3))

let test_many_keys_with_splits () =
  let _, t = single ~m:4 () in
  for i = 1 to 400 do
    ignore (V.insert t (key i) i)
  done;
  V.check_invariants t;
  for i = 1 to 400 do
    Alcotest.(check (option int)) "find" (Some i) (V.find t (key i))
  done;
  Alcotest.(check int) "count" 400 (V.count t)

let test_update_reuses_key_block () =
  let a, t = single () in
  ignore (V.insert t "k" 1);
  let allocs_before = Pmem.Palloc.alloc_count a in
  Alcotest.(check bool) "update" true (V.update t "k" 2);
  Alcotest.(check (option int)) "new value" (Some 2) (V.find t "k");
  Alcotest.(check int) "no allocation on update (key block reused)"
    allocs_before (Pmem.Palloc.alloc_count a)

(* An update on a full leaf splits it first and then writes the entry
   into whichever half holds the key, moving the old key block's
   pointer there: the split's new leaf is the one allocation, and no
   key block is freed.  Keys in both halves, on the concurrent
   configuration (a leaf per split, no groups). *)
let test_update_split_reuses_key_block () =
  List.iter
    (fun i ->
      let a = fresh_alloc () in
      let t = V.create_concurrent ~m:8 a in
      for j = 0 to 7 do
        ignore (V.insert t (key j) j)
      done;
      Alcotest.(check int) "one full leaf" 1 (V.leaf_count t);
      let allocs = Pmem.Palloc.alloc_count a and frees = Pmem.Palloc.free_count a in
      Alcotest.(check bool) "update" true (V.update t (key i) 100);
      Alcotest.(check int) "the update split" 2 (V.leaf_count t);
      Alcotest.(check int) "one allocation: the new leaf" (allocs + 1)
        (Pmem.Palloc.alloc_count a);
      Alcotest.(check int) "no key block freed" frees (Pmem.Palloc.free_count a);
      Alcotest.(check (option int)) "new value" (Some 100) (V.find t (key i));
      V.check_invariants t;
      Alcotest.(check (list int)) "no leaks" []
        (Pmem.Palloc.leaked_blocks a ~reachable:(V.reachable_blocks t)))
    [ 0; 7 ]

let test_delete_frees_key_block () =
  let a, t = single () in
  ignore (V.insert t "k1" 1);
  ignore (V.insert t "k2" 2);
  let frees_before = Pmem.Palloc.free_count a in
  Alcotest.(check bool) "delete" true (V.delete t "k1");
  Alcotest.(check bool) "key block deallocated" true
    (Pmem.Palloc.free_count a > frees_before);
  Alcotest.(check (option int)) "gone" None (V.find t "k1");
  let leaks = Pmem.Palloc.leaked_blocks a ~reachable:(V.reachable_blocks t) in
  Alcotest.(check (list int)) "no leaks" [] leaks

let test_churn_no_leaks () =
  let a, t = single ~m:4 () in
  for round = 0 to 4 do
    for i = 1 to 200 do
      ignore (V.insert t (key ((round * 200) + i)) i)
    done;
    for i = 1 to 200 do
      if i mod 2 = 0 then ignore (V.delete t (key ((round * 200) + i)))
    done;
    for i = 1 to 200 do
      if i mod 4 = 1 then ignore (V.update t (key ((round * 200) + i)) (i * 10))
    done
  done;
  V.check_invariants t;
  let leaks = Pmem.Palloc.leaked_blocks a ~reachable:(V.reachable_blocks t) in
  Alcotest.(check (list int)) "no leaks after heavy churn" [] leaks

let test_recovery () =
  let a, t = single ~m:4 () in
  for i = 1 to 300 do
    ignore (V.insert t (key i) i)
  done;
  for i = 1 to 100 do
    ignore (V.delete t (key i))
  done;
  let t2 = V.recover (Pmem.Palloc.of_region (Pmem.Palloc.region a)) in
  V.check_invariants t2;
  Alcotest.(check int) "count preserved" 200 (V.count t2);
  Alcotest.(check (option int)) "survivor" (Some 101) (V.find t2 (key 101));
  Alcotest.(check (option int)) "deleted" None (V.find t2 (key 1));
  ignore (V.insert t2 "fresh" 42);
  Alcotest.(check (option int)) "writable after recovery" (Some 42)
    (V.find t2 "fresh")

let test_recovery_leak_audit_insert () =
  (* Sweep crash points through a var-key insert; whatever the crash
     point, recovery (Algorithm 17's audit) must leave no leaked key
     block, the insert is atomic and the anchor key intact. *)
  let module E = Pmcheck.Enumerate in
  let r =
    E.Var.sweep_crash_states
      ~config:{ V.var_single_config with Tree.m = 4 }
      ~setup:[ E.Ins ("anchor", 1) ] [ E.Ins ("leaky", 2) ]
  in
  Alcotest.(check bool) "swept multiple crash points" true (r.E.crash_points > 2)

(* model-based property test over string keys *)
let qcheck_model =
  let keypool = Array.init 60 (fun i -> Printf.sprintf "k%02d" i) in
  QCheck.Test.make ~name:"var-key model equivalence" ~count:40
    QCheck.(list (pair (int_bound 59) (int_bound 3)))
    (fun ops ->
      Scm.Registry.clear ();
      Scm.Config.reset ();
      let a = Pmem.Palloc.create ~size:(32 * 1024 * 1024) () in
      let t = V.create_single ~m:4 a in
      let m = Hashtbl.create 64 in
      List.iteri
        (fun i (ki, op) ->
          let k = keypool.(ki) in
          match op with
          | 0 -> if V.insert t k i then Hashtbl.replace m k i
          | 1 -> if V.delete t k then Hashtbl.remove m k
          | 2 -> if V.update t k (i * 7) then Hashtbl.replace m k (i * 7)
          | _ -> ignore (V.find t k))
        ops;
      V.check_invariants t;
      let ok = ref (V.count t = Hashtbl.length m) in
      Array.iter
        (fun k -> if V.find t k <> Hashtbl.find_opt m k then ok := false)
        keypool;
      !ok
      && Pmem.Palloc.leaked_blocks a ~reachable:(V.reachable_blocks t) = [])

(* Range scans over string keys that share prefixes (1-char keys
   included), inserted in random order into m = 4 leaves so a range
   crosses several unsorted leaves: the result must be the model's
   pairs in [lo, hi], in String.compare order. *)
let qcheck_range_matches_model =
  let key_gen =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_range 1 5))
  in
  QCheck.Test.make ~name:"var-key range scan equals model filter" ~count:50
    (QCheck.make
       ~print:QCheck.Print.(pair (list (pair string int)) (pair string string))
       QCheck.Gen.(
         pair
           (list_size (int_range 0 150) (pair key_gen small_nat))
           (pair key_gen key_gen)))
    (fun (kvs, (a, b)) ->
      let lo, hi = if String.compare a b <= 0 then (a, b) else (b, a) in
      let t = V.create_single ~m:4 (fresh_alloc ~size:(4 * 1024 * 1024) ()) in
      let m = Hashtbl.create 64 in
      List.iter (fun (k, v) -> if V.insert t k v then Hashtbl.replace m k v) kvs;
      let expect =
        Hashtbl.fold
          (fun k v acc ->
            if String.compare lo k <= 0 && String.compare k hi <= 0 then
              (k, v) :: acc
            else acc)
          m []
        |> List.sort (fun (x, _) (y, _) -> String.compare x y)
      in
      V.range t ~lo ~hi = expect)

let () =
  Alcotest.run "fptree-var"
    [
      ( "basic",
        [
          Alcotest.test_case "insert/find" `Quick test_insert_find;
          Alcotest.test_case "lexicographic order" `Quick test_lexicographic_order;
          Alcotest.test_case "long and short keys" `Quick test_long_and_short_keys;
          Alcotest.test_case "many keys with splits" `Quick test_many_keys_with_splits;
        ] );
      ( "key-blocks",
        [
          Alcotest.test_case "update reuses key block" `Quick
            test_update_reuses_key_block;
          Alcotest.test_case "update on a full leaf reuses the key block" `Quick
            test_update_split_reuses_key_block;
          Alcotest.test_case "delete frees key block" `Quick
            test_delete_frees_key_block;
          Alcotest.test_case "churn leaves no leaks" `Quick test_churn_no_leaks;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "basic recovery" `Quick test_recovery;
          Alcotest.test_case "leak audit across insert crash points" `Quick
            test_recovery_leak_audit_insert;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_model;
          QCheck_alcotest.to_alcotest qcheck_range_matches_model;
        ] );
    ]
