(* Functional tests of the three baseline trees the paper compares
   against: STXTree (transient), NV-Tree, and wBTree — each checked
   against the same model-based harness as the FPTree, plus the
   structural behaviours the paper attributes to them. *)

module Stx = Baselines.Stxtree.Fixed
module StxV = Baselines.Stxtree.Var
module Nv = Baselines.Nvtree.Fixed
module NvV = Baselines.Nvtree.Var
module Wb = Baselines.Wbtree.Fixed
module WbV = Baselines.Wbtree.Var

let fresh_alloc ?(size = 64 * 1024 * 1024) () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Pmem.Palloc.create ~size ()

(* generic battery run against any FIXED tree *)
let battery (type t) insert find update delete range count (tree : t) =
  for i = 1 to 800 do
    if not (insert tree (i * 3) i) then Alcotest.failf "insert %d" i
  done;
  Alcotest.(check bool) "duplicate refused" false (insert tree 3 99);
  Alcotest.(check int) "count" 800 (count tree);
  for i = 1 to 800 do
    if find tree (i * 3) <> Some i then Alcotest.failf "find %d" (i * 3)
  done;
  Alcotest.(check (option int)) "miss" None (find tree 4);
  Alcotest.(check bool) "update" true (update tree 30 555);
  Alcotest.(check (option int)) "updated" (Some 555) (find tree 30);
  Alcotest.(check bool) "update miss" false (update tree 31 1);
  let r = range tree 30 45 in
  Alcotest.(check (list (pair int int))) "range"
    [ (30, 555); (33, 11); (36, 12); (39, 13); (42, 14); (45, 15) ]
    r;
  for i = 1 to 400 do
    if not (delete tree (i * 3)) then Alcotest.failf "delete %d" (i * 3)
  done;
  Alcotest.(check bool) "delete twice" false (delete tree 3);
  Alcotest.(check int) "count after deletes" 400 (count tree);
  Alcotest.(check (option int)) "survivor" (Some 500) (find tree 1500)

let test_stx_battery () =
  let t = Stx.create ~leaf_cap:8 ~inner_cap:8 () in
  battery Stx.insert Stx.find Stx.update Stx.delete
    (fun t lo hi -> Stx.range t ~lo ~hi) Stx.count t

let test_nv_battery () =
  let a = fresh_alloc () in
  let t = Nv.create ~cap:16 ~pln_cap:8 a in
  battery Nv.insert Nv.find Nv.update Nv.delete
    (fun t lo hi -> Nv.range t ~lo ~hi) Nv.count t

let test_wb_battery () =
  let a = fresh_alloc () in
  let t = Wb.create ~leaf_m:8 ~inner_m:8 a in
  battery Wb.insert Wb.find Wb.update Wb.delete
    (fun t lo hi -> Wb.range t ~lo ~hi) Wb.count t

let test_stx_var () =
  let t = StxV.create ~leaf_cap:8 ~inner_cap:8 () in
  for i = 1 to 300 do
    ignore (StxV.insert t (Printf.sprintf "s%05d" i) i)
  done;
  Alcotest.(check (option int)) "find" (Some 42) (StxV.find t "s00042");
  Alcotest.(check int) "count" 300 (StxV.count t)

let test_nv_var () =
  let a = fresh_alloc () in
  let t = NvV.create ~cap:16 ~pln_cap:8 a in
  for i = 1 to 300 do
    ignore (NvV.insert t (Printf.sprintf "n%05d" i) i)
  done;
  Alcotest.(check (option int)) "find" (Some 42) (NvV.find t "n00042");
  ignore (NvV.delete t "n00042");
  Alcotest.(check (option int)) "deleted" None (NvV.find t "n00042");
  Alcotest.(check int) "count" 299 (NvV.count t)

let test_wb_var () =
  let a = fresh_alloc () in
  let t = WbV.create ~leaf_m:8 ~inner_m:8 a in
  for i = 1 to 300 do
    ignore (WbV.insert t (Printf.sprintf "w%05d" i) i)
  done;
  Alcotest.(check (option int)) "find" (Some 42) (WbV.find t "w00042");
  ignore (WbV.delete t "w00042");
  Alcotest.(check (option int)) "deleted" None (WbV.find t "w00042");
  Alcotest.(check int) "count" 299 (WbV.count t)

(* --- paper-attributed behaviours --- *)

let test_nv_append_only_semantics () =
  let a = fresh_alloc () in
  let t = Nv.create ~cap:8 ~pln_cap:8 a in
  ignore (Nv.insert t 1 10);
  ignore (Nv.update t 1 20);
  ignore (Nv.update t 1 30);
  (* three versions appended; reverse scan returns the newest *)
  Alcotest.(check (option int)) "latest version wins" (Some 30) (Nv.find t 1);
  ignore (Nv.delete t 1);
  Alcotest.(check (option int)) "tombstone wins" None (Nv.find t 1);
  Alcotest.(check int) "count sees liveness" 0 (Nv.count t);
  (* fill to force compaction/split; all live values must survive *)
  for i = 2 to 40 do
    ignore (Nv.insert t i i)
  done;
  Alcotest.(check int) "count after splits" 39 (Nv.count t);
  for i = 2 to 40 do
    if Nv.find t i <> Some i then Alcotest.failf "lost %d in split" i
  done

let test_nv_rebuild_on_pln_overflow () =
  let a = fresh_alloc () in
  let t = Nv.create ~cap:4 ~pln_cap:4 a in
  for i = 1 to 400 do
    ignore (Nv.insert t i i)
  done;
  Alcotest.(check bool) "inner rebuilds happened" true (Nv.rebuild_count t > 0);
  Alcotest.(check int) "all present" 400 (Nv.count t)

let test_nv_recovery () =
  let a = fresh_alloc () in
  let t = Nv.create ~cap:8 ~pln_cap:8 a in
  for i = 1 to 200 do
    ignore (Nv.insert t i (i * 2))
  done;
  for i = 1 to 50 do
    ignore (Nv.delete t i)
  done;
  let t2 = Nv.recover ~cap:8 ~pln_cap:8 (Pmem.Palloc.of_region (Pmem.Palloc.region a)) in
  Alcotest.(check int) "count after recovery" 150 (Nv.count t2);
  Alcotest.(check (option int)) "survivor" (Some 200) (Nv.find t2 100);
  Alcotest.(check (option int)) "deleted stays deleted" None (Nv.find t2 10)

(* Inserters split leaves and, with a tiny PLN capacity, rebuild the
   whole directory while reader domains run [find] and [range] over a
   preloaded key set: every preloaded key must be found with its value,
   and every range must be sorted and hold every preloaded key in it. *)
let test_nv_concurrent () =
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_stats false;
  let a = Pmem.Palloc.create ~size:(256 * 1024 * 1024) () in
  let t = Nv.create ~cap:32 ~pln_cap:4 a in
  let n_domains = max 2 (min 4 (Domain.recommended_domain_count () - 1)) in
  let per = 2000 in
  (* preloaded keys are odd, inserted keys even *)
  let n_pre = 2000 in
  let pre i = (2 * i) + 1 in
  for i = 0 to n_pre - 1 do
    ignore (Nv.insert t (pre i) (i * 7))
  done;
  let rebuilds0 = Nv.rebuild_count t in
  let writing = Atomic.make n_domains in
  let ds =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore (Nv.insert t (2 * ((i * n_domains) + d)) i)
            done;
            Atomic.decr writing))
  in
  (* read until the writers finish, and at least [min_rounds] times *)
  let reader ~min_rounds f =
    Domain.spawn (fun () ->
        let rng = Random.State.make [| min_rounds |] in
        let errors = ref [] and round = ref 0 in
        while !errors = [] && (!round < min_rounds || Atomic.get writing > 0) do
          incr round;
          match f rng with None -> () | Some e -> errors := [ e ]
        done;
        !errors)
  in
  let finder =
    reader ~min_rounds:20_000 (fun rng ->
        let i = Random.State.int rng n_pre in
        match Nv.find t (pre i) with
        | Some v when v = i * 7 -> None
        | Some v -> Some (Printf.sprintf "find %d: value %d" (pre i) v)
        | None -> Some (Printf.sprintf "find %d: missing" (pre i)))
  in
  let ranger =
    reader ~min_rounds:500 (fun rng ->
        let i = Random.State.int rng n_pre in
        let j = min (n_pre - 1) (i + Random.State.int rng 64) in
        let r = Nv.range t ~lo:(pre i) ~hi:(pre j) in
        let keys = List.map fst r in
        if keys <> List.sort_uniq compare keys then
          Some (Printf.sprintf "range [%d, %d]: not sorted" (pre i) (pre j))
        else
          let rec missing x =
            if x > j then None
            else if List.assoc_opt (pre x) r <> Some (x * 7) then
              Some (Printf.sprintf "range [%d, %d]: lost %d" (pre i) (pre j) (pre x))
            else missing (x + 1)
          in
          missing i)
  in
  List.iter Domain.join ds;
  let errors = Domain.join finder @ Domain.join ranger in
  Alcotest.(check (list string)) "readers saw every preloaded key" [] errors;
  Alcotest.(check bool) "inserters rebuilt the directory" true
    (Nv.rebuild_count t > rebuilds0);
  Alcotest.(check int) "concurrent inserts all present"
    ((n_domains * per) + n_pre)
    (Nv.count t);
  for i = 0 to n_pre - 1 do
    if Nv.find t (pre i) <> Some (i * 7) then
      Alcotest.failf "preloaded key %d lost" (pre i)
  done

let test_wb_binary_search_probes () =
  let a = fresh_alloc () in
  let t = Wb.create ~leaf_m:64 ~inner_m:32 a in
  for i = 1 to 2000 do
    ignore (Wb.insert t i i)
  done;
  Wb.reset_probes t;
  for i = 1 to 2000 do
    ignore (Wb.find t i)
  done;
  let per_find = float_of_int (Wb.key_probes t) /. 2000. in
  (* binary search in leaf (log2 64 = 6) + inner levels; must be far
     below a linear scan of a 64-entry leaf (32) *)
  Alcotest.(check bool)
    (Printf.sprintf "log-ish probes per find (%.1f)" per_find)
    true (per_find < 20.)

let test_wb_recovery_is_instant () =
  let a = fresh_alloc () in
  let t = Wb.create ~leaf_m:8 ~inner_m:8 a in
  for i = 1 to 500 do
    ignore (Wb.insert t i i)
  done;
  Scm.Stats.reset ();
  let t2 = Wb.recover ~leaf_m:8 ~inner_m:8 (Pmem.Palloc.of_region (Pmem.Palloc.region a)) in
  let s = Scm.Stats.snapshot () in
  (* constant-time: recovery touches a handful of lines, independent of
     tree size *)
  Alcotest.(check bool)
    (Printf.sprintf "recovery touched %d lines" s.Scm.Stats.line_reads)
    true
    (s.Scm.Stats.line_reads < 50);
  Alcotest.(check int) "content intact" 500 (Wb.count t2);
  Alcotest.(check (option int)) "find after recover" (Some 250) (Wb.find t2 250)

let test_wb_slot_repair () =
  (* Sweep crash points through NON-SPLITTING inserts and deletes: the
     wBTree's commit story (bitmap is the commit word; the slot array
     is a repairable cache).  Structural (split) crash windows are out
     of scope: the original wBTree has no sound recovery there, which
     is exactly the critique the FPTree paper makes. *)
  let n = ref 1 in
  let continue = ref true in
  while !continue do
    Scm.Registry.clear ();
    Scm.Config.reset ();
    let a = fresh_alloc () in
    (* big leaves + few keys: no split can occur *)
    let t = Wb.create ~leaf_m:32 ~inner_m:8 a in
    for i = 1 to 10 do
      ignore (Wb.insert t i i)
    done;
    Scm.Config.schedule_crash_after !n;
    let crashed =
      try
        ignore (Wb.insert t 100 100);
        ignore (Wb.delete t 5);
        false
      with Scm.Config.Crash_injected -> true
    in
    Scm.Config.disarm_crash ();
    if crashed then begin
      Scm.Region.crash (Pmem.Palloc.region a);
      let t2 = Wb.recover ~leaf_m:32 ~inner_m:8
          (Pmem.Palloc.of_region (Pmem.Palloc.region a)) in
      Wb.verify_and_repair t2;
      (* all previously committed keys are intact; key 5 is present
         unless its delete committed; key 100 present only if its
         insert committed *)
      for i = 1 to 10 do
        if i <> 5 && Wb.find t2 i <> Some i then
          Alcotest.failf "crash@%d lost key %d" !n i
      done;
      (match Wb.find t2 100 with
      | Some v when v <> 100 -> Alcotest.failf "crash@%d torn insert" !n
      | _ -> ());
      incr n
    end
    else continue := false
  done;
  Alcotest.(check bool) "swept insert/delete crash points" true (!n > 4)

let test_wb_empty_root_leaf_keeps_list () =
  (* regression: emptying the last key when the tree has shrunk to a
     lone root leaf must NOT unlink that leaf from the leaf list (count
     and range walk the list from the head) *)
  let a = fresh_alloc () in
  let t = Wb.create ~leaf_m:4 ~inner_m:4 a in
  for i = 1 to 30 do
    ignore (Wb.insert t i i)
  done;
  for i = 1 to 30 do
    ignore (Wb.delete t i)
  done;
  Alcotest.(check int) "empty" 0 (Wb.count t);
  for i = 1 to 30 do
    ignore (Wb.insert t i (i * 2))
  done;
  Alcotest.(check int) "count sees reinserted keys" 30 (Wb.count t);
  Alcotest.(check int) "range walks the list" 30
    (List.length (Wb.range t ~lo:0 ~hi:100))

let test_wb_seeded_model_sweep () =
  (* the deterministic sweep that exposed the root-leaf regression *)
  for seed = 1 to 120 do
    Scm.Registry.clear ();
    Scm.Config.reset ();
    let rng = Random.State.make [| seed |] in
    let a = Pmem.Palloc.create ~size:(32 * 1024 * 1024) () in
    let t = Wb.create ~leaf_m:4 ~inner_m:4 a in
    let m = Hashtbl.create 64 in
    for i = 1 to 250 do
      let k = Random.State.int rng 150 in
      match Random.State.int rng 4 with
      | 0 -> if Wb.insert t k i then Hashtbl.replace m k i
      | 1 -> if Wb.delete t k then Hashtbl.remove m k
      | 2 -> if Wb.update t k (i * 3) then Hashtbl.replace m k (i * 3)
      | _ -> ignore (Wb.find t k)
    done;
    if Wb.count t <> Hashtbl.length m then
      Alcotest.failf "seed %d: count %d vs model %d" seed (Wb.count t)
        (Hashtbl.length m);
    for k = 0 to 150 do
      if Wb.find t k <> Hashtbl.find_opt m k then
        Alcotest.failf "seed %d: key %d diverged" seed k
    done
  done

let test_wb_scm_resident () =
  let a = fresh_alloc () in
  let t = Wb.create a in
  for i = 1 to 1000 do
    ignore (Wb.insert t i i)
  done;
  Alcotest.(check int) "no DRAM use" 0 (Wb.dram_bytes t);
  Alcotest.(check bool) "SCM use grows" true (Wb.scm_bytes t > 1000 * 16)

let test_stx_rebuild () =
  let t = Stx.create () in
  for i = 1 to 100 do
    ignore (Stx.insert t i i)
  done;
  let pairs = List.init 100 (fun i -> (i + 1, i + 1)) in
  let t2 = Stx.rebuild_from t pairs in
  Alcotest.(check int) "rebuilt" 100 (Stx.count t2);
  Alcotest.(check int) "scm free" 0 (Stx.scm_bytes t2);
  Alcotest.(check bool) "dram used" true (Stx.dram_bytes t2 > 0)

(* model-based property tests for each baseline *)
let qcheck_model name insert find update delete count mk =
  QCheck.Test.make ~name ~count:40
    QCheck.(list (pair (int_bound 150) (int_bound 3)))
    (fun ops ->
      let t = mk () in
      let m = Hashtbl.create 64 in
      List.iteri
        (fun i (k, op) ->
          match op with
          | 0 -> if insert t k i then Hashtbl.replace m k i
          | 1 -> if delete t k then Hashtbl.remove m k
          | 2 -> if update t k (i * 3) then Hashtbl.replace m k (i * 3)
          | _ -> ignore (find t k))
        ops;
      let ok = ref (count t = Hashtbl.length m) in
      for k = 0 to 150 do
        if find t k <> Hashtbl.find_opt m k then ok := false
      done;
      !ok)

let qcheck_stx =
  qcheck_model "stxtree model" Stx.insert Stx.find Stx.update Stx.delete
    Stx.count (fun () -> Stx.create ~leaf_cap:4 ~inner_cap:4 ())

let qcheck_nv =
  qcheck_model "nvtree model" Nv.insert Nv.find Nv.update Nv.delete Nv.count
    (fun () -> Nv.create ~cap:6 ~pln_cap:4 (fresh_alloc ()))

let qcheck_wb =
  qcheck_model "wbtree model" Wb.insert Wb.find Wb.update Wb.delete Wb.count
    (fun () -> Wb.create ~leaf_m:4 ~inner_m:4 (fresh_alloc ()))

(* Runtime counterpart of the trees' interfaces, which each include
   [Fptree.Tree_intf.S]: drive every tree, fixed- and variable-key, through the
   uniform [Fptree.Tree_intf.S] interface with one shared script, the
   way tree-agnostic benchmarks and integrations do.  Then fill a fresh
   1 MiB arena through [try_insert] until it refuses: no exception may
   escape, and every admitted pair must stay readable. *)
type packed =
  | P : {
      name : string;
      m : (module Fptree.Tree_intf.S with type t = 'a and type key = 'k);
      key : int -> 'k; (* order-preserving *)
      make : Pmem.Palloc.t -> 'a;
    }
      -> packed

let conformance_script (type a k) name
    (module M : Fptree.Tree_intf.S with type t = a and type key = k) key (t : a) =
  for i = 1 to 100 do
    if not (M.insert t (key i) (i * 7)) then Alcotest.failf "%s: insert %d" name i
  done;
  if M.try_insert t (key 1) 0 <> Ok false then Alcotest.failf "%s: try_insert dup" name;
  if M.count t <> 100 then Alcotest.failf "%s: count" name;
  if M.find t (key 42) <> Some (42 * 7) then Alcotest.failf "%s: find" name;
  if not (M.update t (key 42) 0) then Alcotest.failf "%s: update" name;
  if M.try_update t (key 101) 0 <> Ok false then Alcotest.failf "%s: try_update miss" name;
  if not (M.delete t (key 41)) then Alcotest.failf "%s: delete" name;
  if M.range t ~lo:(key 40) ~hi:(key 43) <> [ (key 40, 280); (key 42, 0); (key 43, 301) ]
  then Alcotest.failf "%s: range" name;
  if M.dram_bytes t < 0 || M.scm_bytes t < 0 then Alcotest.failf "%s: footprint" name;
  M.reset_probes t;
  if M.key_probes t <> 0 then Alcotest.failf "%s: reset_probes" name;
  (* speculative counters: an assoc list (possibly empty), and no
     tree reports aborts it never performed single-threaded *)
  List.iter
    (fun (k, v) ->
      if v <> 0 then Alcotest.failf "%s: nonzero %s single-threaded" name k)
    (M.htm_stats t)

(* A persistent tree spends at least 8 bytes of arena per key, so it
   must refuse before [limit] keys; the DRAM-only STXTree never does. *)
let exhaustion (type a k) name
    (module M : Fptree.Tree_intf.S with type t = a and type key = k) key (t : a) =
  let limit = 1 lsl 17 in
  let admitted = ref 0 and refused = ref false in
  while (not !refused) && !admitted < limit do
    let i = !admitted + 1 in
    match M.try_insert t (key i) i with
    | Ok true -> admitted := i
    | Ok false -> Alcotest.failf "%s: fresh key %d reported present" name i
    | Error `Out_of_space -> refused := true
    | exception e -> Alcotest.failf "%s: insert %d raised %s" name i (Printexc.to_string e)
  done;
  if (not !refused) && M.scm_bytes t > 0 then
    Alcotest.failf "%s: %d keys fit in a 1 MiB arena" name limit;
  for i = 1 to !admitted do
    if M.find t (key i) <> Some i then Alcotest.failf "%s: admitted key %d lost" name i
  done;
  Alcotest.(check int) (name ^ ": count after exhaustion") !admitted (M.count t)

let test_conformance_uniform_interface () =
  let fixed name m make = P { name; m; key = Fun.id; make } in
  let var name m make = P { name; m; key = Printf.sprintf "k%07d"; make } in
  let packs =
    [
      fixed "FPTree" (module Fptree.Fixed) (Fptree.Fixed.create_single ~m:8);
      fixed "FPTreeC" (module Fptree.Fixed) (Fptree.Fixed.create_concurrent ~m:8);
      fixed "PTree" (module Fptree.Ptree.Fixed) (Fptree.Ptree.Fixed.create ~m:8);
      fixed "STXTree" (module Stx) (fun _ -> Stx.create ~leaf_cap:8 ~inner_cap:8 ());
      fixed "NV-Tree" (module Nv) (Nv.create ~cap:16);
      fixed "wBTree" (module Wb) (Wb.create ~leaf_m:8);
      var "FPTreeVar" (module Fptree.Var) (Fptree.Var.create_single ~m:8);
      var "FPTreeCVar" (module Fptree.Var) (Fptree.Var.create_concurrent ~m:8);
      var "PTreeVar" (module Fptree.Ptree.Var) (Fptree.Ptree.Var.create ~m:8);
      var "STXTreeVar" (module StxV) (fun _ -> StxV.create ~leaf_cap:8 ~inner_cap:8 ());
      var "NV-TreeVar" (module NvV) (NvV.create ~cap:16);
      var "wBTreeVar" (module WbV) (WbV.create ~leaf_m:8);
    ]
  in
  List.iter
    (fun (P { name; m; key; make }) ->
      conformance_script name m key (make (fresh_alloc ~size:(8 lsl 20) ()));
      exhaustion name m key (make (fresh_alloc ~size:(1 lsl 20) ())))
    packs;
  Alcotest.(check int) "twelve trees conform" 12 (List.length packs)

let () =
  Alcotest.run "baselines"
    [
      ( "battery",
        [
          Alcotest.test_case "STXTree" `Quick test_stx_battery;
          Alcotest.test_case "NV-Tree" `Quick test_nv_battery;
          Alcotest.test_case "wBTree" `Quick test_wb_battery;
          Alcotest.test_case "STXTree var keys" `Quick test_stx_var;
          Alcotest.test_case "NV-Tree var keys" `Quick test_nv_var;
          Alcotest.test_case "wBTree var keys" `Quick test_wb_var;
        ] );
      ( "nvtree",
        [
          Alcotest.test_case "append-only semantics" `Quick test_nv_append_only_semantics;
          Alcotest.test_case "rebuild on PLN overflow" `Quick test_nv_rebuild_on_pln_overflow;
          Alcotest.test_case "recovery" `Quick test_nv_recovery;
          Alcotest.test_case "concurrent inserts" `Quick test_nv_concurrent;
        ] );
      ( "wbtree",
        [
          Alcotest.test_case "binary-search probes" `Quick test_wb_binary_search_probes;
          Alcotest.test_case "instant recovery" `Quick test_wb_recovery_is_instant;
          Alcotest.test_case "slot-array repair after crash" `Quick test_wb_slot_repair;
          Alcotest.test_case "empty root leaf keeps the list" `Quick
            test_wb_empty_root_leaf_keeps_list;
          Alcotest.test_case "seeded model sweep" `Quick test_wb_seeded_model_sweep;
          Alcotest.test_case "fully SCM-resident" `Quick test_wb_scm_resident;
        ] );
      ("stxtree", [ Alcotest.test_case "rebuild baseline" `Quick test_stx_rebuild ]);
      ( "conformance",
        [
          Alcotest.test_case "uniform interface" `Quick
            test_conformance_uniform_interface;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_stx;
          QCheck_alcotest.to_alcotest qcheck_nv;
          QCheck_alcotest.to_alcotest qcheck_wb;
        ] );
    ]
