(* Offline audit (fsck) tests: each error class — dangling link, double
   link, orphan, leak, header corruption, corrupt leaf — is injected
   into a live region, detected by [Fsck.check], repaired by
   [Fsck.check ~repair:true], and the repaired region must re-audit
   clean AND recover into a usable tree whose surviving keys still
   carry their original values (the differential half of salvage). *)

module F = Fptree.Fixed
module Tree = Fptree.Tree

let arena = 16 * 1024 * 1024

let cfg =
  { Tree.fptree_config with
    Tree.m = 8; Tree.inner_keys = 8; Tree.use_groups = false }

let cfg_groups =
  { Tree.fptree_config with
    Tree.m = 8; Tree.inner_keys = 8; Tree.use_groups = true;
    Tree.group_size = 2 }

let build ~config n =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  let a = Pmem.Palloc.create ~size:arena () in
  let t = F.create ~config a in
  for i = 1 to n do
    ignore (F.insert t i (i * 3))
  done;
  (a, t)

let chain_leaves t =
  let l = ref [] in
  F.iter_leaves t (fun x -> l := x :: !l);
  Array.of_list (List.rev !l)

let classes r = List.map (fun f -> f.Fsck.cls) r.Fsck.findings

let check_clean ?(msg = "re-audit clean") region =
  let r = Fsck.check region in
  Alcotest.(check (list string)) msg [] (classes r);
  r

(* Repair, then re-audit and re-recover: the region must be clean and
   the tree usable with every surviving key intact. *)
let repair_and_verify ~config ~n region =
  let r = Fsck.check ~repair:true region in
  Alcotest.(check bool) "repair acted" true (r.Fsck.repairs >= 1);
  Alcotest.(check int) "no unrepaired errors" 0
    (List.length (Fsck.errors r));
  let r2 = check_clean region in
  let t = F.recover ~config (Pmem.Palloc.of_region region) in
  F.check_invariants t;
  let surviving = ref 0 in
  for i = 1 to n do
    match F.find t i with
    | Some v ->
      incr surviving;
      if v <> i * 3 then Alcotest.failf "key %d has wrong value %d" i v
    | None -> ()
  done;
  Alcotest.(check int) "count matches surviving keys" !surviving (F.count t);
  Alcotest.(check bool) "usable after repair" true (F.insert t (n + 77) 1);
  r2

let test_clean_audit () =
  let a, t = build ~config:cfg 200 in
  let r = check_clean ~msg:"fresh tree audits clean" (Pmem.Palloc.region a) in
  Alcotest.(check int) "chain length" (F.leaf_count t) r.Fsck.chain_leaves;
  Alcotest.(check int) "keys" 200 r.Fsck.keys;
  (* groups mode too *)
  let a, t = build ~config:cfg_groups 200 in
  let r = check_clean ~msg:"groups tree audits clean" (Pmem.Palloc.region a) in
  Alcotest.(check int) "chain length (groups)" (F.leaf_count t)
    r.Fsck.chain_leaves

let test_dangling_link () =
  let a, t = build ~config:cfg 200 in
  let region = Pmem.Palloc.region a in
  let leaves = chain_leaves t in
  let mid = leaves.(Array.length leaves / 2) in
  Pmem.Pptr.write_committed region
    (mid + t.F.layout.Fptree.Layout.next_off)
    { Pmem.Pptr.region_id = Scm.Region.id region;
      off = Scm.Region.size region - 8 };
  let r = Fsck.check region in
  Alcotest.(check bool) "dangling-link detected" true
    (List.mem "dangling-link" (classes r));
  Alcotest.(check bool) "is an error" true (Fsck.errors r <> []);
  ignore (repair_and_verify ~config:cfg ~n:200 region)

let test_double_link () =
  let a, t = build ~config:cfg 200 in
  let region = Pmem.Palloc.region a in
  let leaves = chain_leaves t in
  (* close a cycle: a late leaf points back at an early one *)
  Pmem.Pptr.write_committed region
    (leaves.(Array.length leaves - 2) + t.F.layout.Fptree.Layout.next_off)
    (Pmem.Pptr.of_region region ~off:leaves.(1));
  let r = Fsck.check region in
  Alcotest.(check bool) "double-link detected" true
    (List.mem "double-link" (classes r));
  ignore (repair_and_verify ~config:cfg ~n:200 region)

let test_orphan_and_leak () =
  let a, t = build ~config:cfg 200 in
  let region = Pmem.Palloc.region a in
  (* a leaf-sized allocated block nothing references: an orphan … *)
  Pmem.Palloc.alloc a ~into:(Pmem.Pptr.Loc.make region 32)
    t.F.layout.Fptree.Layout.bytes;
  Pmem.Pptr.write region 32 Pmem.Pptr.null;
  Scm.Region.persist region 32 Pmem.Pptr.size_bytes;
  (* … and an odd-sized one: a leak *)
  Pmem.Palloc.alloc a ~into:(Pmem.Pptr.Loc.make region 32) 2048;
  Pmem.Pptr.write region 32 Pmem.Pptr.null;
  Scm.Region.persist region 32 Pmem.Pptr.size_bytes;
  let r = Fsck.check region in
  Alcotest.(check bool) "orphan detected" true (List.mem "orphan" (classes r));
  Alcotest.(check bool) "leak detected" true (List.mem "leak" (classes r));
  let blocks_before = r.Fsck.blocks in
  let r2 = repair_and_verify ~config:cfg ~n:200 region in
  Alcotest.(check int) "both blocks reclaimed" (blocks_before - 2)
    r2.Fsck.blocks

let test_leaf_corrupt () =
  let config = { cfg with Tree.checksums = true } in
  let a, t = build ~config 200 in
  let region = Pmem.Palloc.region a in
  let leaves = chain_leaves t in
  let victim = leaves.(Array.length leaves / 2) in
  let layout = t.F.layout in
  Scm.Region.corrupt region
    ~off:(victim + layout.Fptree.Layout.data_off)
    ~len:(layout.Fptree.Layout.bytes - layout.Fptree.Layout.data_off)
    ~bits:7 ~seed:5;
  let r = Fsck.check region in
  Alcotest.(check bool) "leaf-corrupt detected" true
    (List.mem "leaf-corrupt" (classes r));
  ignore (repair_and_verify ~config ~n:200 region)

let test_header_corrupt () =
  let a, _t = build ~config:cfg 50 in
  let region = Pmem.Palloc.region a in
  let meta = (Pmem.Palloc.root a).Pmem.Pptr.off in
  Scm.Region.write_int64 region (meta + Tree.meta_m) 9999L;
  Scm.Region.persist region (meta + Tree.meta_m) 8;
  let r = Fsck.check region in
  Alcotest.(check bool) "header-corrupt detected" true
    (List.mem "header-corrupt" (classes r));
  Alcotest.(check bool) "is an error" true (Fsck.errors r <> [])

(* Hostile descriptor words in a saved image: each rewrite must make
   recovery refuse before it sizes anything from the word (one such
   image once registered 2^30 leaves per group; others ran out of
   memory or failed on the first insert), and fsck must name the same
   field as a header-corrupt error. *)
let test_hostile_descriptor () =
  let a, _t = build ~config:cfg_groups 1000 in
  let path = Filename.temp_file "fsck_hostile" ".scm" in
  Scm.Region.save (Pmem.Palloc.region a) path;
  let meta = (Pmem.Palloc.root a).Pmem.Pptr.off in
  let cases =
    [ ("group_size = 2^30", Tree.meta_group_size, 1 lsl 30, "group size");
      ("group_size = 0", Tree.meta_group_size, 0, "group size");
      ("n_split = 2^40", Tree.meta_n_split, 1 lsl 40, "micro-log counts");
      ("n_split = -1", Tree.meta_n_split, -1, "micro-log counts");
      ("n_delete = 63", Tree.meta_n_delete, 63, "micro-log counts");
      ("value_bytes = 2^40", Tree.meta_value_bytes, 1 lsl 40, "value width");
      ("value_bytes = 2^22", Tree.meta_value_bytes, 1 lsl 22,
       "leaf larger than the region");
      ("unknown flag bit", Tree.meta_flags, 4 lor 16, "flags") ]
  in
  List.iter
    (fun (what, off, v, field) ->
      let t0 = Unix.gettimeofday () in
      Scm.Registry.clear ();
      let region = Scm.Region.load path in
      Scm.Registry.register region;
      Scm.Region.write_int64 region (meta + off) (Int64.of_int v);
      Scm.Region.persist region (meta + off) 8;
      let detail = "implausible descriptor field: " ^ field in
      (match F.recover ~config:cfg_groups (Pmem.Palloc.of_region region) with
      | _ -> Alcotest.failf "%s: recover accepted the descriptor" what
      | exception Failure msg ->
        Alcotest.(check string) (what ^ ": recover refuses")
          ("Tree.recover: " ^ detail) msg);
      let r = Fsck.check region in
      Alcotest.(check (list (pair string string)))
        (what ^ ": fsck names the field")
        [ ("header-corrupt", detail) ]
        (List.map (fun f -> (f.Fsck.cls, f.Fsck.detail)) (Fsck.errors r));
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: refused promptly (%.2fs)" what dt)
        true (dt < 5.))
    cases;
  Sys.remove path

let test_groups_dangling_group_link () =
  let a, _t = build ~config:cfg_groups 200 in
  let region = Pmem.Palloc.region a in
  let meta = (Pmem.Palloc.root a).Pmem.Pptr.off in
  (* smash the group-list head: an implausible group pointer *)
  Pmem.Pptr.write_committed region (meta + Tree.meta_group_head)
    { Pmem.Pptr.region_id = Scm.Region.id region;
      off = Scm.Region.size region - 64 };
  let r = Fsck.check region in
  Alcotest.(check bool) "group dangling-link detected" true
    (List.mem "dangling-link" (classes r))

let () =
  Alcotest.run "fsck"
    [
      ( "audit",
        [
          Alcotest.test_case "clean trees audit clean" `Quick test_clean_audit;
          Alcotest.test_case "dangling link" `Quick test_dangling_link;
          Alcotest.test_case "double link (cycle)" `Quick test_double_link;
          Alcotest.test_case "orphan and leak" `Quick test_orphan_and_leak;
          Alcotest.test_case "corrupt leaf (checksums)" `Quick test_leaf_corrupt;
          Alcotest.test_case "header corruption" `Quick test_header_corrupt;
          Alcotest.test_case "hostile descriptor words" `Quick
            test_hostile_descriptor;
          Alcotest.test_case "dangling group link" `Quick
            test_groups_dangling_group_link;
        ] );
    ]
