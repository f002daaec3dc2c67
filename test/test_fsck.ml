(* Offline audit (fsck) tests: each error class — dangling link, double
   link, orphan, leak, header corruption, corrupt leaf — is injected
   into a live region, detected by [Fsck.check], repaired by
   [Fsck.check ~repair:true], and the repaired region must re-audit
   clean AND recover into a usable tree whose surviving keys still
   carry their original values (the differential half of salvage). *)

module F = Fptree.Fixed
module Tree = Fptree.Tree
module D = Fptree.Descriptor

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

(* An in-region but implausible target, as [fptree_cli corrupt link]
   writes. *)
let dangle region cell =
  Pmem.Pptr.write_committed region cell
    { Pmem.Pptr.region_id = Scm.Region.id region;
      off = Scm.Region.size region - 8 }

let test_dangling_link () =
  let a, t = build ~config:cfg 200 in
  let region = Pmem.Palloc.region a in
  let leaves = chain_leaves t in
  let mid = leaves.(Array.length leaves / 2) in
  dangle region (mid + t.F.layout.Fptree.Layout.next_off);
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
  Scm.Region.write_int64 region (meta + D.meta_m) 9999L;
  Scm.Region.persist region (meta + D.meta_m) 8;
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
    [ ("group_size = 2^30", D.meta_group_size, 1 lsl 30, "group size");
      ("group_size = 0", D.meta_group_size, 0, "group size");
      ("n_split = 2^40", D.meta_n_split, 1 lsl 40, "micro-log counts");
      ("n_split = -1", D.meta_n_split, -1, "micro-log counts");
      ("n_delete = 63", D.meta_n_delete, 63, "micro-log counts");
      ("value_bytes = 2^40", D.meta_value_bytes, 1 lsl 40, "value width");
      ("value_bytes = 2^22", D.meta_value_bytes, 1 lsl 22,
       "leaf larger than the region");
      ("unknown flag bit", D.meta_flags, 4 lor 16, "flags") ]
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
  Pmem.Pptr.write_committed region (meta + D.meta_group_head)
    { Pmem.Pptr.region_id = Scm.Region.id region;
      off = Scm.Region.size region - 64 };
  let r = Fsck.check region in
  Alcotest.(check bool) "group dangling-link detected" true
    (List.mem "dangling-link" (classes r))

(* Recovery follows a persistent link by the one rule fsck audits
   ({!Pmem.Pptr.walk}).  With checksums, a dangling next pointer behind
   an intact leaf is cut: the tree comes back serving exactly the keys
   in front of the cut (keys 1..n sit in chain order), and fsck
   --repair then reclaims the unlinked tail as orphans. *)
let test_checksummed_dangling_link () =
  let config = { cfg with Tree.checksums = true } in
  let a, t = build ~config 200 in
  let region = Pmem.Palloc.region a in
  let leaves = chain_leaves t in
  let cut = Array.length leaves / 2 in
  let front = ref 0 in
  for i = 0 to cut do
    front := !front + Fptree.Layout.bitmap_count (F.leaf_bitmap t leaves.(i))
  done;
  dangle region (leaves.(cut) + t.F.layout.Fptree.Layout.next_off);
  let t = F.recover ~config (Pmem.Palloc.of_region region) in
  F.check_invariants t;
  Alcotest.(check (list int)) "no leaf quarantined" [] (F.Testing.quarantined t);
  Alcotest.(check int) "leaves in front of the cut" (cut + 1) (F.leaf_count t);
  Alcotest.(check int) "serves exactly the keys in front" !front (F.count t);
  for i = 1 to 200 do
    Alcotest.(check (option int)) (Printf.sprintf "key %d" i)
      (if i <= !front then Some (i * 3) else None)
      (F.find t i)
  done;
  let r = Fsck.check ~repair:true region in
  Alcotest.(check (list (pair string bool))) "tail reclaimed as orphans"
    (List.init (Array.length leaves - cut - 1) (fun _ -> ("orphan", true)))
    (List.map (fun f -> (f.Fsck.cls, f.Fsck.repaired)) r.Fsck.findings);
  ignore (check_clean region)

(* Recovery of [region] ends in a one-line [Failure "Tree.recover: …"],
   and promptly: a cycle must neither spin nor allocate without
   bound. *)
let refused what ~config region =
  let t0 = Unix.gettimeofday () in
  (match F.recover ~config (Pmem.Palloc.of_region region) with
  | _ -> Alcotest.failf "%s: recover accepted the image" what
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: refused by recovery (%s)" what msg)
      true (String.starts_with ~prefix:"Tree.recover: " msg));
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "%s: refused promptly (%.3fs)" what dt)
    true (dt < 0.5)

(* A 200-key image with groups of two whose group list is cyclic: the
   last group links back to the first.  Returns the allocator, the
   descriptor offset and the head group. *)
let cyclic_groups () =
  let a, _t = build ~config:cfg_groups 200 in
  let region = Pmem.Palloc.region a in
  let meta = (Pmem.Palloc.root a).Pmem.Pptr.off in
  let head = Pmem.Pptr.read region (meta + D.meta_group_head) in
  let rec last g =
    let next = Pmem.Pptr.read region g in
    if Pmem.Pptr.is_null next then g else last next.Pmem.Pptr.off
  in
  Pmem.Pptr.write_committed region (last head.Pmem.Pptr.off) head;
  (a, meta, head)

(* Without checksums recovery salvages nothing: a link its walk will not
   follow refuses the image (fsck --repair is the path that cuts
   it). *)
let test_bad_links_refused () =
  let leaf_chain () =
    let a, t = build ~config:cfg 200 in
    let leaves = chain_leaves t in
    ( Pmem.Palloc.region a, leaves,
      fun i -> leaves.(i) + t.F.layout.Fptree.Layout.next_off )
  in
  let region, leaves, link = leaf_chain () in
  dangle region (link (Array.length leaves / 2));
  refused "dangling leaf link" ~config:cfg region;
  let region, leaves, link = leaf_chain () in
  Pmem.Pptr.write_committed region (link (Array.length leaves - 2))
    (Pmem.Pptr.of_region region ~off:leaves.(1));
  refused "leaf cycle" ~config:cfg region;
  let a, _, _ = cyclic_groups () in
  let region = Pmem.Palloc.region a in
  refused "cyclic group list" ~config:cfg_groups region;
  let r = Fsck.check region in
  Alcotest.(check (list string)) "fsck names the group cycle"
    [ "double-link" ] (classes r);
  ignore (repair_and_verify ~config:cfg_groups ~n:200 region)

(* A dangling descriptor head leaves no leaf to salvage: with checksums
   too, recovery refuses the image, and leaves the head as it found it
   (cutting it to null would leave an empty leaf list). *)
let test_dangling_head_refused () =
  let config = { cfg with Tree.checksums = true } in
  let a, t = build ~config 200 in
  let region = Pmem.Palloc.region a in
  let cell = t.F.meta + D.meta_head in
  dangle region cell;
  let bad = Pmem.Pptr.read region cell in
  refused "dangling head (checksums)" ~config region;
  Alcotest.(check bool) "head left as it was" true
    (Pmem.Pptr.equal bad (Pmem.Pptr.read region cell))

(* Replaying an armed free-leaf log that frees the head group moves the
   group-list head past it; the rebuild's walk of the list, which also
   derives its tail, then meets the cycle and refuses it, not spun. *)
let test_freeleaf_replay_cycle_refused () =
  let a, meta, head = cyclic_groups () in
  let region = Pmem.Palloc.region a in
  let log =
    Fptree.Microlog.make region (D.log_off cfg_groups ~meta D.Free_leaf)
  in
  Fptree.Microlog.set_fst log head;
  refused "free-leaf replay over a cyclic group list" ~config:cfg_groups
    region

(* The descriptor's group tail is derived by recovery, not trusted: a
   damaged tail word is rewritten by the rebuild's group walk, so the
   group allocations after recovery link behind the real last group.
   The groups are counted along the list from the head. *)
let test_damaged_group_tail () =
  let a, _t = build ~config:cfg_groups 200 in
  let region = Pmem.Palloc.region a in
  let meta = (Pmem.Palloc.root a).Pmem.Pptr.off in
  let groups () =
    let rec go n last g =
      if Pmem.Pptr.is_null g then (n, last)
      else go (n + 1) g (Pmem.Pptr.read region g.Pmem.Pptr.off)
    in
    go 0 Pmem.Pptr.null (Pmem.Pptr.read region (meta + D.meta_group_head))
  in
  let before, _ = groups () in
  dangle region (meta + D.meta_group_tail);
  let t = F.recover ~config:cfg_groups (Pmem.Palloc.of_region region) in
  let n = ref 200 in
  while fst (groups ()) < before + 2 do
    incr n;
    Alcotest.(check bool) (Printf.sprintf "insert %d" !n) true
      (F.insert t !n (!n * 3))
  done;
  let _, last = groups () in
  Alcotest.(check bool) "the tail names the last group" true
    (Pmem.Pptr.equal last (Pmem.Pptr.read region (meta + D.meta_group_tail)));
  F.check_invariants t;
  for i = 1 to !n do
    Alcotest.(check (option int)) (Printf.sprintf "key %d" i) (Some (i * 3))
      (F.find t i)
  done;
  ignore (check_clean region)

(* A block parked in any micro-log slot belongs to an operation that
   recovery will finish or roll back, so fsck must count it as owned —
   in the last split and delete slots of a multi-log image and in the
   leaf-group slots after them, where fsck and recovery must agree on
   the slot offsets.  Once the slot is reset the same block is an
   orphan. *)
let test_parked_blocks_referenced () =
  let module Microlog = Fptree.Microlog in
  let concurrent = { cfg with Tree.n_split_logs = 3; Tree.n_delete_logs = 4 } in
  List.iter
    (fun (name, config) ->
      List.iter
        (fun (slot_name, slot) ->
          let what = name ^ " " ^ slot_name in
          let a, t = build ~config 100 in
          let region = Pmem.Palloc.region a in
          let meta = (Pmem.Palloc.root a).Pmem.Pptr.off in
          let log = Microlog.make region (D.log_off config ~meta slot) in
          let bytes =
            if config.Tree.use_groups then D.group_bytes config t.F.layout
            else t.F.layout.Fptree.Layout.bytes
          in
          Pmem.Palloc.alloc a ~into:(Microlog.fst_loc log) bytes;
          let block = (Microlog.read_fst log).Pmem.Pptr.off in
          ignore (check_clean ~msg:(what ^ ": parked block is owned") region);
          Microlog.reset log;
          let r = Fsck.check region in
          Alcotest.(check (list (pair string int)))
            (what ^ ": orphan once the slot is reset")
            [ ("orphan", block) ]
            (List.map (fun f -> (f.Fsck.cls, f.Fsck.off)) r.Fsck.findings))
        [ ("last split slot", D.Split (config.Tree.n_split_logs - 1));
          ("last delete slot", D.Delete (config.Tree.n_delete_logs - 1));
          ("get-leaf slot", D.Get_leaf);
          ("free-leaf slot", D.Free_leaf) ])
    [ ("concurrent", concurrent); ("groups", cfg_groups) ]

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
          Alcotest.test_case
            "blocks parked in every micro-log slot are referenced" `Quick
            test_parked_blocks_referenced;
          Alcotest.test_case "dangling link behind an intact leaf (checksums)"
            `Quick test_checksummed_dangling_link;
          Alcotest.test_case "bad links refused without checksums" `Quick
            test_bad_links_refused;
          Alcotest.test_case "dangling head refused with checksums" `Quick
            test_dangling_head_refused;
          Alcotest.test_case "free-leaf replay over a cyclic group list refused"
            `Quick test_freeleaf_replay_cycle_refused;
          Alcotest.test_case "damaged group tail derived by recovery" `Quick
            test_damaged_group_tail;
        ] );
    ]
