(* Tests of persistent pointers and the crash-safe allocator,
   including exhaustive crash-point sweeps of the alloc/free protocols
   and the leak audit. *)

module Region = Scm.Region
module Pptr = Pmem.Pptr
module Palloc = Pmem.Palloc

let fresh () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Palloc.create ~size:(1024 * 1024) ()

(* A scratch cell inside the region that plays the role of a pptr owned
   by a persistent data structure. *)
let scratch_loc a = Pmem.Pptr.Loc.make (Palloc.region a) 16 (* root slot *)

let test_pptr_roundtrip () =
  let a = fresh () in
  let r = Palloc.region a in
  let p = Pptr.of_region r ~off:4096 in
  Pptr.write r 1024 p;
  let p' = Pptr.read r 1024 in
  Alcotest.(check bool) "pptr round-trips" true (Pptr.equal p p');
  Alcotest.(check bool) "not null" false (Pptr.is_null p');
  Pptr.write r 1024 Pptr.null;
  Alcotest.(check bool) "null round-trips" true (Pptr.is_null (Pptr.read r 1024))

let test_pptr_resolve () =
  let a = fresh () in
  let r = Palloc.region a in
  let p = Pptr.of_region r ~off:128 in
  let r', off = Pptr.resolve p in
  Alcotest.(check bool) "resolves to same region" true (r == r');
  Alcotest.(check int) "offset preserved" 128 off;
  Alcotest.check_raises "null resolve fails"
    (Pptr.Unresolvable { region_id = 0; off = 0 }) (fun () ->
      ignore (Pptr.resolve Pptr.null));
  (* a pointer into a region that is not open carries its identity in
     the typed exception *)
  Alcotest.check_raises "unopened region resolve fails"
    (Pptr.Unresolvable { region_id = 424242; off = 64 }) (fun () ->
      ignore
        (Pptr.resolve { Pptr.region_id = 424242; off = 64 }))

let test_committed_write_crash_atomic () =
  let a = fresh () in
  let r = Palloc.region a in
  let p = Pptr.of_region r ~off:512 in
  (* Crash at each persist point of the committed protocol: the stored
     pointer must read back as either null or fully [p]. *)
  let points =
    Scm.Fault.sweep Persist_crash (fun crash_at inject ->
        Scm.Registry.clear ();
        let a = Palloc.create ~size:(1024 * 1024) () in
        let r = Palloc.region a in
        ignore (inject (fun () -> Pptr.write_committed r 2048 p));
        Region.crash r;
        let got = Pptr.read r 2048 in
        Alcotest.(check bool)
          (Printf.sprintf "crash at persist %d: null or complete" crash_at)
          true
          (Pptr.is_null got
          || (got.Pptr.region_id = Region.id r && got.Pptr.off = 512)))
  in
  Alcotest.(check int) "crash points" 2 points

let test_alloc_basic () =
  let a = fresh () in
  let loc = scratch_loc a in
  Palloc.alloc a ~into:loc 100;
  let p = Pmem.Pptr.Loc.read loc in
  Alcotest.(check bool) "pointer published" false (Pptr.is_null p);
  Alcotest.(check int) "payload is 64-aligned" 0 (p.Pptr.off mod 64);
  Alcotest.(check int) "one allocation" 1 (Palloc.alloc_count a);
  (* payload usable *)
  Region.write_string (Palloc.region a) p.Pptr.off (String.make 100 'q');
  Alcotest.(check string) "payload read/write"
    (String.make 100 'q')
    (Region.read_string (Palloc.region a) p.Pptr.off 100)

let test_free_and_reuse () =
  let a = fresh () in
  let loc = scratch_loc a in
  Palloc.alloc a ~into:loc 100;
  let first = (Pmem.Pptr.Loc.read loc).Pptr.off in
  Palloc.free a ~from:loc;
  Alcotest.(check bool) "pointer nulled by free" true
    (Pptr.is_null (Pmem.Pptr.Loc.read loc));
  Palloc.alloc a ~into:loc 100;
  let second = (Pmem.Pptr.Loc.read loc).Pptr.off in
  Alcotest.(check int) "freed block is reused" first second

let test_free_errors () =
  let a = fresh () in
  let loc = scratch_loc a in
  Alcotest.check_raises "free of null"
    (Invalid_argument "Palloc.free: pointer already null") (fun () ->
      Palloc.free a ~from:loc);
  Palloc.alloc a ~into:loc 64;
  let p = Pmem.Pptr.Loc.read loc in
  Palloc.free a ~from:loc;
  (* resurrect the pointer manually to simulate a double free *)
  Pmem.Pptr.Loc.write loc p;
  Alcotest.check_raises "double free detected"
    (Invalid_argument "Palloc.free: double free") (fun () ->
      Palloc.free a ~from:loc)

let test_size_classes_no_mixing () =
  let a = fresh () in
  let loc = scratch_loc a in
  Palloc.alloc a ~into:loc 64;
  let small = (Pmem.Pptr.Loc.read loc).Pptr.off in
  Palloc.free a ~from:loc;
  Palloc.alloc a ~into:loc 500;
  let big = (Pmem.Pptr.Loc.read loc).Pptr.off in
  Alcotest.(check bool) "different size class: no reuse" true (small <> big)

let test_out_of_scm () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  let a = Palloc.create ~size:(64 * 1024) () in
  let loc = scratch_loc a in
  Alcotest.check_raises "exhaustion raises Out_of_scm" Palloc.Out_of_scm
    (fun () ->
      for _ = 1 to 10_000 do
        Palloc.alloc a ~into:loc (32 * 1024);
        (* leak on purpose: overwrite the pointer *)
        Pmem.Pptr.Loc.write loc Pptr.null
      done)

let test_live_bytes_and_iteration () =
  let a = fresh () in
  let loc = scratch_loc a in
  Palloc.alloc a ~into:loc 64;
  let b1 = Palloc.live_bytes a in
  Alcotest.(check int) "64B alloc = 1 unit + header" 128 b1;
  let p1 = Pmem.Pptr.Loc.read loc in
  Pmem.Pptr.Loc.write loc Pptr.null;
  Palloc.alloc a ~into:loc 65;
  Alcotest.(check int) "65B alloc rounds to 2 units" (128 + 192)
    (Palloc.live_bytes a);
  let blocks = ref [] in
  Palloc.iter_blocks a (fun ~payload ~bytes ~allocated ->
      blocks := (payload, bytes, allocated) :: !blocks);
  Alcotest.(check int) "two blocks carved" 2 (List.length !blocks);
  ignore p1

let test_leak_audit () =
  let a = fresh () in
  let loc = scratch_loc a in
  Palloc.alloc a ~into:loc 64;
  let p1 = (Pmem.Pptr.Loc.read loc).Pptr.off in
  Pmem.Pptr.Loc.write loc Pptr.null; (* drop the only reference: leak *)
  Palloc.alloc a ~into:loc 64;
  let p2 = (Pmem.Pptr.Loc.read loc).Pptr.off in
  let leaks = Palloc.leaked_blocks a ~reachable:[ p2 ] in
  Alcotest.(check (list int)) "the dropped block is reported" [ p1 ] leaks;
  let leaks = Palloc.leaked_blocks a ~reachable:[ p1; p2 ] in
  Alcotest.(check (list int)) "no false positives" [] leaks

let test_root_anchor () =
  let a = fresh () in
  let p = Pptr.of_region (Palloc.region a) ~off:8192 in
  Palloc.set_root a p;
  Alcotest.(check bool) "root round-trips" true (Pptr.equal p (Palloc.root a));
  let r2 = Palloc.region a in
  let a2 = Palloc.of_region r2 in
  Alcotest.(check bool) "root survives reopen" true (Pptr.equal p (Palloc.root a2))

(* Crash-point sweep: run alloc under a crash scheduled at the n-th
   persist, recover, and check the exactly-once contract: the dest
   pointer is null (op rolled back) or points at an allocated block
   (op completed); either way there is no leak and no corruption. *)
let alloc_crash_sweep () =
  let points =
    Scm.Fault.sweep Persist_crash (fun n inject ->
        Scm.Registry.clear ();
        Scm.Config.reset ();
        let a = Palloc.create ~size:(1024 * 1024) () in
        let loc = scratch_loc a in
        if inject (fun () -> Palloc.alloc a ~into:loc 100) then begin
          Region.crash (Palloc.region a);
          let a' = Palloc.of_region (Palloc.region a) in
          let dest = Pmem.Pptr.Loc.read loc in
          if Pptr.is_null dest then
            (* rolled back: heap must hold no allocated block *)
            Alcotest.(check (list int))
              (Printf.sprintf "alloc crash@%d rolled back leak-free" n)
              []
              (Palloc.leaked_blocks a' ~reachable:[])
          else
            Alcotest.(check (list int))
              (Printf.sprintf "alloc crash@%d completed exactly-once" n)
              []
              (Palloc.leaked_blocks a' ~reachable:[ dest.Pptr.off ])
        end)
  in
  Alcotest.(check bool) "sweep exercised several crash points" true (points > 2)

let free_crash_sweep () =
  let points =
    Scm.Fault.sweep Persist_crash (fun n inject ->
        Scm.Registry.clear ();
        Scm.Config.reset ();
        let a = Palloc.create ~size:(1024 * 1024) () in
        let loc = scratch_loc a in
        Palloc.alloc a ~into:loc 100;
        let block = (Pmem.Pptr.Loc.read loc).Pptr.off in
        if inject (fun () -> Palloc.free a ~from:loc) then begin
          Region.crash (Palloc.region a);
          let a' = Palloc.of_region (Palloc.region a) in
          let dest = Pmem.Pptr.Loc.read loc in
          (* Exactly-once: either the free rolled back (pointer intact,
             block still allocated) or completed (pointer null, block
             free); never a half state. *)
          if Pptr.is_null dest then begin
            Alcotest.(check (list int))
              (Printf.sprintf "free crash@%d completed: no leak" n)
              []
              (Palloc.leaked_blocks a' ~reachable:[]);
            (* the block must be reusable *)
            Palloc.alloc a' ~into:loc 100;
            Alcotest.(check int)
              (Printf.sprintf "free crash@%d: block reusable" n)
              block
              (Pmem.Pptr.Loc.read loc).Pptr.off
          end
          else begin
            Alcotest.(check int)
              (Printf.sprintf "free crash@%d rolled back: pointer intact" n)
              block dest.Pptr.off;
            Alcotest.(check (list int))
              (Printf.sprintf "free crash@%d rolled back: block still owned" n)
              []
              (Palloc.leaked_blocks a' ~reachable:[ block ]);
            (* and the free can be replayed to completion *)
            Palloc.free a' ~from:loc;
            Alcotest.(check bool)
              (Printf.sprintf "free crash@%d: replay frees" n)
              true
              (Pptr.is_null (Pmem.Pptr.Loc.read loc))
          end
        end)
  in
  Alcotest.(check bool) "sweep exercised several crash points" true (points > 2)

let qcheck_alloc_free_model =
  (* Random interleaving of allocs and frees against a model list. *)
  QCheck.Test.make ~name:"alloc/free against model" ~count:60
    QCheck.(list (pair bool (int_range 1 2000)))
    (fun ops ->
      Scm.Registry.clear ();
      Scm.Config.reset ();
      let a = Palloc.create ~size:(8 * 1024 * 1024) () in
      let r = Palloc.region a in
      (* a bank of pointer cells at fixed offsets *)
      let cells = Array.init 32 (fun i -> Pmem.Pptr.Loc.make r (4096 + (i * 16))) in
      let live = Array.make 32 false in
      List.iter
        (fun (is_alloc, size) ->
          let i = size mod 32 in
          if is_alloc && not live.(i) then begin
            Palloc.alloc a ~into:cells.(i) size;
            live.(i) <- true
          end
          else if (not is_alloc) && live.(i) then begin
            Palloc.free a ~from:cells.(i);
            live.(i) <- false
          end)
        ops;
      let reachable = ref [] in
      Array.iteri
        (fun i c ->
          if live.(i) then reachable := (Pmem.Pptr.Loc.read c).Pptr.off :: !reachable)
        cells;
      Palloc.leaked_blocks a ~reachable:!reachable = [])

let () =
  Alcotest.run "pmem"
    [
      ( "pptr",
        [
          Alcotest.test_case "round-trip" `Quick test_pptr_roundtrip;
          Alcotest.test_case "resolve" `Quick test_pptr_resolve;
          Alcotest.test_case "committed write is crash-atomic" `Quick
            test_committed_write_crash_atomic;
        ] );
      ( "palloc",
        [
          Alcotest.test_case "basic alloc" `Quick test_alloc_basic;
          Alcotest.test_case "free and reuse" `Quick test_free_and_reuse;
          Alcotest.test_case "free errors" `Quick test_free_errors;
          Alcotest.test_case "size classes" `Quick test_size_classes_no_mixing;
          Alcotest.test_case "out of SCM" `Quick test_out_of_scm;
          Alcotest.test_case "live bytes and iteration" `Quick
            test_live_bytes_and_iteration;
          Alcotest.test_case "leak audit" `Quick test_leak_audit;
          Alcotest.test_case "root anchor" `Quick test_root_anchor;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "alloc crash-point sweep" `Quick alloc_crash_sweep;
          Alcotest.test_case "free crash-point sweep" `Quick free_crash_sweep;
          QCheck_alcotest.to_alcotest qcheck_alloc_free_model;
        ] );
    ]
