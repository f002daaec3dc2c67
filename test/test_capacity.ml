(* Capacity-exhaustion hardening tests.

   The injection sweep is the acceptance gate for the unwind
   discipline: arm the exhaustion injector at allocation s = 1, 2, ...
   of a fixed operation script and require that every interrupted
   operation either completed or refused with the tree exactly as it
   was — oracle-equivalent, structurally sound, micro-logs idle, leaf
   locks released, no leaked blocks, and (for inline keys, where every
   failure point is pre-commit) the region byte-identical.  The
   deterministic cases around it pin the admission-control surface
   (watermark refusals, degraded-mode serving, re-admission after
   frees), crash-consistent tail reclamation, and the create/recover
   convergence when initialization itself runs out of space. *)

module F = Fptree.Fixed
module V = Fptree.Var
module Tree = Fptree.Tree
module Palloc = Pmem.Palloc
module Pptr = Pmem.Pptr

let cfg_small =
  { Tree.fptree_config with
    Tree.m = 8; Tree.inner_keys = 8; Tree.use_groups = false }

let cfg_groups =
  { Tree.fptree_config with
    Tree.m = 8; Tree.inner_keys = 8; Tree.use_groups = true;
    Tree.group_size = 2 }

let cfg_conc =
  { Tree.fptree_concurrent_config with Tree.m = 8; Tree.inner_keys = 8 }

let cfg_var =
  { V.var_single_config with
    Tree.m = 8; Tree.inner_keys = 8; Tree.use_groups = false }

let fresh_arena ?(size = 1024 * 1024) () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Palloc.create ~size ()

(* Whole-region digest: the byte-identity proof.  Leaf locks and
   version cells live in DRAM (Inner.leaf_ref), so a correctly
   unwound pre-commit failure leaves the region's bytes untouched. *)
let digest a =
  let r = Palloc.region a in
  let n = Scm.Region.size r in
  let b = Bytes.create n in
  Scm.Region.blit_to_bytes r 0 b 0 n;
  Digest.bytes b

(* ---- the injection sweep (fixed keys) ---- *)

type op = Ins of int * int | Upd of int * int | Del of int

let op_key = function Ins (k, _) | Upd (k, _) | Del k -> k

(* Setup fills one leaf (m = 8) so the first script op — an
   out-of-place update into the full leaf — exercises the update-split
   path; the insert run then drives nonfull inserts and further
   splits, with a delete and a second update between them. *)
let setup = List.init 8 (fun i -> Ins ((i + 1) * 10, i + 1))

let script =
  [ Upd (40, 999); Ins (85, 1); Ins (90, 2); Ins (95, 3); Del 20;
    Ins (100, 4); Upd (85, 555); Ins (15, 8); Ins (25, 9); Ins (35, 10);
    Ins (5, 11); Ins (2, 12); Ins (4, 13); Ins (105, 5); Ins (110, 6);
    Ins (115, 7); Ins (120, 14); Ins (125, 15); Ins (130, 16) ]

(* Apply to tree and oracle together; the oracle moves only when the
   tree reports the op took effect, so an exception leaves both
   untouched. *)
let apply t m op =
  match op with
  | Ins (k, v) -> if F.insert t k v then Hashtbl.replace m k v
  | Upd (k, v) -> if F.update t k v then Hashtbl.replace m k v
  | Del k -> if F.delete t k then Hashtbl.remove m k

let matches t m =
  F.count t = Hashtbl.length m
  && Hashtbl.fold (fun k v ok -> ok && F.find t k = Some v) m true

let check_unwound name a t m ~pre_digest ~byte_identical op =
  F.check_invariants t;
  Alcotest.(check bool)
    (name ^ ": tree oracle-equal after refusal") true (matches t m);
  Alcotest.(check bool) (name ^ ": micro-logs idle") true (F.Testing.logs_idle t);
  Alcotest.(check bool)
    (name ^ ": leaf lock released") false (F.Testing.leaf_locked_for t (op_key op));
  Alcotest.(check (list int))
    (name ^ ": no leaked blocks") []
    (Palloc.leaked_blocks a ~reachable:(F.reachable_blocks t));
  if byte_identical then
    Alcotest.(check string)
      (name ^ ": region byte-identical after refusal")
      (Digest.to_hex pre_digest) (Digest.to_hex (digest a))

let sweep_fixed name ?(min_sites = 3) config =
  let s = ref 1 in
  let fired = ref 0 in
  let finished = ref false in
  while not !finished do
    let a = fresh_arena () in
    let t = F.create ~config a in
    let m = Hashtbl.create 64 in
    List.iter (apply t m) setup;
    Palloc.schedule_out_of_scm !s;
    let rec run = function
      | [] ->
        (* The injector outlived the script: every allocation site has
           been swept. *)
        if Palloc.out_of_scm_armed () then begin
          Palloc.cancel_out_of_scm ();
          finished := true
        end
      | op :: rest ->
        let pre = digest a in
        (match apply t m op with
         | () -> run rest
         | exception Palloc.Out_of_scm ->
           incr fired;
           Palloc.cancel_out_of_scm ();
           check_unwound name a t m ~pre_digest:pre ~byte_identical:true op;
           (* The refused op, retried without injection, completes. *)
           apply t m op;
           F.check_invariants t;
           Alcotest.(check bool)
             (name ^ ": refused op succeeds on retry") true (matches t m))
    in
    run script;
    incr s
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%s: injector fired at %d sites" name !fired)
    true (!fired >= min_sites)

let test_sweep_single () = sweep_fixed "single" cfg_small
let test_sweep_groups () = sweep_fixed "groups" ~min_sites:2 cfg_groups
let test_sweep_concurrent () = sweep_fixed "concurrent" cfg_conc

(* ---- the injection sweep (var keys) ---- *)

(* Var keys allocate the key block after the split has committed, so
   a failure there unwinds to an oracle-equivalent tree that is NOT
   byte-identical (the split is retained; update_parents publishes
   it).  Assert the semantic invariants only. *)

let vkey i = Printf.sprintf "key%04d" i

let vapply t m op =
  match op with
  | Ins (k, v) -> if V.insert t (vkey k) v then Hashtbl.replace m (vkey k) v
  | Upd (k, v) -> if V.update t (vkey k) v then Hashtbl.replace m (vkey k) v
  | Del k -> if V.delete t (vkey k) then Hashtbl.remove m (vkey k)

let vmatches t m =
  V.count t = Hashtbl.length m
  && Hashtbl.fold (fun k v ok -> ok && V.find t k = Some v) m true

let test_sweep_var () =
  let s = ref 1 in
  let fired = ref 0 in
  let finished = ref false in
  while not !finished do
    let a = fresh_arena () in
    let t = V.create ~config:cfg_var a in
    let m = Hashtbl.create 64 in
    List.iter (vapply t m) setup;
    Palloc.schedule_out_of_scm !s;
    let rec run = function
      | [] ->
        if Palloc.out_of_scm_armed () then begin
          Palloc.cancel_out_of_scm ();
          finished := true
        end
      | op :: rest ->
        (match vapply t m op with
         | () -> run rest
         | exception Palloc.Out_of_scm ->
           incr fired;
           Palloc.cancel_out_of_scm ();
           V.check_invariants t;
           Alcotest.(check bool)
             "var: tree oracle-equal after refusal" true (vmatches t m);
           Alcotest.(check bool) "var: micro-logs idle" true (V.Testing.logs_idle t);
           Alcotest.(check bool)
             "var: leaf lock released" false
             (V.Testing.leaf_locked_for t (vkey (op_key op)));
           Alcotest.(check (list int))
             "var: no leaked blocks" []
             (Palloc.leaked_blocks a ~reachable:(V.reachable_blocks t));
           vapply t m op;
           V.check_invariants t;
           Alcotest.(check bool)
             "var: refused op succeeds on retry" true (vmatches t m))
    in
    run script;
    incr s
  done;
  Alcotest.(check bool)
    (Printf.sprintf "var: injector fired at %d sites" !fired)
    true (!fired >= 3)

(* ---- create under exhaustion ---- *)

(* Sweep every allocation of [create].  If the failure struck before
   the descriptor was rooted, nothing persistent happened and a plain
   retry works; if the root is set but initialization is incomplete
   (meta_status = 0), [recover] must converge to a working tree —
   the same path a crash during [create] takes. *)
let create_sweep name config =
  let s = ref 1 in
  let fired = ref 0 in
  let finished = ref false in
  while not !finished do
    let a = fresh_arena () in
    Palloc.schedule_out_of_scm !s;
    (match F.create ~config a with
     | _t ->
       if Palloc.out_of_scm_armed () then begin
         Palloc.cancel_out_of_scm ();
         finished := true
       end
     | exception Palloc.Out_of_scm ->
       incr fired;
       Palloc.cancel_out_of_scm ();
       let t =
         if Pptr.is_null (Palloc.root a) then F.create ~config a
         else F.recover ~config (Palloc.of_region (Palloc.region a))
       in
       F.check_invariants t;
       Alcotest.(check bool)
         (name ^ ": tree usable after interrupted create") true
         (F.insert t 1 1 && F.find t 1 = Some 1);
       Alcotest.(check (list int))
         (name ^ ": no leaks after interrupted create") []
         (Palloc.leaked_blocks a ~reachable:(F.reachable_blocks t)));
    incr s
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%s: create sweep fired %d times" name !fired)
    true (!fired >= 1)

let test_create_sweep_single () = create_sweep "create-single" cfg_small
let test_create_sweep_groups () = create_sweep "create-groups" cfg_groups

(* ---- watermark admission control ---- *)

let fill_to_refusal t =
  let n = ref 0 in
  let full = ref false in
  while not !full do
    match F.try_insert t (!n + 1) (!n + 1) with
    | Ok true -> incr n
    | Ok false -> Alcotest.fail "fill: duplicate key"
    | Error `Out_of_space -> full := true
  done;
  !n

let watermark_case name config =
  let refused0 = Obs.Counter.value Fptree.Metrics.space_refused in
  Scm.Registry.clear ();
  Scm.Config.reset ();
  let a = Palloc.create ~size:(192 * 1024) () in
  let t = F.create ~config a in
  let admitted = fill_to_refusal t in
  Alcotest.(check bool) (name ^ ": some inserts admitted") true (admitted > 0);
  Alcotest.(check bool)
    (name ^ ": refusal only past the soft watermark") true
    (F.watermark_state t >= 1);
  Alcotest.(check bool) (name ^ ": degraded mode entered") true (F.degraded t);
  Alcotest.(check bool)
    (name ^ ": refusals counted") true
    (Obs.Counter.value Fptree.Metrics.space_refused > refused0);
  F.check_invariants t;
  (* Degraded mode still serves reads... *)
  Alcotest.(check (option int)) (name ^ ": find still serves") (Some 1)
    (F.find t 1);
  (* ...in-place updates (no admission gate; at least one key sits in
     a leaf with a free slot)... *)
  let updated = ref false in
  let k = ref 1 in
  while (not !updated) && !k <= admitted do
    (match F.try_update t !k 424242 with
     | Ok true -> updated := true
     | Ok false -> Alcotest.fail (name ^ ": update lost a key")
     | Error `Out_of_space -> ());
    incr k
  done;
  Alcotest.(check bool) (name ^ ": in-place update still runs") true !updated;
  (* ...and deletes. *)
  (match F.try_delete t admitted with
   | Ok true -> ()
   | _ -> Alcotest.fail (name ^ ": delete refused in degraded mode"));
  (* Freeing a contiguous run must re-admit inserts (in groups mode
     via the emergency reclamation of fully-free groups). *)
  for k = 1 to admitted / 2 do
    match F.try_delete t k with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail (name ^ ": delete refused")
  done;
  (match F.try_insert t (admitted + 1000) 7 with
   | Ok true -> ()
   | _ -> Alcotest.fail (name ^ ": freed space did not re-admit inserts"));
  Alcotest.(check bool) (name ^ ": degraded mode left") false (F.degraded t);
  F.check_invariants t

let test_watermark_single () = watermark_case "single" cfg_small
let test_watermark_groups () = watermark_case "groups" cfg_groups

(* The admission check is pure DRAM arithmetic: no OCaml allocation
   (hot-path guard, see also test_hotpath). *)
let test_admit_allocation_free () =
  let a = fresh_arena () in
  ignore (Palloc.bytes_free a) (* force the lazy shadow rebuild *);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Palloc.admit a ~reserve:4096);
    ignore (Palloc.watermark_state a)
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "admit/watermark_state allocate nothing"
    0.0 (w1 -. w0)

(* Shadows survive the alloc/free churn: the O(1) counters must agree
   with a from-scratch heap walk at every step. *)
let test_shadow_consistency () =
  let a = fresh_arena () in
  let walk_free () =
    (* Recompute free bytes the slow way from the block walk. *)
    let live = ref 0 in
    Palloc.iter_blocks a (fun ~payload:_ ~bytes ~allocated ->
        if allocated then live := !live + bytes);
    ignore !live;
    Palloc.usable_bytes a - Palloc.bytes_live a
  in
  Alcotest.(check int) "fresh arena: all free"
    (Palloc.usable_bytes a) (Palloc.bytes_free a);
  Palloc.alloc a ~into:(Palloc.root_loc a) 256;
  let base = (Palloc.root a).Pptr.off in
  let loc i = Pptr.Loc.make (Palloc.region a) (base + (16 * i)) in
  Palloc.alloc a ~into:(loc 0) 64;
  Palloc.alloc a ~into:(loc 1) 200;
  Palloc.alloc a ~into:(loc 2) 64;
  Alcotest.(check int) "after allocs" (walk_free ()) (Palloc.bytes_free a);
  Palloc.free a ~from:(loc 1);
  Alcotest.(check int) "after free" (walk_free ()) (Palloc.bytes_free a);
  Palloc.alloc a ~into:(loc 1) 200 (* served from the free list *);
  Alcotest.(check int) "after free-list hit" (walk_free ())
    (Palloc.bytes_free a);
  Palloc.free a ~from:(loc 2);
  ignore (Palloc.reclaim a);
  Alcotest.(check int) "after reclaim" (walk_free ()) (Palloc.bytes_free a)

(* ---- crash-consistent tail reclamation ---- *)

(* Crash [Palloc.reclaim] at each of its persist boundaries; recovery
   (of_region) must replay or roll back the in-flight step so that a
   second reclaim converges with no leaks and a consistent free-byte
   count. *)
let test_reclaim_crash_sweep () =
  let k = ref 1 in
  let fired = ref 0 in
  let finished = ref false in
  while not !finished do
    let a = fresh_arena () in
    let r = Palloc.region a in
    (* Block A (rooted) owns the pointer cells for B, C, D in its
       payload; freeing C and D leaves a two-block free tail. *)
    Palloc.alloc a ~into:(Palloc.root_loc a) 256;
    let base = (Palloc.root a).Pptr.off in
    let loc i = Pptr.Loc.make r (base + (16 * i)) in
    Palloc.alloc a ~into:(loc 0) 64;
    Palloc.alloc a ~into:(loc 1) 100;
    Palloc.alloc a ~into:(loc 2) 64;
    Palloc.free a ~from:(loc 2);
    Palloc.free a ~from:(loc 1);
    Scm.Config.schedule_crash_after !k;
    (match Palloc.reclaim a with
     | reclaimed ->
       Scm.Config.disarm_crash ();
       finished := true;
       Alcotest.(check bool) "reclaim returned the tail" true (reclaimed > 0)
     | exception Scm.Config.Crash_injected ->
       incr fired;
       Scm.Config.disarm_crash ();
       Scm.Region.crash ~mode:Scm.Config.Revert_all_dirty r;
       let a' = Palloc.of_region r in
       (* Converge: a second reclaim completes whatever survived. *)
       ignore (Palloc.reclaim a');
       let p0 = Pptr.Loc.read (loc 0) in
       Alcotest.(check (list int)) "no leaks after reclaim crash" []
         (Palloc.leaked_blocks a' ~reachable:[ base; p0.Pptr.off ]);
       (* The allocator still serves, and the shadows rebuilt by the
          next capacity query agree with the heap. *)
       Palloc.alloc a' ~into:(loc 1) 64;
       Alcotest.(check int) "free + live covers the heap"
         (Palloc.usable_bytes a')
         (Palloc.bytes_free a' + Palloc.bytes_live a');
       Palloc.free a' ~from:(loc 1));
    incr k
  done;
  Alcotest.(check bool)
    (Printf.sprintf "reclaim crash sweep fired %d times" !fired)
    true (!fired >= 2)

(* ---- the full exhaustion chaos scenario ---- *)

let test_exhaustion_chaos () =
  let r = Pmcheck.Chaos.run_exhaustion ~config:cfg_small ~seed:5 () in
  Alcotest.(check bool)
    (Printf.sprintf
       "scenario ran (admitted=%d refusals=%d boundary=%d recovered=%d)"
       r.Pmcheck.Chaos.admitted r.Pmcheck.Chaos.refusals
       r.Pmcheck.Chaos.boundary_ops r.Pmcheck.Chaos.recovered_keys)
    true
    (r.Pmcheck.Chaos.admitted > 0 && r.Pmcheck.Chaos.refusals > 0
    && r.Pmcheck.Chaos.recovered_keys > 0)

let test_exhaustion_chaos_groups () =
  let r = Pmcheck.Chaos.run_exhaustion ~config:cfg_groups ~seed:6 () in
  Alcotest.(check bool) "groups scenario ran" true
    (r.Pmcheck.Chaos.admitted > 0 && r.Pmcheck.Chaos.refusals > 0)

(* ---- typed result surface ---- *)

let test_guard_space () =
  Alcotest.(check bool) "ok passes through" true
    (Tree.guard_space (fun () -> true) = Ok true);
  Alcotest.(check bool) "exhaustion maps to Out_of_space" true
    (Tree.guard_space (fun () -> raise Palloc.Out_of_scm)
    = Error `Out_of_space)

let () =
  Alcotest.run "capacity"
    [ ( "sweep",
        [ Alcotest.test_case "single: every alloc site unwinds" `Quick
            test_sweep_single;
          Alcotest.test_case "groups: every alloc site unwinds" `Quick
            test_sweep_groups;
          Alcotest.test_case "concurrent: every alloc site unwinds" `Quick
            test_sweep_concurrent;
          Alcotest.test_case "var keys: every alloc site unwinds" `Quick
            test_sweep_var;
          Alcotest.test_case "create: exhaustion mid-init converges" `Quick
            test_create_sweep_single;
          Alcotest.test_case "create (groups): exhaustion mid-init converges"
            `Quick test_create_sweep_groups ] );
      ( "watermark",
        [ Alcotest.test_case "admission control (single)" `Quick
            test_watermark_single;
          Alcotest.test_case "admission control (groups)" `Quick
            test_watermark_groups;
          Alcotest.test_case "admit is allocation-free" `Quick
            test_admit_allocation_free;
          Alcotest.test_case "capacity shadows track the heap" `Quick
            test_shadow_consistency ] );
      ( "reclaim",
        [ Alcotest.test_case "tail reclamation survives crashes" `Quick
            test_reclaim_crash_sweep ] );
      ( "chaos",
        [ Alcotest.test_case "exhaustion scenario (single)" `Quick
            test_exhaustion_chaos;
          Alcotest.test_case "exhaustion scenario (groups)" `Quick
            test_exhaustion_chaos_groups ] );
      ( "surface",
        [ Alcotest.test_case "guard_space adapter" `Quick test_guard_space ] )
    ]
