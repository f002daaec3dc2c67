(* Tests of the SCM traffic-attribution and wear-telemetry subsystem:

   - headline exactness: the (component x op) matrix sums equal the
     global scm_*_total counters exactly, on a single-domain mixed
     workload that exercises every component row (splits, deletes,
     out-of-line keys, recovery, reclamation) and under 4 concurrent
     domains;
   - unscoped traffic is attributed to (other, other), never dropped;
   - the wear report's amplification arithmetic and Gini bounds;
   - spatial heatmap: recorded only when enabled, honours the sampling
     shift, and its JSON dump round-trips through Obs.Json;
   - the Labeled registry exposition (Prometheus text + JSON). *)

module A = Obs.Attrib
module F = Fptree.Fixed

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let reset_all () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Config.set_stats true;
  Scm.Stats.reset ()

let check_exact ctx =
  List.iter
    (fun r ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s matrix == global" ctx r.Scm.Wear.quantity)
        r.Scm.Wear.global r.Scm.Wear.matrix)
    (Scm.Wear.crosscheck ())

(* ---- single-domain exactness over a workload touching every row ---- *)

let test_exactness_mixed () =
  reset_all ();
  let a = Pmem.Palloc.create ~size:(16 * 1024 * 1024) () in
  let config =
    { Fptree.Tree.fptree_config with
      Fptree.Tree.m = 8; Fptree.Tree.use_groups = true;
      Fptree.Tree.group_size = 4 }
  in
  let t = F.create ~config a in
  for i = 1 to 2_000 do ignore (F.insert t i (i * 3)) done;
  for i = 1 to 1_000 do ignore (F.update t (i * 2) i) done;
  for i = 1 to 1_500 do ignore (F.delete t i) done;
  ignore (F.reclaim_space t);
  check_exact "mixed";
  (* splits and deletes ran, so their components must have charges *)
  Alcotest.(check bool) "microlog row nonzero" true
    (A.comp_total ~comp:A.comp_microlog A.q_persists > 0);
  Alcotest.(check bool) "bitmap row nonzero" true
    (A.comp_total ~comp:A.comp_bitmap A.q_persists > 0);
  Alcotest.(check bool) "fingerprint row nonzero" true
    (A.comp_total ~comp:A.comp_fingerprint A.q_lines > 0);
  Alcotest.(check bool) "kv row nonzero" true
    (A.comp_total ~comp:A.comp_kv A.q_bytes > 0);
  Alcotest.(check bool) "alloc_meta row nonzero" true
    (A.comp_total ~comp:A.comp_alloc_meta A.q_persists > 0);
  Alcotest.(check bool) "tree_meta row nonzero" true
    (A.comp_total ~comp:A.comp_tree_meta A.q_persists > 0);
  (* op attribution: inserts and deletes each carried persists *)
  Alcotest.(check bool) "insert op column nonzero" true
    (A.value ~comp:A.comp_bitmap ~op:Obs.Event.op_insert A.q_persists > 0);
  Alcotest.(check bool) "delete op column nonzero" true
    (A.value ~comp:A.comp_bitmap ~op:Obs.Event.op_delete A.q_persists > 0);
  Alcotest.(check bool) "create op column nonzero" true
    (A.value ~comp:A.comp_tree_meta ~op:Obs.Event.op_create A.q_persists > 0)

(* ---- recovery and out-of-line keys land in their rows ---- *)

let test_exactness_recovery_and_var () =
  reset_all ();
  let a = Pmem.Palloc.create ~size:(16 * 1024 * 1024) () in
  let t = Fptree.Var.create a in
  for i = 1 to 400 do
    ignore (Fptree.Var.insert t (Printf.sprintf "key-%04d" i) i)
  done;
  for i = 1 to 100 do
    ignore (Fptree.Var.delete t (Printf.sprintf "key-%04d" i))
  done;
  Alcotest.(check bool) "ool_key row nonzero" true
    (A.comp_total ~comp:A.comp_ool_key A.q_bytes > 0);
  check_exact "var workload";
  (* crash + recover: the recovery row fills, exactness holds *)
  let region = Pmem.Palloc.region a in
  Scm.Region.crash region;
  let a2 = Pmem.Palloc.of_region region in
  let t2 = Fptree.Var.recover a2 in
  ignore (Fptree.Var.count t2);
  Alcotest.(check bool) "recover op column nonzero" true
    (A.comp_total ~comp:A.comp_recovery A.q_bytes > 0
    || Obs.Attrib.rows A.q_persists
       |> List.exists (fun (_, op, v) -> op = Obs.Event.op_recover && v > 0));
  check_exact "after recovery"

(* ---- unscoped traffic: charged to (other, other), never lost ---- *)

let test_unscoped_goes_to_other () =
  reset_all ();
  let r = Scm.Region.make ~id:9000 ~size:4096 in
  Scm.Region.write_word r 0 42;
  Scm.Region.persist r 0 8;
  Alcotest.(check int) "bytes to (other,other)" 8
    (A.value ~comp:A.comp_other ~op:Obs.Event.op_other A.q_bytes);
  Alcotest.(check bool) "persist to (other,other)" true
    (A.value ~comp:A.comp_other ~op:Obs.Event.op_other A.q_persists > 0);
  check_exact "raw region traffic"

(* ---- 4-domain exactness ---- *)

let test_exactness_parallel () =
  reset_all ();
  let mk () =
    let a = Pmem.Palloc.create ~size:(16 * 1024 * 1024) () in
    F.create_single ~m:16 a
  in
  let trees = Array.init 4 (fun _ -> mk ()) in
  Scm.Stats.reset ();
  let worker t =
    for i = 1 to 3_000 do ignore (F.insert t i (i * 2)) done;
    for i = 1 to 1_500 do ignore (F.update t (i * 2) i) done;
    for i = 1 to 1_000 do ignore (F.delete t i) done;
    ignore (F.reclaim_space t)
  in
  let ds = Array.init 4 (fun d -> Domain.spawn (fun () -> worker trees.(d))) in
  Array.iter Domain.join ds;
  Alcotest.(check bool) "parallel run persisted" true
    ((Scm.Stats.snapshot ()).Scm.Stats.persists > 0);
  check_exact "4 domains"

(* ---- disabled scopes cost nothing and charge nothing ---- *)

let test_disabled_gate () =
  reset_all ();
  Scm.Config.set_stats false;
  let tok = A.set_component A.comp_kv in
  Alcotest.(check int) "disabled scope token is 0" 0 tok;
  A.restore_component tok;
  let r = Scm.Region.make ~id:9001 ~size:4096 in
  Scm.Region.write_word r 0 7;
  Scm.Region.persist r 0 8;
  Alcotest.(check int) "no matrix charges while off" 0 (A.total A.q_persists);
  Alcotest.(check int) "no byte charges while off" 0 (A.total A.q_bytes);
  Scm.Config.set_stats true

(* ---- wear report arithmetic ---- *)

let test_report_math () =
  reset_all ();
  Scm.Config.current.Scm.Config.wear_heatmap <- true;
  let r = Scm.Region.make ~id:9002 ~size:(64 * 64) in
  (* 3 persists of one 8-byte word in line 0: 3 line writes, 24 bytes *)
  for i = 1 to 3 do
    Scm.Region.write_word r 0 i;
    Scm.Region.persist r 0 8
  done;
  (* and one in line 5 *)
  Scm.Region.write_word r (5 * 64) 1;
  Scm.Region.persist r (5 * 64) 8;
  let rep = Scm.Wear.report r in
  Alcotest.(check int) "store bytes" 32 rep.Scm.Wear.store_bytes;
  Alcotest.(check int) "line writes" 4 rep.Scm.Wear.line_writes;
  (* WA = 64 * 4 / 32 *)
  Alcotest.(check (float 1e-9)) "write amplification" 8.0
    rep.Scm.Wear.write_amplification;
  Alcotest.(check int) "lines touched" 2 rep.Scm.Wear.lines_touched;
  Alcotest.(check int) "max line writes" 3 rep.Scm.Wear.max_line_writes;
  Alcotest.(check (float 1e-9)) "mean line writes" 2.0
    rep.Scm.Wear.mean_line_writes;
  (* Gini of [1;3]: 2*(1*1+2*3)/(2*4) - 3/2 = 14/8 - 12/8 = 0.25 *)
  Alcotest.(check (float 1e-9)) "gini" 0.25 rep.Scm.Wear.gini;
  let top = rep.Scm.Wear.top in
  Alcotest.(check int) "top has both lines" 2 (List.length top);
  let first = List.hd top in
  Alcotest.(check int) "hottest line is 0" 0 first.Scm.Wear.line;
  Alcotest.(check int) "hottest count" 3 first.Scm.Wear.count;
  Alcotest.(check bool) "gini in [0,1)" true
    (rep.Scm.Wear.gini >= 0. && rep.Scm.Wear.gini < 1.);
  Scm.Config.current.Scm.Config.wear_heatmap <- false

(* ---- heatmap gating and sampling ---- *)

let test_heatmap_gating () =
  reset_all ();
  let r = Scm.Region.make ~id:9003 ~size:4096 in
  (* heatmap off: nothing recorded *)
  Scm.Region.write_word r 0 1;
  Scm.Region.persist r 0 8;
  Alcotest.(check bool) "no heatmap when disabled" true
    (Scm.Region.heatmap r = None);
  (* on with shift 2: every 4th flushed line sampled *)
  Scm.Config.current.Scm.Config.wear_heatmap <- true;
  Scm.Config.current.Scm.Config.heatmap_sample_shift <- 2;
  for i = 1 to 64 do
    Scm.Region.write_word r 0 i;
    Scm.Region.persist r 0 8
  done;
  (match Scm.Region.heatmap r with
  | None -> Alcotest.fail "heatmap expected"
  | Some (counts, comps) ->
    Alcotest.(check int) "sampled 1/4 of 64 flushes" 16 counts.(0);
    Alcotest.(check bool) "component mask set" true (comps.(0) <> 0));
  Scm.Region.clear_heatmap r;
  (match Scm.Region.heatmap r with
  | None -> Alcotest.fail "cleared heatmap keeps arrays"
  | Some (counts, _) -> Alcotest.(check int) "cleared" 0 counts.(0));
  Scm.Config.current.Scm.Config.heatmap_sample_shift <- 0;
  Scm.Config.current.Scm.Config.wear_heatmap <- false

(* ---- heatmap JSON round-trip ---- *)

let test_heatmap_json_roundtrip () =
  reset_all ();
  Scm.Config.current.Scm.Config.wear_heatmap <- true;
  let a = Pmem.Palloc.create ~size:(8 * 1024 * 1024) () in
  let t = F.create_single ~m:8 a in
  for i = 1 to 800 do ignore (F.insert t i i) done;
  for i = 1 to 400 do ignore (F.delete t i) done;
  let region = Pmem.Palloc.region a in
  let before = Scm.Wear.heatmap_cells region in
  Alcotest.(check bool) "heatmap nonempty" true (before <> []);
  let j = Scm.Wear.heatmap_to_json region in
  let rt = Scm.Wear.heatmap_of_json (Obs.Json.parse (Obs.Json.to_string j)) in
  Alcotest.(check int) "cell count survives" (List.length before)
    (List.length rt);
  List.iter2
    (fun (l0, c0, m0) (l1, c1, m1) ->
      Alcotest.(check int) "line" l0 l1;
      Alcotest.(check int) "count" c0 c1;
      Alcotest.(check int) "comp mask" m0 m1)
    before rt;
  (* unknown component name raises *)
  (try
     ignore
       (Scm.Wear.heatmap_of_json
          (Obs.Json.parse
             {|{"cells":[{"line":0,"count":1,"comps":["nonsense"]}]}|}));
     Alcotest.fail "unknown component accepted"
   with Obs.Json.Parse_error _ -> ());
  Scm.Config.current.Scm.Config.wear_heatmap <- false

(* ---- labeled metric exposition ---- *)

let test_labeled_exposition () =
  reset_all ();
  let a = Pmem.Palloc.create ~size:(8 * 1024 * 1024) () in
  let t = F.create_single ~m:8 a in
  for i = 1 to 500 do ignore (F.insert t i i) done;
  let text = Obs.Registry.to_text () in
  Alcotest.(check bool) "text has attrib series" true
    (contains text "scm_attrib_persists_total{");
  Alcotest.(check bool) "text has component label" true
    (contains text "component=\"bitmap\"");
  Alcotest.(check bool) "text has op label" true
    (contains text "op=\"insert\"");
  (* JSON exposition parses back and carries the labeled series *)
  let j = Obs.Json.parse (Obs.Registry.to_json ()) in
  let m = Obs.Json.member "scm_attrib_persists_total"
      (Obs.Json.member "metrics" j)
  in
  Alcotest.(check string) "labeled type" "labeled"
    (Obs.Json.to_string_val (Obs.Json.member "type" m));
  let series = Obs.Json.to_list (Obs.Json.member "series" m) in
  Alcotest.(check bool) "series nonempty" true (series <> []);
  let total =
    List.fold_left
      (fun acc s -> acc + Obs.Json.to_int (Obs.Json.member "value" s))
      0 series
  in
  Alcotest.(check int) "series sum equals matrix total" (A.total A.q_persists)
    total

let () =
  Alcotest.run "wear"
    [
      ( "exactness",
        [
          Alcotest.test_case "mixed workload, every row" `Quick
            test_exactness_mixed;
          Alcotest.test_case "var keys + crash recovery" `Quick
            test_exactness_recovery_and_var;
          Alcotest.test_case "unscoped traffic lands in other" `Quick
            test_unscoped_goes_to_other;
          Alcotest.test_case "4 concurrent domains" `Slow
            test_exactness_parallel;
          Alcotest.test_case "disabled gate charges nothing" `Quick
            test_disabled_gate;
        ] );
      ( "report",
        [
          Alcotest.test_case "amplification + gini arithmetic" `Quick
            test_report_math;
          Alcotest.test_case "heatmap gating + sampling shift" `Quick
            test_heatmap_gating;
          Alcotest.test_case "heatmap json round-trip" `Quick
            test_heatmap_json_roundtrip;
          Alcotest.test_case "labeled registry exposition" `Quick
            test_labeled_exposition;
        ] );
    ]
