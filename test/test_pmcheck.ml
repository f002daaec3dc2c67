(* Pmcheck sanitizer tests.

   Dynamic side: exhaustive crash-state enumeration (every persist
   boundary) for the five structural operations at m = 8, plus a
   missing-persist fault-injection sweep proving the offline analyzer
   flags a suppressed Persist() in each of them.

   Static side: the analyzer's finding classes on hand-built traces
   (race, unlogged link write, redundant flush, missing persist), the
   decoder from flight records to analyzer events, one traced run seen
   through the in-memory history and its saved dump, and the
   persistent-layer race detector over a contended multi-domain
   workload. *)

module F = Fptree.Fixed
module Tree = Fptree.Tree
module E = Pmcheck.Enumerate
module A = Pmcheck.Analyzer
module T = Pmcheck.Trace_io
module FL = Obs.Flight
module Ev = Obs.Event

let cfg =
  { Tree.fptree_config with Tree.m = 8; Tree.inner_keys = 8; Tree.use_groups = false }

let cfg_groups =
  { Tree.fptree_config with
    Tree.m = 8; Tree.inner_keys = 8; Tree.use_groups = true; Tree.group_size = 2 }

(* ---- the five operation scripts (m = 8) ---- *)

let base_setup = [ E.Ins (10, 1); E.Ins (20, 2); E.Ins (30, 3) ]

let scripts =
  [
    ("insert", base_setup, [ E.Ins (40, 4) ]);
    ("update", base_setup, [ E.Upd (20, 99) ]);
    ("delete", base_setup @ [ E.Ins (40, 4) ], [ E.Del 20 ]);
    (* 8 keys fill one leaf; the 9th insert splits it *)
    ( "split",
      List.init 8 (fun i -> E.Ins ((i + 1) * 10, i)),
      [ E.Ins (90, 9) ] );
    (* drain the upper leaf: one of these deletes empties it and takes
       the whole-leaf-delete (merge) path through the delete micro-log *)
    ( "merge",
      List.init 9 (fun i -> E.Ins ((i + 1) * 10, i)),
      [ E.Del 90; E.Del 80; E.Del 70; E.Del 60; E.Del 50 ] );
  ]

(* Persist boundaries of each script's measured ops, in [scripts]
   order: a refactor of the injectors or the sweeps must not move
   them. *)
let crash_points = [ 3; 3; 1; 17; 17 ]

let sweep_one ~config name setup ops expected =
  let r = E.sweep_crash_states ~config ~setup ops in
  Alcotest.(check int) (name ^ ": crash points") expected r.E.crash_points

let test_crash_sweep_all_ops () =
  List.iter2
    (fun (name, setup, ops) n -> sweep_one ~config:cfg name setup ops n)
    scripts crash_points

(* Groups of two over three leaves: 10..40 and 50..80 in the head
   group, 90..130 alone in the tail group.  Emptying the last leaf frees
   the tail group (its predecessor found by walking the group list, the
   tail moved back to it); putting its keys back links a fresh group
   behind that tail.  Emptying the first two leaves frees the head group
   (the group-list head moves, as the leaf-list head did before it). *)
let group_frees =
  let setup = List.init 13 (fun i -> E.Ins ((i + 1) * 10, i)) in
  let upper = List.init 5 (fun i -> (i + 9) * 10) in
  [
    ( "free tail group",
      setup,
      List.map (fun k -> E.Del k) upper
      @ List.map (fun k -> E.Ins (k, k)) upper );
    ("free head group", setup, List.init 8 (fun i -> E.Del ((i + 1) * 10)));
  ]

let test_crash_sweep_groups () =
  List.iter2
    (fun (name, setup, ops) n -> sweep_one ~config:cfg_groups name setup ops n)
    ([ List.nth scripts 3; List.nth scripts 4 ] @ group_frees)
    [ 13; 11; 66; 29 ]

(* An update on a full leaf: it splits the leaf, then writes the new
   entry into the half holding the key and retires the old one with the
   same bitmap write.  Every crash state recovers, the crash-point count
   is pinned (the same 17 as the insert that splits), and the analyzer
   finds no error in the clean trace. *)
let test_update_split () =
  let setup = List.init 8 (fun i -> E.Ins ((i + 1) * 10, i)) in
  let ops = [ E.Upd (80, 99) ] in
  sweep_one ~config:cfg "update-split" setup ops 17;
  let r = E.sweep_missing_persist ~config:cfg ~setup ops in
  Alcotest.(check (list string)) "update-split: clean trace has no errors" []
    (List.map (Format.asprintf "%a" A.pp_finding) (A.errors r.E.clean_findings))

(* Paper-sized leaves in group mode: the split script crosses thousands
   of persists, so sample every 11th boundary instead of all of them. *)
let cfg_m64 =
  { Tree.fptree_config with
    Tree.m = 64; Tree.inner_keys = 16; Tree.use_groups = true;
    Tree.group_size = 4 }

let test_crash_sweep_m64_stride () =
  let setup = List.init 64 (fun i -> E.Ins ((i + 1) * 10, i)) in
  (* ~240 persists: a couple of splits (fresh group included) plus the
     whole-leaf-delete path *)
  let ops =
    List.init 70 (fun i -> E.Ins (645 + i, i))
    @ List.init 8 (fun i -> E.Del ((i + 1) * 10))
  in
  let r = E.sweep_crash_states ~stride:11 ~config:cfg_m64 ~setup ops in
  Alcotest.(check int) "m=64 groups: sampled crash points" 22 r.E.crash_points

let test_crash_sweep_random_eviction () =
  let name, setup, ops = List.nth scripts 3 in
  let r =
    E.sweep_crash_states
      ~mode:(fun _ -> Scm.Config.Keep_random_subset 0xC0FFEE)
      ~config:cfg ~setup ops
  in
  Alcotest.(check int) (name ^ " (random eviction): crash points") 17
    r.E.crash_points

(* Detected / injected missing persists per script, in [scripts]
   order: the analyzer's detection power is pinned, so a drop (say
   split 12/17 -> 1/17) fails here. *)
let detections = [ (2, 3); (2, 3); (1, 1); (12, 17); (12, 17) ]

let test_injection_sweep_all_ops () =
  List.iter2
    (fun (name, setup, ops) (detected, injected) ->
      let r = E.sweep_missing_persist ~config:cfg ~setup ops in
      Alcotest.(check (pair int int))
        (name ^ ": detected/injected missing persists")
        (detected, injected) (r.E.detected, r.E.injected);
      match A.errors r.E.clean_findings with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "%s: clean trace has errors, e.g. %s" name
          (Format.asprintf "%a" A.pp_finding f))
    scripts detections

(* ---- analyzer unit tests on synthetic traces ---- *)

let ev ?(domain = 1) ?(region = 0) ?(site = "") kind =
  { T.domain; region; site; kind }

let classes findings = List.map (fun f -> f.A.cls) findings

let test_analyzer_race () =
  let trace =
    [|
      ev (T.Leaf_layout { bytes = 128 });
      ev (T.Lock_acquire { leaf = 256 });
      (* domain 2 stores into domain 1's locked leaf *)
      ev ~domain:2 ~site:"insert" (T.Store { off = 300; len = 8; silent = false });
      ev (T.Lock_release { leaf = 256 });
      (* unlocked but still tracked: unlocked store is also a race *)
      ev ~domain:2 ~site:"insert" (T.Store { off = 260; len = 8; silent = false });
      ev (T.Leaf_retired { leaf = 256 });
      (* retired: stores are free again *)
      ev ~domain:2 ~site:"insert" (T.Store { off = 260; len = 8; silent = false });
    |]
  in
  let races = List.filter (fun f -> f.A.cls = "leaf-lock-race") (A.analyze trace) in
  Alcotest.(check int) "two races" 2 (List.length races);
  (* the holder itself is never flagged *)
  let trace_ok =
    [|
      ev (T.Leaf_layout { bytes = 128 });
      ev (T.Lock_acquire { leaf = 256 });
      ev ~site:"insert" (T.Store { off = 300; len = 8; silent = false });
    |]
  in
  Alcotest.(check bool) "holder ok" true
    (not (List.mem "leaf-lock-race" (classes (A.analyze trace_ok))))

let test_analyzer_version_phase () =
  (* A holder mutating its locked leaf OUTSIDE a version write phase is
     invisible to optimistic readers' read-set validation: Error. *)
  let unversioned =
    [|
      ev (T.Leaf_layout { bytes = 128 });
      ev (T.Lock_acquire { leaf = 256 });
      ev ~site:"insert" (T.Store { off = 300; len = 8; silent = false });
    |]
  in
  Alcotest.(check bool) "unversioned store flagged" true
    (List.mem "unversioned-leaf-store" (classes (A.analyze unversioned)));
  (* same store inside a Ver_begin/Ver_end bracket is clean *)
  let versioned =
    [|
      ev (T.Leaf_layout { bytes = 128 });
      ev (T.Lock_acquire { leaf = 256 });
      ev (T.Ver_begin { leaf = 256 });
      ev ~site:"insert" (T.Store { off = 300; len = 8; silent = false });
      ev (T.Ver_end { leaf = 256 });
      ev (T.Lock_release { leaf = 256 });
    |]
  in
  Alcotest.(check bool) "versioned store ok" true
    (not
       (List.mem "unversioned-leaf-store" (classes (A.analyze versioned))
       || List.mem "unlocked-version-phase" (classes (A.analyze versioned))));
  (* a version phase opened by a domain that does not hold the lock *)
  let foreign =
    [|
      ev (T.Leaf_layout { bytes = 128 });
      ev (T.Lock_acquire { leaf = 256 });
      ev ~domain:2 (T.Ver_begin { leaf = 256 });
    |]
  in
  Alcotest.(check bool) "foreign version phase flagged" true
    (List.mem "unlocked-version-phase" (classes (A.analyze foreign)));
  (* untracked leaves (fresh split targets) are exempt *)
  let untracked =
    [| ev (T.Ver_begin { leaf = 512 }); ev (T.Ver_end { leaf = 512 }) |]
  in
  Alcotest.(check (list string)) "untracked leaf exempt" []
    (classes (A.errors (A.analyze untracked)))

let test_analyzer_unlogged_link () =
  let link = T.Link_write { off = 512; len = 16 } in
  let bad = [| ev ~site:"split" link |] in
  Alcotest.(check bool) "unlogged flagged" true
    (List.mem "unlogged-link-write" (classes (A.analyze bad)));
  let good = [| ev (T.Log_arm { log = 128 }); ev ~site:"split" link |] in
  Alcotest.(check bool) "logged ok" true
    (not (List.mem "unlogged-link-write" (classes (A.analyze good))));
  let reset =
    [| ev (T.Log_arm { log = 128 }); ev (T.Log_reset { log = 128 });
       ev ~site:"split" link |]
  in
  Alcotest.(check bool) "after reset flagged" true
    (List.mem "unlogged-link-write" (classes (A.analyze reset)));
  (* recovery replay (no scope label) is exempt *)
  let recovery = [| ev link |] in
  Alcotest.(check bool) "recovery exempt" true
    (not (List.mem "unlogged-link-write" (classes (A.analyze recovery))))

let test_analyzer_missing_persist () =
  let bad =
    [|
      ev ~site:"insert" (T.Scope_begin { op = "insert" });
      ev ~site:"insert" (T.Store { off = 96; len = 8; silent = false });
      ev ~site:"insert" (T.Publish { off = 8; len = 8; what = "bitmap" });
    |]
  in
  Alcotest.(check bool) "dirty at publish flagged" true
    (List.mem "missing-persist" (classes (A.analyze bad)));
  let good =
    [|
      ev ~site:"insert" (T.Scope_begin { op = "insert" });
      ev ~site:"insert" (T.Store { off = 96; len = 8; silent = false });
      ev ~site:"insert" (T.Flush { off = 96; len = 8 });
      ev ~site:"insert" (T.Publish { off = 8; len = 8; what = "bitmap" });
      ev ~site:"insert" (T.Scope_end { op = "insert" });
    |]
  in
  Alcotest.(check (list string)) "flushed trace clean" []
    (classes (A.errors (A.analyze good)));
  let at_end =
    [|
      ev ~site:"insert" (T.Scope_begin { op = "insert" });
      ev ~site:"insert" (T.Store { off = 96; len = 8; silent = false });
      ev ~site:"insert" (T.Scope_end { op = "insert" });
    |]
  in
  Alcotest.(check bool) "dirty at scope end flagged" true
    (List.mem "missing-persist-at-end" (classes (A.analyze at_end)))

let test_analyzer_flush_classes () =
  let redundant = [| ev (T.Flush { off = 0; len = 64 }) |] in
  Alcotest.(check bool) "redundant flagged" true
    (List.mem "redundant-flush" (classes (A.analyze redundant)));
  let silent =
    [|
      ev (T.Store { off = 0; len = 8; silent = true });
      ev (T.Flush { off = 0; len = 8 });
    |]
  in
  Alcotest.(check bool) "silent flagged" true
    (List.mem "silent-flush" (classes (A.analyze silent)));
  let batchable =
    [|
      ev ~site:"insert" (T.Scope_begin { op = "insert" });
      ev ~site:"insert" (T.Store { off = 0; len = 8; silent = false });
      ev ~site:"insert" (T.Flush { off = 0; len = 8 });
      ev ~site:"insert" (T.Store { off = 8; len = 8; silent = false });
      ev ~site:"insert" (T.Flush { off = 8; len = 8 });
      ev ~site:"insert" (T.Store { off = 16; len = 8; silent = false });
      ev ~site:"insert" (T.Flush { off = 16; len = 8 });
      ev ~site:"insert" (T.Scope_end { op = "insert" });
    |]
  in
  Alcotest.(check bool) "batchable flagged" true
    (List.mem "batchable-flush" (classes (A.analyze batchable)))

(* ---- the decoder: op records become scopes ---- *)

let record ?(dom = 1) ?(c = 0) ?(d = 0) tag a b =
  { FL.dom; seq = 0; t_us = 0; tag; a; b; c; d }

let test_decoder_scopes () =
  let op_begin op = record Ev.op_begin op 0 in
  let op_end op = record ~c:3 ~d:1 Ev.op_end op 0 in
  let store off = record Ev.store 1 off ~c:8 in
  let events =
    T.decode
      [
        op_begin Ev.op_set;
        op_begin Ev.op_insert;
        store 64;
        op_end Ev.op_insert;
        op_end Ev.op_set;
        op_begin Ev.op_txn;
        (* an unsampled find: its marker is an op_end with c = -1 *)
        record ~c:(-1) ~d:1 Ev.op_end Ev.op_find 0;
        store 128;
        op_end Ev.op_txn;
        record Ev.split 64 128;
      ]
  in
  let sites =
    List.map
      (fun e ->
        match e.T.kind with
        | T.Scope_begin { op } -> "begin " ^ op ^ " @" ^ e.T.site
        | T.Scope_end { op } -> "end " ^ op ^ " @" ^ e.T.site
        | T.Store { off; _ } -> Printf.sprintf "store %d @%s" off e.T.site
        | _ -> "other")
      (Array.to_list events)
  in
  Alcotest.(check (list string)) "decoded scopes and sites"
    [ "begin cache.set @cache.set"; "begin insert @insert"; "store 64 @insert";
      "end insert @cache.set"; "end cache.set @"; "begin tatp.txn @tatp.txn";
      "store 128 @tatp.txn"; "end tatp.txn @" ]
    sites

(* ---- one stream: the history in memory and its saved dump agree ---- *)

let persistence_tags =
  Ev.[ store; flush; fence; publish; link_write; log_arm; log_reset;
       lock_acquire; lock_release; leaf_retired; leaf_layout; track_reset;
       ver_begin; ver_end ]

let with_temp f =
  let path = Filename.temp_file "history" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let findings fs =
  List.sort compare
    (List.map (fun f -> (f.A.cls, f.A.severity, f.A.domain, f.A.site, f.A.detail)) fs)

let test_one_stream () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Config.set_tracing true;
  FL.reset ();
  let a = Pmem.Palloc.create ~size:E.default_arena () in
  let t = F.create ~config:cfg a in
  (* the "split" then the "merge" script of [scripts] *)
  let ops =
    List.init 9 (fun i -> E.Ins ((i + 1) * 10, i))
    @ [ E.Upd (20, 99); E.Del 90; E.Del 80; E.Del 70; E.Del 60; E.Del 50 ]
  in
  List.iter (E.apply_tree t) ops;
  (* the tree never fences on its own; one standalone fence completes
     the tag set *)
  Scm.Region.fence (Pmem.Palloc.region a);
  Scm.Config.set_tracing false;
  let records = FL.history () in
  Alcotest.(check bool) "the rings (a crash dump) carry the stores too" true
    (List.exists (fun e -> e.FL.tag = Ev.store) (FL.drain ()));
  with_temp @@ fun path ->
  FL.dump ~history:true ~reason:"pmcheck test" path;
  FL.reset ();
  let loaded, dropped = T.load path in
  Alcotest.(check int) "nothing dropped" 0 dropped;
  let decoded = T.decode records in
  Alcotest.(check bool) "loaded dump decodes to the in-memory history" true
    (decoded = loaded);
  let in_memory = findings (A.analyze decoded) in
  Alcotest.(check bool) "identical findings" true
    (in_memory = findings (A.analyze loaded));
  Alcotest.(check bool) "clean script, no errors" true
    (not (List.exists (fun (_, sev, _, _, _) -> sev = A.Error) in_memory));
  let ic = open_in_bin path in
  let dump =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        FL.of_json (Obs.Json.parse (really_input_string ic (in_channel_length ic))))
  in
  Alcotest.(check bool) "records round-trip" true (dump.FL.events = records);
  List.iter
    (fun tag ->
      Alcotest.(check bool) (Ev.tag_name tag ^ " in the dump") true
        (List.exists (fun e -> e.FL.tag = tag) dump.FL.events))
    persistence_tags;
  let ends op =
    List.length
      (List.filter
         (fun e -> e.FL.tag = Ev.op_end && e.FL.a = op && e.FL.c >= 0)
         dump.FL.events)
  in
  Alcotest.(check int) "insert op records" 9 (ends Ev.op_insert);
  Alcotest.(check int) "delete op records" 5 (ends Ev.op_delete)

(* ---- a truncated trace says so when loaded ---- *)

let test_truncated_trace_load () =
  Scm.Config.reset ();
  Scm.Config.set_tracing true;
  FL.reset ();
  FL.store ~region:1 ~off:64 ~len:8 ~silent:false;
  Scm.Config.set_tracing false;
  with_temp @@ fun path ->
  let save dropped =
    let j =
      match FL.to_json ~history:true ~reason:"pmcheck test" () with
      | Obs.Json.Obj [ ("flight", Obs.Json.Obj fields) ] ->
        Obs.Json.Obj
          [ ( "flight",
              Obs.Json.Obj
                (List.map
                   (fun (k, v) ->
                     if k = "dropped" then (k, Obs.Json.Int dropped) else (k, v))
                   fields) ) ]
      | _ -> Alcotest.fail "unexpected dump shape"
    in
    let oc = open_out path in
    output_string oc (Obs.Json.to_string j);
    close_out oc
  in
  save 0;
  let events, dropped = T.load path in
  Alcotest.(check int) "complete trace: nothing dropped" 0 dropped;
  Alcotest.(check bool) "complete trace: events" true
    (events
    = [| { T.domain = (Domain.self () :> int); region = 1; site = "";
           kind = T.Store { off = 64; len = 8; silent = false } } |]);
  save 624501;
  FL.reset ();
  let events, dropped = T.load path in
  Alcotest.(check int) "truncated trace: dropped count" 624501 dropped;
  Alcotest.(check int) "truncated trace: kept events" 1 (Array.length events)

(* ---- race detector over a contended multi-domain workload ---- *)

let test_race_detector_concurrent () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_tracing true;
  FL.reset ();
  let a = Pmem.Palloc.create ~size:(64 * 1024 * 1024) () in
  let t = F.create_concurrent ~m:8 a in
  let n_domains = 4 and per = 400 in
  let ds =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            (* interleaved ownership: adjacent keys on the same leaves *)
            for i = 0 to per - 1 do
              let k = (i * n_domains) + d in
              ignore (F.insert t k i);
              if i mod 3 = 0 then ignore (F.update t k (i + 1));
              if i mod 5 = 0 then ignore (F.delete t k)
            done))
  in
  List.iter Domain.join ds;
  Scm.Config.set_tracing false;
  let events = T.decode (FL.history ()) in
  let dropped = FL.history_dropped () in
  FL.reset ();
  Alcotest.(check int) "no dropped events" 0 dropped;
  F.check_invariants t;
  let findings = A.analyze events in
  (match List.filter (fun f -> f.A.cls = "leaf-lock-race") findings with
  | [] -> ()
  | f :: _ as l ->
    Alcotest.failf "%d persistent-layer races, e.g. %s" (List.length l)
      (Format.asprintf "%a" A.pp_finding f));
  match A.errors findings with
  | [] -> ()
  | f :: _ as l ->
    Alcotest.failf "%d errors in clean concurrent trace, e.g. %s" (List.length l)
      (Format.asprintf "%a" A.pp_finding f)

let () =
  Alcotest.run "pmcheck"
    [
      ( "enumerate",
        [
          Alcotest.test_case "crash sweep: 5 ops at m=8" `Slow test_crash_sweep_all_ops;
          Alcotest.test_case "crash sweep: groups" `Slow test_crash_sweep_groups;
          Alcotest.test_case "crash sweep: m=64 groups, sampled" `Slow
            test_crash_sweep_m64_stride;
          Alcotest.test_case "crash sweep: random eviction" `Slow
            test_crash_sweep_random_eviction;
          Alcotest.test_case "missing-persist injection: 5 ops" `Slow
            test_injection_sweep_all_ops;
          Alcotest.test_case "crash sweep: update-split" `Slow test_update_split;
        ] );
      ( "analyzer",
        [
          Alcotest.test_case "leaf-lock race" `Quick test_analyzer_race;
          Alcotest.test_case "version write phases" `Quick test_analyzer_version_phase;
          Alcotest.test_case "unlogged link write" `Quick test_analyzer_unlogged_link;
          Alcotest.test_case "missing persist" `Quick test_analyzer_missing_persist;
          Alcotest.test_case "flush classes" `Quick test_analyzer_flush_classes;
          Alcotest.test_case "decoder: op records are scopes" `Quick
            test_decoder_scopes;
          Alcotest.test_case "one stream, end to end" `Quick test_one_stream;
          Alcotest.test_case "truncated trace load" `Quick
            test_truncated_trace_load;
        ] );
      ( "race-detector",
        [
          Alcotest.test_case "contended multi-domain workload" `Slow
            test_race_detector_concurrent;
        ] );
    ]
