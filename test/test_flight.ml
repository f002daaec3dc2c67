(* Tests of the flight recorder (lib/obs Flight + Gate mode word +
   Clock) and its failure-detection wiring:

   - mode word: each switch setter flips exactly its own bit, same-value
     sets are no-ops, [Config.reset] restores the default and leaves
     the [observe] bit alone;
   - monotonic clock: nondecreasing readings;
   - ring wraparound: oldest-overwrite semantics exact under the
     drain protocol's conservative window;
   - 4 concurrent domain writers: no lost events, per-ring sequences
     contiguous, payloads consistent;
   - draining while a writer runs: every event inside the epoch window
     is internally consistent (no torn slots survive);
   - JSON dump round-trip and Chrome export well-formedness;
   - 2-domain contended run: at least one precise-conflict abort is
     attributed to a node observed on both domains' descents;
   - chaos-injected crashes and fsck errors each write the configured
     crash dump. *)

module FL = Obs.Flight
module E = Obs.Event
module F = Fptree.Fixed

let self_dom () = (Domain.self () :> int)

(* ---- mode word ---- *)

(* Every setter of an instrumentation switch, with the one bit of the
   mode word it owns. *)
let setters =
  Obs.Gate.
    [ ("stats", stats, Scm.Config.set_stats);
      ("crash_tracking", crash_tracking, Scm.Config.set_crash_tracking);
      ("delay_injection", delay_injection, Scm.Config.set_delay_injection);
      ("tracing", tracing, Scm.Config.set_tracing);
      ("model_check", model_check, Scm.Config.set_model_check);
      ("observe", observe, Obs.Gate.set_enabled) ]

let test_mode_word () =
  let default = Obs.Gate.(stats lor crash_tracking) in
  Obs.Gate.set_enabled false;
  Scm.Config.reset ();
  Alcotest.(check int) "reset: stats|crash_tracking" default
    !Obs.Gate.word;
  List.iter
    (fun (name, bit, set) ->
      List.iter
        (fun start ->
          (* from an all-off and an all-on word, flipping one switch
             moves exactly its bit *)
          List.iter (fun (_, _, s) -> s start) setters;
          let before = !Obs.Gate.word in
          set (not start);
          Alcotest.(check int) (name ^ ": flips only its bit")
            (before lxor bit) !Obs.Gate.word;
          let flipped = !Obs.Gate.word in
          set (not start);
          Alcotest.(check int) (name ^ ": same-value set is a no-op")
            flipped !Obs.Gate.word;
          set start;
          Alcotest.(check int) (name ^ ": flips back") before
            !Obs.Gate.word)
        [ false; true ])
    setters;
  (* reset restores the config default and leaves [observe] alone *)
  List.iter
    (fun observing ->
      List.iter (fun (_, _, s) -> s true) setters;
      Obs.Gate.set_enabled observing;
      Scm.Config.reset ();
      Alcotest.(check int) "reset keeps observe"
        (if observing then default lor Obs.Gate.observe else default)
        !Obs.Gate.word;
      Alcotest.(check bool) "gate enabled follows observe" observing
        (Obs.Gate.enabled ()))
    [ true; false ];
  (* the config fields read the same switches *)
  let c = Scm.Config.current in
  Alcotest.(check bool) "fields match the word" true
    (c.stats && c.crash_tracking && not
       (c.delay_injection || c.tracing || c.model_check))

(* ---- monotonic clock ---- *)

let test_clock_monotonic () =
  let prev = ref (Obs.Clock.now_us_int ()) in
  for _ = 1 to 100_000 do
    let t = Obs.Clock.now_us_int () in
    if t < !prev then
      Alcotest.failf "clock went backwards: %d after %d" t !prev;
    prev := t
  done

(* ---- ring wraparound ---- *)

(* Tags above the taxonomy, so test events are distinguishable from
   anything the instrumented libraries emit. *)
let tag_wrap = 90
let tag_multi = 91
let tag_torn = 92

let test_wraparound () =
  FL.reset ();
  let k = 100 in
  let total = FL.capacity + k in
  for seq = 0 to total - 1 do
    FL.emit ~tag:tag_wrap ~a:seq ~b:(seq * 7) ~c:0 ~d:0
  done;
  let dom = self_dom () in
  let evs =
    List.filter
      (fun e -> e.FL.dom = dom && e.FL.tag = tag_wrap)
      (FL.drain ())
  in
  (* The writer is idle, so the epoch window keeps everything except
     the conservatively-dropped oldest slot: seqs [k+1, capacity+k). *)
  Alcotest.(check int) "surviving events" (FL.capacity - 1) (List.length evs);
  List.iteri
    (fun i e ->
      let seq = k + 1 + i in
      Alcotest.(check int) "seq" seq e.FL.seq;
      Alcotest.(check int) "payload a == seq" seq e.FL.a;
      Alcotest.(check int) "payload b consistent" (seq * 7) e.FL.b)
    (List.sort (fun x y -> compare x.FL.seq y.FL.seq) evs)

(* ---- 4 concurrent domain writers ---- *)

let test_four_writers () =
  FL.reset ();
  let writers = 4 and n = 3000 in
  let ds =
    List.init writers (fun w ->
        Domain.spawn (fun () ->
            for seq = 0 to n - 1 do
              FL.emit ~tag:tag_multi ~a:w ~b:seq ~c:(w lxor seq) ~d:0
            done))
  in
  List.iter Domain.join ds;
  let evs = List.filter (fun e -> e.FL.tag = tag_multi) (FL.drain ()) in
  Alcotest.(check int) "no lost events" (writers * n) (List.length evs);
  for w = 0 to writers - 1 do
    let mine =
      List.filter (fun e -> e.FL.a = w) evs
      |> List.sort (fun x y -> compare x.FL.b y.FL.b)
    in
    Alcotest.(check int) (Printf.sprintf "writer %d count" w) n
      (List.length mine);
    (* single-writer ring: the writer's events carry contiguous
       sequence numbers, in emission order *)
    let doms = List.sort_uniq compare (List.map (fun e -> e.FL.dom) mine) in
    Alcotest.(check int) (Printf.sprintf "writer %d one ring" w) 1
      (List.length doms);
    List.iteri
      (fun i e ->
        Alcotest.(check int) "payload b in order" i e.FL.b;
        Alcotest.(check int) "payload c consistent" (w lxor i) e.FL.c;
        if i > 0 then
          Alcotest.(check int) "cursor has no lost update"
            ((List.nth mine (i - 1)).FL.seq + 1)
            e.FL.seq)
      mine
  done

(* ---- drain while writing ---- *)

let test_drain_during_writes () =
  FL.reset ();
  let m = 30_000 in
  let writer =
    Domain.spawn (fun () ->
        for seq = 0 to m - 1 do
          FL.emit ~tag:tag_torn ~a:seq ~b:(seq * 13) ~c:0 ~d:0
        done)
  in
  (* Drain repeatedly while the writer wraps its ring several times:
     every event inside the epoch window must be internally consistent
     — a torn slot surviving would show as b <> a * 13 or tag noise. *)
  for _ = 1 to 200 do
    List.iter
      (fun e ->
        if e.FL.tag = tag_torn then begin
          if e.FL.b <> e.FL.a * 13 then
            Alcotest.failf "torn slot in drained snapshot: a=%d b=%d" e.FL.a
              e.FL.b;
          if e.FL.a land (FL.capacity - 1) <> e.FL.seq land (FL.capacity - 1)
          then
            Alcotest.failf "slot/seq mismatch: seq=%d a=%d" e.FL.seq e.FL.a
        end)
      (FL.drain ())
  done;
  Domain.join writer;
  (* final drain: the last window is complete and in order *)
  let evs = List.filter (fun e -> e.FL.tag = tag_torn) (FL.drain ()) in
  Alcotest.(check int) "final window size" (FL.capacity - 1) (List.length evs)

(* ---- JSON round-trip and Chrome export ---- *)

let test_json_roundtrip () =
  FL.reset ();
  Obs.Gate.set_enabled false;
  let t0 = FL.op_begin ~op:E.op_find ~key:1234 in
  ignore (FL.op_end ~op:E.op_find ~key:1234 ~t0 ~ok:true);
  FL.htm_abort ~reason:E.abort_precise ~node:(-7) ~depth:2;
  FL.span ~name:"test.phase" ~start_us:t0 ~dur_us:5;
  let j = FL.to_json ~reason:"unit test" () in
  let { FL.events = evs; names; reason; dropped } =
    FL.of_json (Obs.Json.parse (Obs.Json.to_string j))
  in
  Alcotest.(check string) "reason round-trips" "unit test" reason;
  Alcotest.(check int) "no ring overwrote an event" 0 dropped;
  Alcotest.(check bool) "name table round-trips" true
    (List.mem "test.phase" names);
  let dom = self_dom () in
  let mine = List.filter (fun e -> e.FL.dom = dom) evs in
  let find_tag tag = List.find_opt (fun e -> e.FL.tag = tag) mine in
  (match find_tag E.htm_abort with
  | Some e ->
    Alcotest.(check int) "abort reason" E.abort_precise e.FL.a;
    Alcotest.(check int) "abort node" (-7) e.FL.b;
    Alcotest.(check int) "abort depth" 2 e.FL.c
  | None -> Alcotest.fail "htm_abort event lost in round-trip");
  (match find_tag E.op_end with
  | Some e ->
    Alcotest.(check int) "op kind" E.op_find e.FL.a;
    Alcotest.(check int) "op key" 1234 e.FL.b
  | None -> Alcotest.fail "op_end event lost in round-trip");
  (* Chrome export parses and carries one entry per drained event *)
  let chrome = Obs.Json.parse (Obs.Json.to_string (FL.to_chrome ())) in
  let entries = Obs.Json.to_list (Obs.Json.member "traceEvents" chrome) in
  Alcotest.(check bool) "chrome export non-empty" true (entries <> [])

(* ---- 2-domain contended run: precise-abort attribution ---- *)

(* Two domains hammer the same narrow key window of a concurrent tree
   (m=8: tiny contended leaves).  The fine-grained protocol must
   attribute precise-conflict aborts to concrete nodes, and a contended
   node must show up in both domains' abort sets — the window is
   shared, so both descents cross the same nodes.

   On a single-core host, conflicts only arise when the OS deschedules
   a worker mid-window, so two levers make the run deterministic in
   aggregate: SCM delay injection (10us busy-wait per write stretches
   every split's busy-cell window by ~2-3 orders of magnitude) and
   small rounds (1800 ops x 2 events < ring capacity, so a round's
   aborts cannot be overwritten before the post-round drain). *)
let test_contended_attribution () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_stats false;
  Scm.Config.set_latency ~read_ns:100. ~write_ns:10_000. ();
  Scm.Config.set_delay_injection true;
  let a = Pmem.Palloc.create ~size:(256 * 1024 * 1024) () in
  let t = F.create_concurrent ~m:8 a in
  Obs.Gate.set_enabled true;
  let window = 64 and per_round = 1_800 in
  (* per-worker attributed-node sets, accumulated across rounds *)
  let nodes = Array.make 2 [] in
  let intersects () =
    List.exists (fun n -> List.mem n nodes.(1)) nodes.(0)
  in
  let round r =
    FL.reset ();
    let ds =
      List.init 2 (fun d ->
          Domain.spawn (fun () ->
              let rng = Random.State.make [| 77; d; r |] in
              for i = 0 to per_round - 1 do
                let k = Random.State.int rng window in
                match i mod 4 with
                | 0 | 1 -> ignore (F.insert t k (k + i))
                | 2 -> ignore (F.delete t k)
                | _ -> ignore (F.find t k)
              done))
    in
    let dom_ids = List.map (fun d -> (Domain.get_id d :> int)) ds in
    List.iter Domain.join ds;
    (* Drain from the main domain: both worker rings are registered.
       Workers are the only emitters here, so every attributed precise
       abort buckets cleanly by its ring's domain id. *)
    let assoc = List.mapi (fun i id -> (id, i)) dom_ids in
    List.iter
      (fun e ->
        if
          e.FL.tag = E.htm_abort
          && e.FL.a = E.abort_precise
          && e.FL.b <> -1
        then
          match List.assoc_opt e.FL.dom assoc with
          | Some i ->
            if not (List.mem e.FL.b nodes.(i)) then
              nodes.(i) <- e.FL.b :: nodes.(i)
          | None -> ())
      (FL.drain ())
  in
  (* Accumulate until a node shows up in both domains' abort sets
     (converges in ~5-8 rounds on a 1-core container; the cap only
     bounds a pathological scheduler). *)
  let r = ref 0 in
  while (not (intersects ())) && !r < 60 do
    round !r;
    incr r
  done;
  Scm.Config.set_delay_injection false;
  Obs.Gate.set_enabled false;
  if nodes.(0) = [] && nodes.(1) = [] then
    Alcotest.fail "no precise-conflict abort was attributed to any node";
  Alcotest.(check bool)
    "a contended node appears in both domains' abort sets" true
    (intersects ());
  F.check_invariants t

(* ---- crash-time dumps: chaos and fsck ---- *)

let with_crash_dump path f =
  (try Sys.remove path with Sys_error _ -> ());
  Obs.Gate.set_enabled true;
  FL.set_crash_dump (Some path);
  Fun.protect
    ~finally:(fun () ->
      FL.set_crash_dump None;
      Obs.Gate.set_enabled false)
    f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_chaos_crash_dump () =
  let path = Filename.temp_file "flight_chaos" ".json" in
  with_crash_dump path (fun () ->
      let r = Pmcheck.Chaos.run ~seed:1 ~iterations:20 () in
      Alcotest.(check bool) "crashes fired" true
        (r.Pmcheck.Chaos.crashes + r.Pmcheck.Chaos.torn > 0);
      let { FL.reason; _ } = FL.of_json (Obs.Json.parse (read_file path)) in
      Alcotest.(check bool)
        (Printf.sprintf "dump reason names the injected crash (%s)" reason)
        true
        (contains reason "crash injected"));
  Sys.remove path

let test_fsck_error_dump () =
  let path = Filename.temp_file "flight_fsck" ".json" in
  with_crash_dump path (fun () ->
      Scm.Registry.clear ();
      Scm.Config.reset ();
      let a = Pmem.Palloc.create ~size:(16 * 1024 * 1024) () in
      let config =
        {
          Fptree.Tree.fptree_config with
          Fptree.Tree.m = 8;
          Fptree.Tree.inner_keys = 8;
          Fptree.Tree.use_groups = false;
        }
      in
      let t = F.create ~config a in
      for i = 1 to 2000 do
        ignore (F.insert t i i)
      done;
      let region = Pmem.Palloc.region a in
      (* dangling next pointer, as the CLI's [corrupt link] injects *)
      let leaves = ref [] in
      F.iter_leaves t (fun l -> leaves := l :: !leaves);
      let mid = List.nth !leaves (List.length !leaves / 2) in
      Pmem.Pptr.write_committed region
        (mid + t.F.layout.Fptree.Layout.next_off)
        {
          Pmem.Pptr.region_id = Scm.Region.id region;
          off = Scm.Region.size region - 8;
        };
      let report = Fsck.check region in
      Alcotest.(check bool) "fsck sees the error" true
        (Fsck.errors report <> []);
      let { FL.reason; _ } = FL.of_json (Obs.Json.parse (read_file path)) in
      Alcotest.(check bool)
        (Printf.sprintf "dump reason names fsck (%s)" reason)
        true (contains reason "fsck"));
  Sys.remove path

(* ---- find-latency sampling ratio tracks the config knob ---- *)

let test_sample_shift_knob () =
  (* Hot finds emit a measured op_begin/op_end pair only every
     2^flight_sample_shift ops, the rest a latency-free marker (op_end
     with c = -1).  Over any window of k * 2^shift consecutive finds
     the measured count is exactly k, whatever the tick phase. *)
  Scm.Config.reset ();
  Scm.Config.set_stats true;
  Obs.Gate.set_enabled true;
  let a = Pmem.Palloc.create ~size:(8 * 1024 * 1024) () in
  let t = F.create_single ~m:16 a in
  for i = 1 to 512 do ignore (F.insert t i i) done;
  let measure shift finds =
    Scm.Config.current.Scm.Config.flight_sample_shift <- shift;
    FL.reset ();
    for i = 1 to finds do ignore (F.find t ((i mod 512) + 1)) done;
    let ends =
      List.filter
        (fun e -> e.FL.tag = E.op_end && e.FL.a = E.op_find)
        (FL.drain ())
    in
    let measured = List.length (List.filter (fun e -> e.FL.c >= 0) ends) in
    let markers = List.length (List.filter (fun e -> e.FL.c < 0) ends) in
    (measured, markers)
  in
  let m4, k4 = measure 4 1024 in
  Alcotest.(check int) "shift 4: 1/16 measured" (1024 / 16) m4;
  Alcotest.(check int) "shift 4: rest are markers" (1024 - (1024 / 16)) k4;
  let m2, k2 = measure 2 1024 in
  Alcotest.(check int) "shift 2: 1/4 measured" (1024 / 4) m2;
  Alcotest.(check int) "shift 2: rest are markers" (1024 - (1024 / 4)) k2;
  let m0, k0 = measure 0 256 in
  Alcotest.(check int) "shift 0: everything measured" 256 m0;
  Alcotest.(check int) "shift 0: no markers" 0 k0;
  Scm.Config.reset ();
  Obs.Gate.set_enabled false

(* ---- recorder parity: what each entry point shows each recorder ---- *)

(* Run [f] with the gate, tracing and stats on and report what each
   recorder saw: the rings' op records as (tag, op, ok), the scopes
   the ordered history opens (its op_begin records), and the op
   labels of the attribution cells charged (read through the
   registry's labeled export). *)
let recorders f =
  FL.reset ();
  Scm.Stats.reset ();
  Scm.Config.set_tracing true;
  Obs.Gate.set_enabled true;
  let finish () =
    Obs.Gate.set_enabled false;
    Scm.Config.set_tracing false
  in
  Fun.protect ~finally:finish f;
  let ops =
    List.filter_map
      (fun e ->
        if e.FL.tag = E.op_begin || e.FL.tag = E.op_end then
          Some (E.tag_name e.FL.tag, E.op_name e.FL.a, e.FL.d)
        else None)
      (FL.drain ())
  in
  let scopes =
    List.filter_map
      (fun e -> if e.FL.tag = E.op_begin then Some (E.op_name e.FL.a) else None)
      (FL.history ())
  in
  let charged =
    List.concat_map
      (fun q ->
        match Obs.Registry.find (Printf.sprintf "scm_attrib_%s_total" q) with
        | Some { Obs.Registry.metric = Obs.Registry.Labeled f; _ } ->
          List.filter_map
            (fun (labels, v) ->
              if v > 0 then List.assoc_opt "op" labels else None)
            (f ())
        | _ -> Alcotest.failf "scm_attrib_%s_total not registered" q)
      [ "store_bytes"; "line_writes"; "flushes"; "persists" ]
    |> List.sort_uniq compare
  in
  FL.reset ();
  (ops, scopes, charged)

let op_records = Alcotest.(list (triple string string int))

let check_recorders name f ~ops ~scopes ~charged =
  let ops', scopes', charged' = recorders f in
  Alcotest.check op_records (name ^ ": flight op records") ops ops';
  Alcotest.(check (list string)) (name ^ ": history scopes") scopes scopes';
  Alcotest.(check (list string)) (name ^ ": attribution ops") charged charged'

let test_recorder_parity () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Config.set_stats true;
  (* every find measured, so a find is always a begin/end pair *)
  Scm.Config.current.Scm.Config.flight_sample_shift <- 0;
  let pair op ok = [ ("op_begin", op, 0); ("op_end", op, ok) ] in
  let within outer ok inner =
    (("op_begin", outer, 0) :: inner) @ [ ("op_end", outer, ok) ]
  in
  let config =
    { Fptree.Tree.fptree_config with
      Fptree.Tree.m = 8; Fptree.Tree.use_groups = true;
      Fptree.Tree.group_size = 4 }
  in
  let a = Pmem.Palloc.create ~size:(16 * 1024 * 1024) () in
  let t = ref None in
  check_recorders "create"
    (fun () -> t := Some (F.create ~config a))
    ~ops:(pair "create" 1) ~scopes:[ "create" ] ~charged:[ "create" ];
  let t = Option.get !t in
  for i = 1 to 400 do ignore (F.insert t i i) done;
  check_recorders "insert"
    (fun () -> ignore (F.insert t 1000 1))
    ~ops:(pair "insert" 1) ~scopes:[ "insert" ] ~charged:[ "insert" ];
  check_recorders "update"
    (fun () -> ignore (F.update t 1000 2))
    ~ops:(pair "update" 1) ~scopes:[ "update" ] ~charged:[ "update" ];
  check_recorders "delete"
    (fun () -> ignore (F.delete t 1000))
    ~ops:(pair "delete" 1) ~scopes:[ "delete" ] ~charged:[ "delete" ];
  check_recorders "find hit"
    (fun () -> ignore (F.find t 7))
    ~ops:(pair "find" 1) ~scopes:[ "find" ] ~charged:[];
  check_recorders "find miss"
    (fun () -> ignore (F.find t 1000))
    ~ops:(pair "find" 0) ~scopes:[ "find" ] ~charged:[];
  check_recorders "range"
    (fun () -> ignore (F.range t ~lo:10 ~hi:20))
    ~ops:(pair "range" 1) ~scopes:[ "range" ] ~charged:[];
  (* free the heap's tail leaves (the head leaf stays) so reclamation
     has a free tail to return to the arena *)
  for i = 400 downto 1 do ignore (F.delete t i) done;
  check_recorders "reclaim"
    (fun () -> ignore (F.reclaim_space t))
    ~ops:[] ~scopes:[] ~charged:[ "reclaim" ];
  let a2 = Pmem.Palloc.of_region (Pmem.Palloc.region a) in
  check_recorders "recover"
    (fun () -> ignore (F.recover ~config a2))
    ~ops:[] ~scopes:[] ~charged:[ "recover" ];
  (* kvstore: each cache op brackets the tree op it drives *)
  let c =
    Kvstore.Cache.create
      (Kvstore.Tree_ops.of_fptree_concurrent
         (Fptree.Var.create_concurrent
            (Pmem.Palloc.create ~size:(16 * 1024 * 1024) ())))
  in
  check_recorders "cache set"
    (fun () -> Kvstore.Cache.set_exn c "k" "v")
    ~ops:(within "cache.set" 1 (pair "insert" 1))
    ~scopes:[ "cache.set"; "insert" ] ~charged:[ "insert" ];
  check_recorders "cache get"
    (fun () -> ignore (Kvstore.Cache.get c "k"))
    ~ops:(within "cache.get" 1 (pair "find" 1))
    ~scopes:[ "cache.get"; "find" ] ~charged:[];
  check_recorders "cache delete"
    (fun () -> ignore (Kvstore.Cache.delete c "k"))
    ~ops:(within "cache.delete" 1 (pair "delete" 1))
    ~scopes:[ "cache.delete"; "delete" ] ~charged:[ "delete" ];
  (* one TATP transaction: only index finds inside its bracket *)
  let db = Dbproto.Tatp.populate ~subscribers:100 Dbproto.Index.FPTree in
  let ops, scopes, charged =
    recorders (fun () ->
        ignore (Dbproto.Tatp.run_benchmark ~clients:1 ~n_tx:1 db))
  in
  let n = List.length ops in
  Alcotest.(check bool) "tatp: at least one index find" true (n >= 4);
  Alcotest.check op_records "tatp: txn bracket"
    (pair "tatp.txn" 1)
    [ List.hd ops; List.nth ops (n - 1) ];
  List.iteri
    (fun i (_, op, _) ->
      if i > 0 && i < n - 1 then
        Alcotest.(check string) "tatp: inner ops are finds" "find" op)
    ops;
  Alcotest.(check (list string)) "tatp: history scopes"
    (List.map (fun (_, op, _) -> op)
       (List.filter (fun (tag, _, _) -> tag = "op_begin") ops))
    scopes;
  Alcotest.(check (list string)) "tatp: attribution ops" [] charged;
  Scm.Config.reset ()

let () =
  Alcotest.run "flight"
    [
      ( "gate",
        [
          Alcotest.test_case "mode word one bit per setter" `Quick
            test_mode_word;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic nondecreasing" `Quick
            test_clock_monotonic;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound oldest-overwrite exact" `Quick
            test_wraparound;
          Alcotest.test_case "4 concurrent writers lose nothing" `Slow
            test_four_writers;
          Alcotest.test_case "drain under live writer is consistent" `Slow
            test_drain_during_writes;
        ] );
      ( "export",
        [
          Alcotest.test_case "json round-trip + chrome export" `Quick
            test_json_roundtrip;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "2-domain contended precise aborts" `Slow
            test_contended_attribution;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "latency-sample ratio tracks config shift" `Quick
            test_sample_shift_knob;
        ] );
      ( "parity",
        [
          Alcotest.test_case "each entry point's records in every recorder"
            `Quick test_recorder_parity;
        ] );
      ( "crash-dump",
        [
          Alcotest.test_case "chaos injected crash dumps" `Slow
            test_chaos_crash_dump;
          Alcotest.test_case "fsck error dumps" `Quick test_fsck_error_dump;
        ] );
    ]
