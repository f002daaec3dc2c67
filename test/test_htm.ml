(* Tests of the TSX-emulating speculative lock and its section driver:
   optimistic commit, abort/retry, fallback, writer exclusion, and
   multi-domain linearizability of a protected counter. *)

module Spec = Htm.Speculative_lock
module Nv = Htm.Node_versions

(* A section whose body is a closure: enough to drive the protocol
   from tests (the tree's sections are closure-free). *)
module Run = Spec.Section (struct
  type ctx = Spec.t
  type arg = Nv.readset -> int
  type aux = unit
  type res = int

  let lock l = l
  let body _ f () rs = f rs
  let committed _ = ()
end)

let run l body = Run.run l body ()

(* Read [f ()] under the version cell [c]. *)
let read_under l c f =
  run l (fun rs ->
      Nv.observe rs c;
      let v = f () in
      if Nv.validate rs then v else raise Nv.Conflict)

(* A writer section that invalidates readers of [c]. *)
let write_under l c f =
  Spec.with_write l (fun () ->
      Nv.begin_write c;
      f ();
      Nv.end_write c)

let test_read_commit () =
  let l = Spec.create () in
  let v = run l (fun _ -> 42) in
  Alcotest.(check int) "commits value" 42 v;
  let s = Spec.stats l in
  Alcotest.(check int) "no aborts" 0 s.Spec.aborts

let test_abort_then_fallback () =
  let l = Spec.create ~retry_threshold:3 () in
  let attempts = ref 0 in
  let v =
    run l (fun _ ->
        (* three optimistic aborts, then Algorithm 1: a busy lock under
           the fallback releases the mutex and the body runs again *)
        incr attempts;
        if !attempts < 5 then raise Spec.Abort else !attempts)
  in
  Alcotest.(check int) "eventually commits (under fallback)" 5 v;
  let s = Spec.stats l in
  Alcotest.(check int) "one fallback entry" 1 s.Spec.fallbacks;
  Alcotest.(check int) "three optimistic aborts" 3 s.Spec.aborts;
  Alcotest.(check int) "all explicit" 3 s.Spec.explicit_aborts

let test_writer_conflicts_reader () =
  let l = Spec.create ~retry_threshold:100 () in
  let c = Nv.fresh () in
  let x = ref 0 and y = ref 0 in
  let d =
    Domain.spawn (fun () ->
        for i = 1 to 5000 do
          write_under l c (fun () ->
              x := i;
              (* widen the race window *)
              for _ = 1 to 50 do
                ignore (Sys.opaque_identity !x)
              done;
              y := i)
        done)
  in
  let torn = ref 0 in
  for _ = 1 to 20000 do
    if read_under l c (fun () -> !x - !y) <> 0 then incr torn
  done;
  Domain.join d;
  Alcotest.(check int) "optimistic reads never observe torn state" 0 !torn

(* A body that takes a lock must release it itself when its read set
   fails validation; the driver then retries.  Every acquisition is
   either kept by a committed section or released by the body, and
   the abort reasons partition the total. *)
let test_on_rollback_called () =
  let l = Spec.create ~retry_threshold:100 () in
  let c = Nv.fresh () in
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          write_under l c ignore
        done)
  in
  let word = Atomic.make false in
  let acquired = ref 0 and rolled_back = ref 0 and committed = ref 0 in
  let take () =
    if not (Atomic.compare_and_set word false true) then raise Spec.Abort;
    incr acquired;
    1
  in
  for _ = 1 to 20000 do
    let v =
      run l (fun rs ->
          Nv.observe rs c;
          let v = take () in
          if Nv.validate rs then v
          else begin
            Atomic.set word false;
            incr rolled_back;
            raise Nv.Conflict
          end)
    in
    committed := !committed + v;
    Atomic.set word false
  done;
  Atomic.set stop true;
  Domain.join d;
  Alcotest.(check int) "every acquisition committed or rolled back"
    !acquired (!committed + !rolled_back);
  Alcotest.(check int) "one commit per section" 20000 !committed;
  let s = Spec.stats l in
  Alcotest.(check int) "abort reasons partition the total" s.Spec.aborts
    (s.Spec.precise_conflicts + s.Spec.explicit_aborts)

let test_counter_under_contention () =
  (* Increments happen inside with_write; reads race optimistically.
     The final count must be exact. *)
  let l = Spec.create () in
  let cell = Nv.fresh () in
  let c = ref 0 in
  let n_domains = max 2 (min 4 (Domain.recommended_domain_count ())) in
  let per = 10_000 in
  let workers =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              write_under l cell (fun () -> incr c)
            done))
  in
  let readers_saw_monotone = ref true in
  let last = ref 0 in
  for _ = 1 to 1000 do
    let v = read_under l cell (fun () -> !c) in
    if v < !last then readers_saw_monotone := false;
    last := v
  done;
  List.iter Domain.join workers;
  Alcotest.(check int) "exact count" (n_domains * per) !c;
  Alcotest.(check bool) "reads monotone" true !readers_saw_monotone

(* A section that falls back while a cell it observes is held (a
   splitting leaf holds its parent, then queues on the fallback mutex
   to update it) commits on its first run under the mutex: fallback
   mode records a held word instead of waiting for the hold to end.
   A second run stops the test rather than retrying while the hold
   stands. *)
let test_fallback_over_held_node () =
  let l = Spec.create ~retry_threshold:0 () in
  let c = Nv.fresh () in
  Nv.begin_hold c;
  let runs = ref 0 in
  let v =
    run l (fun rs ->
        incr runs;
        if !runs > 1 then failwith "the held cell failed the first fallback run";
        Nv.observe rs c;
        if Nv.validate rs then 1 else raise Nv.Conflict)
  in
  Nv.end_hold c;
  Alcotest.(check int) "committed" 1 v;
  Alcotest.(check int) "one fallback entry" 1 (Spec.stats l).Spec.fallbacks;
  (* fallback mode ended with the section: an optimistic observation
     waits on a held word again *)
  Nv.begin_hold c;
  let rs = Nv.scratch () in
  let t0 = Obs.Clock.now_ns () in
  (match Nv.observe rs c with
   | () -> Alcotest.fail "an optimistic observation recorded a held word"
   | exception Nv.Conflict -> ());
  Alcotest.(check bool) "after the bounded wait" true
    (Obs.Clock.now_ns () - t0 >= Nv.busy_wait_ns);
  Nv.end_hold c

let test_exception_passthrough () =
  let l = Spec.create () in
  Alcotest.check_raises "exceptions propagate when state is stable"
    (Failure "boom") (fun () ->
      ignore (run l (fun _ -> failwith "boom")))

let qcheck_nested_write_consistency =
  QCheck.Test.make ~name:"writer sections are serializable" ~count:20
    QCheck.(int_range 2 4)
    (fun n ->
      let l = Spec.create () in
      let log = ref [] in
      let workers =
        List.init n (fun id ->
            Domain.spawn (fun () ->
                for i = 0 to 99 do
                  Spec.with_write l (fun () -> log := (id, i) :: !log)
                done))
      in
      List.iter Domain.join workers;
      (* per-writer subsequences must be in order *)
      let ok = ref true in
      List.iter
        (fun id ->
          let seq = List.filter (fun (w, _) -> w = id) (List.rev !log) in
          let expect = List.init 100 (fun i -> (id, i)) in
          if seq <> expect then ok := false)
        (List.init n Fun.id);
      List.length !log = n * 100 && !ok)

(* Pinned backoff seed: two equal-seed runs must produce identical
   [backoff_waits] counts and, stronger, identical flight
   [backoff_wait] spin payloads — the jitter becomes a pure function
   of (seed, attempt, domain slot) instead of free-running Weyl
   state.  This is what lets the chaos/mcheck harnesses reproduce a
   failing run exactly. *)
let test_backoff_seed_determinism () =
  let backoff_events baseline =
    List.filter_map
      (fun e ->
        if e.Obs.Flight.tag = Obs.Event.backoff_wait && e.Obs.Flight.seq > baseline
        then Some (e.Obs.Flight.a, e.Obs.Flight.b)
        else None)
      (List.filter (fun e -> e.Obs.Flight.dom = (Domain.self () :> int))
         (Obs.Flight.drain ()))
  in
  let dom_seq () =
    List.fold_left
      (fun acc e ->
        if e.Obs.Flight.dom = (Domain.self () :> int) then max acc e.Obs.Flight.seq
        else acc)
      (-1) (Obs.Flight.drain ())
  in
  let one_run () =
    let baseline = dom_seq () in
    let t = Spec.create ~retry_threshold:8 () in
    (* eight explicit aborts, one backoff wait before each retry, then
       the fallback run commits *)
    let attempts = ref 0 in
    ignore
      (run t (fun _ ->
           incr attempts;
           if !attempts <= 8 then raise Spec.Abort else 0));
    ((Spec.stats t).Spec.backoff_waits, backoff_events baseline)
  in
  Scm.Config.reset ();
  Scm.Config.current.Scm.Config.backoff_seed <- Some 1234;
  Obs.Gate.set_enabled true;
  let waits1, evs1 = one_run () in
  let waits2, evs2 = one_run () in
  Obs.Gate.set_enabled false;
  Scm.Config.reset ();
  Alcotest.(check int) "backoff_waits equal" waits1 waits2;
  Alcotest.(check int) "eight waits recorded" 8 (List.length evs1);
  Alcotest.(check (list (pair int int))) "identical flight spin payloads"
    evs1 evs2

(* A hold makes a word busy to newcomers but leaves earlier readers
   valid; a word still busy after the bounded wait aborts the
   observation (and is attributed to the busy node); a write phase
   still fails validation. *)
let test_hold_and_bounded_wait () =
  let c = Nv.fresh () in
  let rs = Nv.scratch () in
  Nv.observe_id rs c (-7);
  Alcotest.(check bool) "last recorded is the observed cell" true
    (match Nv.last_recorded rs with
     | Some (c', id) -> c' == c && id = -7
     | None -> false);
  Nv.begin_hold c;
  Alcotest.(check bool) "a hold does not invalidate a recorded reader" true
    (Nv.validate rs);
  let rs = Nv.scratch () in
  let t0 = Obs.Clock.now_ns () in
  (match Nv.observe_id rs c (-7) with
   | () -> Alcotest.fail "observed a held word"
   | exception Nv.Conflict -> ());
  Alcotest.(check bool) "aborts only after the bounded wait" true
    (Obs.Clock.now_ns () - t0 >= Nv.busy_wait_ns);
  Alcotest.(check (pair int int)) "abort attributed to the held node" (-7, 0)
    (Nv.failure rs);
  Nv.end_hold c;
  let rs = Nv.scratch () in
  Nv.observe_id rs c (-7);
  Alcotest.(check bool) "observable once released" true (Nv.validate rs);
  Nv.begin_write c;
  Nv.end_write c;
  Alcotest.(check bool) "a write phase still invalidates" false (Nv.validate rs)

(* A reader that meets a word inside a write phase waits for the phase
   to close and records the word it then sees, instead of aborting.
   The writer domain closes its phase only once the reader has
   started observing.  The wait only helps if the writer runs while
   the reader spins, and a freshly spawned domain may share the
   reader's CPU (or its virtual CPU may be descheduled) for longer
   than {!Nv.busy_wait_ns}.  So before each trial the two domains
   ping-pong on [turn] until 100 round trips take under 200 us, which
   they only do on two CPUs at once, for at most 20 s in all.  With
   one CPU the writer cannot run while the reader spins, so there
   only termination is checked. *)
let test_busy_word_awaited () =
  let c = Nv.fresh () in
  let parallel = Domain.recommended_domain_count () > 1 in
  let deadline = Obs.Clock.now_ns () + 20_000_000_000 in
  let rec side_by_side turn =
    let t0 = Obs.Clock.now_ns () in
    for i = 0 to 99 do
      Atomic.set turn ((2 * i) + 1);
      while Atomic.get turn <> (2 * i) + 2 do
        Domain.cpu_relax ()
      done
    done;
    let t1 = Obs.Clock.now_ns () in
    t1 - t0 < 200_000 || (t1 < deadline && side_by_side turn)
  in
  let trial () =
    let opened = Atomic.make false and observing = Atomic.make false in
    let turn = Atomic.make 0 in
    let w =
      Domain.spawn (fun () ->
          Nv.begin_write c;
          Atomic.set opened true;
          while not (Atomic.get observing) do
            let t = Atomic.get turn in
            if t land 1 = 1 then Atomic.set turn (t + 1);
            Domain.cpu_relax ()
          done;
          let t0 = Obs.Clock.now_ns () in
          while Obs.Clock.now_ns () - t0 < 50_000 do
            Domain.cpu_relax ()
          done;
          Nv.end_write c)
    in
    while not (Atomic.get opened) do
      Domain.cpu_relax ()
    done;
    let together = (not parallel) || side_by_side turn in
    Atomic.set observing true;
    let r =
      if not together then `Apart
      else
        let rs = Nv.scratch () in
        match Nv.observe_id rs c 1 with
        | () -> `Waited (Nv.validate rs)
        | exception Nv.Conflict -> `Aborted
    in
    Domain.join w;
    r
  in
  let rec go n =
    match trial () with
    | `Aborted when n > 1 -> go (n - 1)
    | r -> r
  in
  match go 10 with
  | `Waited ok ->
    Alcotest.(check bool) "recorded the closed phase's word" true ok
  | `Aborted ->
    if parallel then Alcotest.fail "every trial aborted instead of waiting"
  | `Apart -> Alcotest.fail "the two domains never ran side by side"

let () =
  Alcotest.run "htm"
    [
      ( "speculative-lock",
        [
          Alcotest.test_case "read commit" `Quick test_read_commit;
          Alcotest.test_case "abort then fallback" `Quick test_abort_then_fallback;
          Alcotest.test_case "exception passthrough" `Quick test_exception_passthrough;
          Alcotest.test_case "fallback over a held node" `Quick
            test_fallback_over_held_node;
          Alcotest.test_case "pinned backoff seed is deterministic" `Quick
            test_backoff_seed_determinism;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "no torn optimistic reads" `Quick test_writer_conflicts_reader;
          Alcotest.test_case "rollback accounting" `Quick test_on_rollback_called;
          Alcotest.test_case "counter under contention" `Quick test_counter_under_contention;
          QCheck_alcotest.to_alcotest qcheck_nested_write_consistency;
        ] );
      ( "node-versions",
        [
          Alcotest.test_case "hold and bounded wait" `Quick
            test_hold_and_bounded_wait;
          Alcotest.test_case "busy word awaited" `Quick test_busy_word_awaited;
        ] );
    ]
