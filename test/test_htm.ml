(* Tests of the TSX-emulating speculative lock and its section driver:
   optimistic commit, abort/retry, fallback, writer exclusion, and
   multi-domain linearizability of a protected counter. *)

module Spec = Htm.Speculative_lock
module Nv = Htm.Node_versions

(* A section whose two bodies are closures: enough to drive the
   protocol from tests (the tree's sections are closure-free). *)
type body = { opt : Nv.readset -> int; under_lock : unit -> int }

module Run = Spec.Section (struct
  type ctx = Spec.t
  type arg = body
  type aux = unit
  type res = int

  let lock l = l
  let optimistic _ b () rs = b.opt rs
  let locked _ b () = b.under_lock ()
  let committed _ = ()
end)

let run l ~opt ~under_lock = Run.run l { opt; under_lock } ()

(* Read [f ()] optimistically under the version cell [c]. *)
let read_under l c f =
  run l
    ~opt:(fun rs ->
      Nv.observe rs c;
      let v = f () in
      if Nv.validate rs then v else raise Nv.Conflict)
    ~under_lock:f

(* A writer section that invalidates readers of [c]. *)
let write_under l c f =
  Spec.with_write l (fun () ->
      Nv.begin_write c;
      f ();
      Nv.end_write c)

let test_read_commit () =
  let l = Spec.create () in
  let v = run l ~opt:(fun _ -> 42) ~under_lock:(fun () -> assert false) in
  Alcotest.(check int) "commits value" 42 v;
  let s = Spec.stats l in
  Alcotest.(check int) "no aborts" 0 s.Spec.aborts

let test_abort_then_fallback () =
  let l = Spec.create ~retry_threshold:3 () in
  let attempts = ref 0 in
  let v =
    run l
      ~opt:(fun _ ->
        incr attempts;
        raise Spec.Abort)
      ~under_lock:(fun () ->
        (* Algorithm 1: a busy lock under the fallback releases the
           mutex and the body runs again *)
        incr attempts;
        if !attempts < 5 then Spec.retry l else !attempts)
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
      run l
        ~opt:(fun rs ->
          Nv.observe rs c;
          let v = take () in
          if Nv.validate rs then v
          else begin
            Atomic.set word false;
            incr rolled_back;
            raise Nv.Conflict
          end)
        ~under_lock:(fun () -> if Atomic.get word then Spec.retry l else take ())
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

let test_exception_passthrough () =
  let l = Spec.create () in
  Alcotest.check_raises "exceptions propagate when state is stable"
    (Failure "boom") (fun () ->
      ignore (run l ~opt:(fun _ -> failwith "boom") ~under_lock:(fun () -> 0)))

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
    let t = Spec.create ~retry_threshold:8 ~backoff_ceiling:64 () in
    (* eight explicit aborts, one backoff wait before each retry *)
    ignore (run t ~opt:(fun _ -> raise Spec.Abort) ~under_lock:(fun () -> 0));
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

let () =
  Alcotest.run "htm"
    [
      ( "speculative-lock",
        [
          Alcotest.test_case "read commit" `Quick test_read_commit;
          Alcotest.test_case "abort then fallback" `Quick test_abort_then_fallback;
          Alcotest.test_case "exception passthrough" `Quick test_exception_passthrough;
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
    ]
