(* The DPOR model checker (lib/mcheck): the scenario catalog explores
   to completion with zero counterexamples on the current protocol,
   DPOR prunes the schedule space against full DFS, and the seeded
   PR 5 root-pointer regression is caught with a readable trace. *)

module D = Mcheck.Dpor
module S = Mcheck.Scenarios

let explore ?dpor ?limit sc = D.explore ?dpor ?limit sc

let show (r : D.report) =
  Printf.sprintf "%s: %d schedules (+%d sleep-pruned, %d bound), deepest %d%s"
    r.scenario r.schedules r.abandoned r.bound_hits r.deepest
    (if r.truncated then ", TRUNCATED" else "")

(* Exact exploration sizes of the catalog (DESIGN.md "mcheck" table):
   (schedules, sleep-pruned).  Any change to the protocol's schedule
   points moves these, so a drift is either a deliberate protocol change
   (update the table and DESIGN.md together) or an accidental one.
   The range rows count one validated section per leaf (the path or
   the leaf's parent, the leaf's version word, the validation) and a
   schedule point at each gathered value read. *)
let pinned =
  [ ("find-vs-split", (17, 0));
    ("insert-vs-insert-same-leaf", (16, 0));
    ("update-insert-delete-trio", (4581, 864));
    ("range-vs-merge", (891, 187));
    ("range-vs-end-split", (93, 15));
    ("range-vs-delete-reinsert", (521, 0));
    ("range-vs-sibling-shift", (953, 122));
    ("fallback-contention", (152, 6));
    ("find-vs-root-split", (36, 4));
    ("recover-then-concurrent", (17, 0)) ]

let test_catalog_clean () =
  Alcotest.(check (list string)) "catalog matches the pinned table"
    (List.map fst pinned)
    (List.map (fun sc -> sc.D.name) S.catalog);
  List.iter
    (fun sc ->
      let r = explore sc in
      Printf.printf "%s\n%!" (show r);
      Alcotest.(check bool)
        (sc.D.name ^ " explored to completion")
        false r.truncated;
      let schedules, pruned = List.assoc sc.D.name pinned in
      Alcotest.(check int) (sc.D.name ^ " schedules") schedules r.schedules;
      Alcotest.(check int) (sc.D.name ^ " sleep-pruned") pruned r.abandoned;
      match r.failure with
      | None -> ()
      | Some f ->
        Alcotest.failf "%s: counterexample (%s) at schedule %d:\n%s" sc.D.name
          f.D.f_outcome f.D.f_schedule
          (D.render_trace f.D.f_trace))
    S.catalog

let test_dpor_reduction () =
  (* Full DFS vs DPOR on one catalog scenario: the acceptance bar is a
     >= 5x reduction in explored schedules. *)
  let sc = S.find_vs_split in
  let red = explore ~dpor:true sc in
  (* The unreduced space is far larger than 5x; cap the full-DFS run
     and treat a truncated count as a lower bound. *)
  let full = explore ~dpor:false ~limit:(red.schedules * 100) sc in
  Printf.printf "full DFS: %s\nDPOR:     %s\n%!" (show full) (show red);
  (if not full.truncated then
     Alcotest.(check bool) "no counterexample (full)" true (full.failure = None));
  Alcotest.(check bool) "no counterexample (dpor)" true (red.failure = None);
  Alcotest.(check bool) "dpor explores >=5x fewer schedules" true
    (red.schedules * 5 <= full.schedules + full.abandoned + full.bound_hits)

let test_regression_hole_found () =
  S.with_regression_hole (fun () ->
      let sc = S.find_vs_root_split in
      let r = explore sc in
      match r.failure with
      | None ->
        Alcotest.fail
          "regression mode: the re-opened root-ver hole was not found"
      | Some f ->
        let explored = r.schedules + r.abandoned + r.bound_hits in
        Printf.printf "regression caught at schedule %d (%s)\n%!" f.D.f_schedule
          f.D.f_outcome;
        Alcotest.(check bool) "found within 5000 schedules" true
          (explored <= 5_000);
        let tr = D.minimize sc f.D.f_trace in
        let rendered = D.render_trace tr in
        Printf.printf "minimized trace:\n%s%!" rendered;
        Alcotest.(check bool) "minimized trace still fails" true
          (D.is_failure (D.replay sc ~max_steps:5_000 (Array.map fst tr)).outcome);
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "trace names the root cell" true
          (contains rendered "root-ver"))

let test_fixed_protocol_root_split_clean () =
  (* Same scenario without the hole: exhaustively clean. *)
  let r = explore S.find_vs_root_split in
  Alcotest.(check bool) "no counterexample" true (r.failure = None)

let () =
  Alcotest.run "mcheck"
    [
      ( "dpor",
        [
          Alcotest.test_case "catalog is counterexample-free" `Slow
            test_catalog_clean;
          Alcotest.test_case "dpor prunes >=5x vs full dfs" `Slow
            test_dpor_reduction;
          Alcotest.test_case "seeded root-ver hole is caught" `Slow
            test_regression_hole_found;
          Alcotest.test_case "root-split scenario clean when fixed" `Slow
            test_fixed_protocol_root_split_clean;
        ] );
    ]
