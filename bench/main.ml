(** Benchmark harness: one sub-experiment per table and figure of the
    paper's evaluation (Section 6 and Appendix A).

    Usage:
      bench/main.exe                 run everything at the default scale
      bench/main.exe fig7 fig8       run selected experiments
      bench/main.exe --list          list experiment ids
      bench/main.exe --scale 5 fig7  5x bigger datasets
      bench/main.exe --quick         0.2x datasets (CI smoke run) *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("fig4", "expected + measured in-leaf key probes", Fig4.run);
    ("table1", "node-size tuning sweep", Table1.run);
    ("fig7", "single-threaded ops vs SCM latency (fixed keys)", Fig7.run_fixed);
    ("fig7rec", "recovery time vs size (fixed keys)", Fig7.run_recovery_fixed);
    ("fig7var", "single-threaded ops vs SCM latency (var keys)", Fig7.run_var);
    ("fig7recvar", "recovery time vs size (var keys)", Fig7.run_recovery_var);
    ("fig8", "DRAM/SCM memory consumption", Fig8.run);
    ("fig9", "concurrency, one socket", Fig_conc.fig9);
    ("fig10", "concurrency, two sockets (oversubscribed)", Fig_conc.fig10);
    ("fig11", "concurrency at 145 ns", Fig_conc.fig11);
    ("fig12", "TATP database throughput and restart", Fig12.run);
    ("fig13", "memcached throughput", Fig13.run);
    ("fig14", "payload-size impact, single-threaded", Fig14.run_single);
    ("fig14conc", "payload-size impact, concurrent", Fig14.run_concurrent);
    ("micro", "bechamel raw per-op latencies", Micro.run);
    ("hotpath", "hot-path microbenchmark + scaling and trace-overhead gates", Hotpath.run);
    ("falseshare", "false-sharing cost of unpadded hot atomics", Falseshare.run);
    ("ablation", "FPTree design-choice ablation", Ablation.run);
    ("extensions", "range scans + Zipfian mix (beyond the paper)", Extensions.run);
  ]

let list_experiments () =
  List.iter (fun (id, doc, _) -> Printf.printf "  %-12s %s\n" id doc) experiments

let () =
  let selected = ref [] in
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse = function
    | [] -> ()
    | "--list" :: _ ->
      list_experiments ();
      exit 0
    | "--scale" :: v :: rest ->
      Env.scale := float_of_string v;
      parse rest
    | "--quick" :: rest ->
      Env.scale := 0.2;
      parse rest
    | id :: rest ->
      if List.exists (fun (i, _, _) -> i = id) experiments then begin
        selected := id :: !selected;
        parse rest
      end
      else begin
        Printf.eprintf "unknown experiment %S; use --list\n" id;
        exit 1
      end
  in
  parse args;
  let to_run =
    match !selected with
    | [] -> experiments
    | ids -> List.filter (fun (i, _, _) -> List.mem i ids) experiments
  in
  Printf.printf
    "FPTree reproduction benchmark harness (scale %.2f, %d cores)\n"
    !Env.scale
    (Workloads.Domain_pool.available_domains ());
  let t0 = Obs.Clock.now_s () in
  List.iter
    (fun (id, _, f) ->
      let s0 = Obs.Clock.now_s () in
      f ();
      Printf.printf "\n[%s done in %.1fs]\n" id (Obs.Clock.now_s () -. s0);
      flush stdout)
    to_run;
  Printf.printf "\nAll experiments done in %.1fs\n" (Obs.Clock.now_s () -. t0)
