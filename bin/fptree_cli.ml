(* fptree-cli: create, populate, inspect and recover persistent FPTree
   images stored as SCM region files.

     fptree_cli create  tree.scm             create an empty tree image
     fptree_cli put     tree.scm KEY VALUE   insert/update a pair
     fptree_cli get     tree.scm KEY         look a key up
     fptree_cli del     tree.scm KEY         delete a key
     fptree_cli range   tree.scm LO HI       inclusive range scan
     fptree_cli stats   tree.scm             tree statistics
     fptree_cli fill    tree.scm N           bulk-insert N sequential pairs
     fptree_cli metrics dump.json            pretty-print a metrics dump

     fptree_cli pmcheck trace.json           analyze a persistence trace

   Every command loads the image, recovers the tree (micro-log replay +
   DRAM rebuild), applies the operation, and writes the image back.
   Any command accepts [--metrics PATH] to dump the observability
   registry (counters, histograms, recovery-phase timings) after it
   ran, and [--trace PATH] to record every SCM store/flush/publication
   point to a JSON file for the pmcheck analyzer. *)

open Cmdliner

(* A bad image is a user error, not a crash: one line, exit 1 (exit 2
   is reserved for checker findings, matching pmcheck/fsck). *)
let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("fptree_cli: " ^ s); exit 1) fmt

let or_die f =
  try f () with
  | Failure msg -> die "%s" msg
  | Sys_error msg -> die "%s" msg
  | Invalid_argument msg -> die "%s" msg
  | Pmem.Pptr.Unresolvable _ as e ->
    (* typed dangling-pointer failure: the registered printer renders
       the region id and offset on one line *)
    die "%s" (Printexc.to_string e)

let load_region path =
  or_die @@ fun () ->
  Scm.Registry.clear ();
  let region = Scm.Region.load path in
  Scm.Registry.register region;
  region

let load_tree path =
  let region = load_region path in
  or_die @@ fun () ->
  let alloc = Pmem.Palloc.of_region region in
  (region, Fptree.Fixed.recover alloc)

let save region path = Scm.Region.save region path

let path_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE" ~doc:"tree image file")

let key_arg p = Arg.(required & pos p (some int) None & info [] ~docv:"KEY")

(* ---- observability plumbing ---- *)

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~doc:
          "after the command, dump the observability registry to $(docv); \
           '-' writes to stdout")

let metrics_format_arg =
  Arg.(
    value
    & opt (enum [ ("json", `Json); ("text", `Text) ]) `Json
    & info [ "metrics-format" ] ~docv:"FMT"
        ~doc:"metrics dump format: $(b,json) (round-trippable) or $(b,text) \
              (Prometheus exposition)")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "record the ordered flight history of this command (op records \
           plus SCM stores, flushes, publication points, lock transitions) \
           to $(docv) as a JSON flight dump; analyze it with \
           $(b,fptree_cli pmcheck), summarize it with $(b,fptree_cli trace)")

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"PATH"
        ~doc:
          "enable the flight recorder and write its event dump to $(docv): \
           at command end, and from any failure-detection point (chaos \
           divergence, injected crash, unrepaired fsck errors); summarize \
           with $(b,fptree_cli trace); '-' writes to stdout")

(* The flag both enables the gate (flight events only exist when the
   observability gate is on) and registers the crash-dump path that
   every failure-detection site writes through. *)
let with_flight flight f =
  (match flight with
  | Some p ->
    Obs.Gate.set_enabled true;
    Obs.Flight.set_crash_dump (Some p)
  | None -> ());
  let r = f () in
  (match flight with
  | Some p ->
    Obs.Flight.dump ~reason:"cli: command completed" p;
    Printf.eprintf "flight: dump -> %s\n" p
  | None -> ());
  r

(* Enable the app-level gate only when a dump was requested, so plain
   CLI runs keep the uninstrumented paths. *)
let with_metrics metrics format trace flight f =
  with_flight flight @@ fun () ->
  (match metrics with Some _ -> Obs.Gate.set_enabled true | None -> ());
  (match trace with
  | Some _ ->
    Scm.Config.set_tracing true;
    Obs.Flight.reset ()
  | None -> ());
  let r = f () in
  (match metrics with Some p -> Obs.Registry.dump ~format p | None -> ());
  (match trace with
  | Some p ->
    Scm.Config.set_tracing false;
    Obs.Flight.dump ~history:true ~reason:"cli: traced command" p;
    Printf.eprintf "trace: history -> %s (%d dropped)\n" p
      (Obs.Flight.history_dropped ())
  | None -> ());
  r

(* ---- commands ---- *)

let create_cmd =
  let run metrics format trace flight path size_mb checksums =
    with_metrics metrics format trace flight @@ fun () ->
    Scm.Registry.clear ();
    (* A non-positive size is refused here; an empty tree fits in the
       smallest (1 MiB) arena. *)
    let alloc = or_die (fun () -> Pmem.Palloc.create ~size:(size_mb * 1024 * 1024) ()) in
    ignore
      (Fptree.Fixed.create
         ~config:{ Fptree.Tree.fptree_config with Fptree.Tree.checksums }
         alloc);
    save (Pmem.Palloc.region alloc) path;
    Printf.printf "created %s (%d MiB arena%s)\n" path size_mb
      (if checksums then ", per-leaf checksums" else "")
  in
  let size =
    Arg.(value & opt int 16 & info [ "size-mb" ] ~doc:"arena size in MiB")
  in
  let checksums =
    Arg.(
      value & flag
      & info [ "checksums" ]
          ~doc:
            "create the tree with per-leaf integrity checksums (recovery \
             quarantines unreadable leaves; a few extra persists per \
             operation)")
  in
  Cmd.v (Cmd.info "create" ~doc:"create an empty persistent tree image")
    Term.(const run $ metrics_arg $ metrics_format_arg $ trace_arg $ flight_arg $ path_arg $ size $ checksums)

let put_cmd =
  let run metrics format trace flight path k v =
    with_metrics metrics format trace flight @@ fun () ->
    let region, t = load_tree path in
    let refused () =
      (* the tree is unchanged on a refusal; save anyway so any
         emergency reclamation the attempt performed persists *)
      save region path;
      die "out of space: arena past the watermark or exhausted (%d bytes free)"
        (Fptree.Fixed.bytes_free t)
    in
    (match Fptree.Fixed.try_insert t k v with
    | Ok true -> ()
    | Ok false -> (
      match Fptree.Fixed.try_update t k v with
      | Ok _ -> ()
      | Error `Out_of_space -> refused ())
    | Error `Out_of_space -> refused ());
    save region path;
    Printf.printf "%d -> %d\n" k v
  in
  Cmd.v (Cmd.info "put" ~doc:"insert or update a pair")
    Term.(const run $ metrics_arg $ metrics_format_arg $ trace_arg $ flight_arg $ path_arg $ key_arg 1 $ key_arg 2)

let get_cmd =
  let run metrics format trace flight path k =
    with_metrics metrics format trace flight @@ fun () ->
    let _, t = load_tree path in
    match Fptree.Fixed.find t k with
    | Some v -> Printf.printf "%d\n" v
    | None ->
      prerr_endline "not found";
      exit 1
  in
  Cmd.v (Cmd.info "get" ~doc:"look a key up")
    Term.(const run $ metrics_arg $ metrics_format_arg $ trace_arg $ flight_arg $ path_arg $ key_arg 1)

let del_cmd =
  let run metrics format trace flight path k =
    with_metrics metrics format trace flight @@ fun () ->
    let region, t = load_tree path in
    let existed = Fptree.Fixed.delete t k in
    save region path;
    print_endline (if existed then "deleted" else "not found")
  in
  Cmd.v (Cmd.info "del" ~doc:"delete a key")
    Term.(const run $ metrics_arg $ metrics_format_arg $ trace_arg $ flight_arg $ path_arg $ key_arg 1)

let range_cmd =
  let run metrics format trace flight path lo hi =
    with_metrics metrics format trace flight @@ fun () ->
    let _, t = load_tree path in
    List.iter
      (fun (k, v) -> Printf.printf "%d %d\n" k v)
      (Fptree.Fixed.range t ~lo ~hi)
  in
  Cmd.v (Cmd.info "range" ~doc:"inclusive range scan")
    Term.(const run $ metrics_arg $ metrics_format_arg $ trace_arg $ flight_arg $ path_arg $ key_arg 1 $ key_arg 2)

let stats_cmd =
  let run metrics format trace flight path =
    with_metrics metrics format trace flight @@ fun () ->
    let _, t = load_tree path in
    Printf.printf "keys:        %d\n" (Fptree.Fixed.count t);
    Printf.printf "leaves:      %d\n" (Fptree.Fixed.leaf_count t);
    Printf.printf "height:      %d (inner levels)\n" (Fptree.Fixed.height t);
    Printf.printf "SCM bytes:   %d\n" (Fptree.Fixed.scm_bytes t);
    Printf.printf "DRAM bytes:  %d (rebuilt on recovery)\n"
      (Fptree.Fixed.dram_bytes t);
    Printf.printf "arena free:  %d bytes (watermark state %s)\n"
      (Fptree.Fixed.bytes_free t)
      (match Fptree.Fixed.watermark_state t with
      | 0 -> "ok"
      | 1 -> "degraded"
      | _ -> "exhausted")
  in
  Cmd.v (Cmd.info "stats" ~doc:"tree statistics")
    Term.(const run $ metrics_arg $ metrics_format_arg $ trace_arg $ flight_arg $ path_arg)

let fill_cmd =
  let run metrics format trace flight path n =
    with_metrics metrics format trace flight @@ fun () ->
    let region, t = load_tree path in
    let base = Fptree.Fixed.count t in
    let refused = ref false in
    (try
       for i = base + 1 to base + n do
         match Fptree.Fixed.try_insert t i (i * 10) with
         | Ok _ -> ()
         | Error `Out_of_space ->
           refused := true;
           raise Exit
       done
     with Exit -> ());
    (* save before reporting: on a refusal the inserts that were
       admitted are kept, and the saved image is fsck-checkable *)
    save region path;
    let now = Fptree.Fixed.count t in
    if !refused then
      die "out of space after %d of %d inserts (%d bytes free); image saved"
        (now - base) n (Fptree.Fixed.bytes_free t)
    else Printf.printf "inserted %d pairs (now %d keys)\n" n now
  in
  Cmd.v (Cmd.info "fill" ~doc:"bulk-insert N sequential pairs")
    Term.(const run $ metrics_arg $ metrics_format_arg $ trace_arg $ flight_arg $ path_arg $ key_arg 1)

(* ---- metrics: pretty-print a saved JSON dump ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let print_metric name j =
  let open Obs.Json in
  match to_string_val (member "type" j) with
  | "counter" ->
    let shards = keys (member "shards" j) in
    Printf.printf "%-34s counter    total=%-12d shards=%d\n" name
      (to_int (member "total" j))
      (List.length shards)
  | "gauge" ->
    Printf.printf "%-34s gauge      value=%d\n" name (to_int (member "value" j))
  | "histogram" ->
    let q p = to_int (member p (member "quantiles" j)) in
    Printf.printf
      "%-34s histogram  count=%-10d mean=%-10.2f p50=%-8d p90=%-8d p99=%-8d max=%d\n"
      name
      (to_int (member "count" j))
      (to_float (member "mean" j))
      (q "p50") (q "p90") (q "p99")
      (to_int (member "max" j))
  | other -> Printf.printf "%-34s %s\n" name other
  | exception _ -> Printf.printf "%-34s ?\n" name

let metrics_cmd =
  let run path =
    match Obs.Json.parse (read_file path) with
    | exception Obs.Json.Parse_error msg ->
      Printf.eprintf "%s: not a JSON metrics dump (%s)\n" path msg;
      exit 1
    | j ->
      let open Obs.Json in
      let metrics = member "metrics" j in
      List.iter (fun name -> print_metric name (member name metrics)) (keys metrics)
  in
  let dump_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DUMP" ~doc:"a JSON metrics dump written by --metrics")
  in
  Cmd.v
    (Cmd.info "metrics" ~doc:"pretty-print a saved JSON metrics dump")
    Term.(const run $ dump_arg)

(* ---- trace: summarize a flight-recorder dump ---- *)

let trace_cmd =
  let module E = Obs.Event in
  let module F = Obs.Flight in
  let run path =
    let { F.events; names; reason; dropped = _ } =
      match F.of_json (Obs.Json.parse (read_file path)) with
      | exception Obs.Json.Parse_error msg ->
        Printf.eprintf "%s: not a JSON flight dump (%s)\n" path msg;
        exit 1
      | exception Failure msg ->
        Printf.eprintf "%s: not a flight dump (%s)\n" path msg;
        exit 1
      | r -> r
    in
    let doms =
      List.sort_uniq compare (List.map (fun e -> e.F.dom) events)
    in
    Printf.printf "flight dump: %s\n" path;
    Printf.printf "reason:      %s\n" reason;
    Printf.printf "events:      %d across %d domain ring(s)\n"
      (List.length events) (List.length doms);
    (* per-op latency percentiles, from op_end durations; hot read
       paths emit most ops as latency-free markers (c = -1) and
       measure a ~1/16 sample, so the count column is every completed
       op while the percentiles come from the sampled subset *)
    let by_kind = Hashtbl.create 8 in
    List.iter
      (fun e ->
        if e.F.tag = E.op_end then
          let total, durs =
            Option.value ~default:(0, [])
              (Hashtbl.find_opt by_kind e.F.a)
          in
          let durs = if e.F.c >= 0 then e.F.c :: durs else durs in
          Hashtbl.replace by_kind e.F.a (total + 1, durs))
      events;
    if Hashtbl.length by_kind > 0 then begin
      Printf.printf "\nper-op latency (completed ops in the ring window):\n";
      Printf.printf "  %-14s %8s %8s %8s %8s %8s %8s\n" "op" "count"
        "sampled" "p50_us" "p90_us" "p99_us" "max_us";
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_kind []
      |> List.sort compare
      |> List.iter (fun (k, (total, durs)) ->
             let a = Array.of_list durs in
             Array.sort compare a;
             let n = Array.length a in
             if n = 0 then
               Printf.printf "  %-14s %8d %8d %8s %8s %8s %8s\n"
                 (E.op_name k) total 0 "-" "-" "-" "-"
             else begin
               let q p = a.(min (n - 1) (p * n / 100)) in
               Printf.printf "  %-14s %8d %8d %8d %8d %8d %8d\n"
                 (E.op_name k) total n (q 50) (q 90) (q 99) a.(n - 1)
             end)
    end;
    (* abort attribution: reason x descent depth (-1 = unknown) *)
    let aborts = List.filter (fun e -> e.F.tag = E.htm_abort) events in
    if aborts <> [] then begin
      let max_depth =
        List.fold_left (fun m e -> max m e.F.c) (-1) aborts
      in
      Printf.printf "\nHTM aborts by reason x descent depth:\n";
      Printf.printf "  %-18s %8s" "reason" "unknown";
      for d = 0 to max_depth do
        Printf.printf " %7s" ("d=" ^ string_of_int d)
      done;
      Printf.printf " %8s\n" "total";
      List.iter
        (fun reason ->
          let mine = List.filter (fun e -> e.F.a = reason) aborts in
          if mine <> [] then begin
            let at d = List.length (List.filter (fun e -> e.F.c = d) mine) in
            Printf.printf "  %-18s %8d" (E.abort_name reason) (at (-1));
            for d = 0 to max_depth do
              Printf.printf " %7d" (at d)
            done;
            Printf.printf " %8d\n" (List.length mine)
          end)
        [ E.abort_precise; E.abort_explicit ]
    end;
    (* top contended nodes: precise aborts carry the failing node *)
    let attributed = List.filter (fun e -> e.F.b <> -1) aborts in
    if attributed <> [] then begin
      let per_node = Hashtbl.create 16 in
      List.iter
        (fun e ->
          Hashtbl.replace per_node e.F.b
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_node e.F.b)))
        attributed;
      let top =
        Hashtbl.fold (fun node n acc -> (n, node) :: acc) per_node []
        |> List.sort (fun a b -> compare b a)
      in
      Printf.printf "\ntop contended nodes (aborts attributed to them):\n";
      List.iteri
        (fun i (n, node) ->
          if i < 10 then
            let what =
              if node = 0 then "root version cell"
              else if node > 0 then Printf.sprintf "leaf @%d" node
              else Printf.sprintf "inner #%d" (-node)
            in
            Printf.printf "  %6d  %s\n" n what)
        top
    end;
    (* serialization pressure *)
    let count tag = List.length (List.filter (fun e -> e.F.tag = tag) events) in
    let fallbacks = count E.fallback_lock and backoffs = count E.backoff_wait in
    if fallbacks + backoffs > 0 then
      Printf.printf "\nfallback-lock acquisitions: %d, backoff waits: %d\n"
        fallbacks backoffs;
    let structural =
      count E.split + count E.merge + count E.root_swap
    in
    if structural > 0 then
      Printf.printf "structural: %d splits, %d merges, %d root swaps\n"
        (count E.split) (count E.merge) (count E.root_swap);
    (* in-flight ops: begins without a matching end in the window *)
    let in_flight = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let bump k d =
          Hashtbl.replace in_flight k
            (d + Option.value ~default:0 (Hashtbl.find_opt in_flight k))
        in
        if e.F.tag = E.op_begin then bump (e.F.dom, e.F.a) 1
        else if e.F.tag = E.op_end then bump (e.F.dom, e.F.a) (-1))
      events;
    let pending =
      Hashtbl.fold (fun k n acc -> if n > 0 then (k, n) :: acc else acc)
        in_flight []
      |> List.sort compare
    in
    if pending <> [] then begin
      Printf.printf "\nin-flight at dump (begin without end in window):\n";
      List.iter
        (fun ((dom, kind), n) ->
          Printf.printf "  dom %d: %d x %s\n" dom n (E.op_name kind))
        pending
    end;
    (* spans (recovery phases etc.) *)
    let spans = List.filter (fun e -> e.F.tag = E.span) events in
    if spans <> [] then begin
      let name_arr = Array.of_list names in
      Printf.printf "\nspans:\n";
      List.iter
        (fun e ->
          let nm =
            if e.F.a >= 0 && e.F.a < Array.length name_arr then name_arr.(e.F.a)
            else "span_" ^ string_of_int e.F.a
          in
          Printf.printf "  %-34s %10d us  dom %d\n" nm e.F.b e.F.dom)
        spans
    end
  in
  let dump_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DUMP"
          ~doc:"a JSON flight dump written by --flight-dump")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "summarize a flight-recorder dump: per-op latency percentiles, HTM \
          abort attribution by reason and descent depth, top contended \
          nodes, serialization pressure, in-flight ops at dump time")
    Term.(const run $ dump_arg)

(* ---- wear: SCM traffic attribution and wear telemetry ---- *)

let wear_cmd =
  let module A = Obs.Attrib in
  let run path ops top heatmap_out =
    (* Instrumented end to end: the attribution matrix and the spatial
       heatmap only fill on the instrumented region paths. *)
    Scm.Config.set_stats true;
    Scm.Config.current.Scm.Config.wear_heatmap <- true;
    let region, t = load_tree path in
    (* Recovery already charged the matrix (recovery/alloc_meta rows);
       reset so the report prices exactly the workload below. *)
    Scm.Stats.reset ();
    Scm.Region.clear_heatmap region;
    let base = Fptree.Fixed.count t in
    (* Deterministic mixed workload: fills (forcing splits), updates,
       deletes, lookups — enough of each that every component row is
       exercised. *)
    or_die (fun () ->
        let admitted = function
          | Ok _ -> ()
          | Error `Out_of_space ->
            failwith "out of space during the wear workload (use a larger image)"
        in
        for i = base + 1 to base + ops do
          admitted (Fptree.Fixed.try_insert t i (i * 10))
        done;
        for i = base + 1 to base + ops do
          if i mod 2 = 0 then admitted (Fptree.Fixed.try_update t i (i * 11));
          if i mod 4 = 0 then ignore (Fptree.Fixed.delete t i);
          ignore (Fptree.Fixed.find t i)
        done;
        ignore (Fptree.Fixed.reclaim_space t));
    let st = Fptree.Fixed.stats t in
    (* (component x op) persist matrix, components as rows *)
    Printf.printf "attribution (component x quantity, workload only):\n";
    Printf.printf "  %-12s %12s %12s %10s %10s\n" "component" "store_bytes"
      "line_writes" "flushes" "persists";
    for c = 0 to A.n_comps - 1 do
      let v q = A.comp_total ~comp:c q in
      if v A.q_bytes + v A.q_lines + v A.q_flushes + v A.q_persists > 0 then
        Printf.printf "  %-12s %12d %12d %10d %10d\n" A.comp_name.(c)
          (v A.q_bytes) (v A.q_lines) (v A.q_flushes) (v A.q_persists)
    done;
    Printf.printf "\nwear report:\n%s\n"
      (Format.asprintf "%a" Scm.Wear.pp_report (Scm.Wear.report ~k:top region));
    let r = Scm.Wear.report ~k:top region in
    if r.Scm.Wear.top <> [] then begin
      Printf.printf "\nhottest lines (sampled writes, components):\n";
      List.iter
        (fun ls ->
          Printf.printf "  line %-8d %8d  [%s]\n" ls.Scm.Wear.line
            ls.Scm.Wear.count
            (String.concat ","
               (Scm.Wear.comp_names_of_mask ls.Scm.Wear.comps)))
        r.Scm.Wear.top
    end;
    (* machine-readable line for the bench_check wear stage *)
    Printf.printf
      "\nworkload: inserts=%d splits=%d leaf_deletes=%d \
       microlog_persists=%d\n"
      ops st.Fptree.Tree.leaf_splits st.Fptree.Tree.leaf_deletes
      (A.comp_total ~comp:A.comp_microlog A.q_persists);
    (match heatmap_out with
    | None -> ()
    | Some p ->
      let oc = open_out p in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc
            (Obs.Json.to_string (Scm.Wear.heatmap_to_json region)));
      Printf.eprintf "heatmap: dump -> %s\n" p);
    (* the headline invariant, checked last so the report still prints *)
    let rows = Scm.Wear.crosscheck () in
    Printf.printf "\nattribution cross-check (matrix sums vs globals):\n";
    List.iter
      (fun row ->
        Printf.printf "  %-12s global=%-12d matrix=%-12d %s\n"
          row.Scm.Wear.quantity row.Scm.Wear.global row.Scm.Wear.matrix
          (if row.Scm.Wear.global = row.Scm.Wear.matrix then "ok" else "MISMATCH"))
      rows;
    if not (Scm.Wear.crosscheck_ok rows) then begin
      prerr_endline "fptree_cli: attribution mismatch (dropped or double charge)";
      exit 2
    end
  in
  let ops =
    Arg.(value & opt int 2000
         & info [ "ops" ] ~docv:"N" ~doc:"workload size (inserts; half \
                                          updated, a quarter deleted)")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"hottest lines to list")
  in
  let heatmap_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "heatmap" ] ~docv:"PATH"
          ~doc:"dump the spatial line-write heatmap (sparse JSON; \
                round-trips through Obs.Json)")
  in
  Cmd.v
    (Cmd.info "wear"
       ~doc:
         "run an instrumented mixed workload against a tree image and \
          report SCM wear telemetry: per-component write attribution, \
          write amplification, line-write skew (Gini), hottest lines; \
          exits 2 if the attribution matrix disagrees with the global \
          counters")
    Term.(const run $ path_arg $ ops $ top $ heatmap_out)

(* ---- pmcheck: analyze a saved persistence trace ---- *)

let pmcheck_cmd =
  let run path quiet =
    let events =
      match Pmcheck.Trace_io.load path with
      | exception Obs.Json.Parse_error msg ->
        Printf.eprintf "%s: not a JSON trace (%s)\n" path msg;
        exit 1
      | exception Failure msg ->
        Printf.eprintf "%s: not a flight dump (%s)\n" path msg;
        exit 1
      | ev, 0 -> ev
      | ev, dropped ->
        (* the buffer cap discarded events: a clean analysis of the
           rest would certify a run it never saw *)
        Printf.printf "%d events, %d dropped: trace truncated, not analyzed\n"
          (Array.length ev) dropped;
        exit 1
    in
    let findings = Pmcheck.Analyzer.analyze events in
    let by_class = Pmcheck.Analyzer.summary findings in
    Printf.printf "%d events, %d findings\n" (Array.length events)
      (List.length findings);
    List.iter (fun (cls, n) -> Printf.printf "  %-24s %d\n" cls n) by_class;
    if not quiet then
      List.iter
        (fun f ->
          Format.printf "%a@." Pmcheck.Analyzer.pp_finding f)
        findings;
    if Pmcheck.Analyzer.errors findings <> [] then exit 2
  in
  let trace_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE" ~doc:"a JSON flight dump written by --trace")
  in
  let quiet =
    Arg.(value & flag & info [ "summary" ] ~doc:"print only per-class counts")
  in
  Cmd.v
    (Cmd.info "pmcheck"
       ~doc:
         "analyze a persistence trace for crash-consistency violations \
          (missing persists, unlogged link writes, lock races, redundant \
          flushes); exits 2 if any error-severity finding is present, 1 \
          if the trace is truncated (events dropped)")
    Term.(const run $ trace_pos $ quiet)

(* ---- fsck: offline structural audit / salvage ---- *)

let fsck_cmd =
  let run path repair quiet flight =
    with_flight flight @@ fun () ->
    let region = load_region path in
    let report = or_die (fun () -> Fsck.check ~repair region) in
    (* of_region log replay and repair actions both mutate the image *)
    if repair then save region path;
    if not quiet then
      List.iter
        (fun f -> Format.printf "%a@." Fsck.pp_finding f)
        report.Fsck.findings;
    Printf.printf "blocks=%d chain_leaves=%d keys=%d findings=%d repairs=%d\n"
      report.Fsck.blocks report.Fsck.chain_leaves report.Fsck.keys
      (List.length report.Fsck.findings) report.Fsck.repairs;
    if Fsck.errors report <> [] then exit 2
  in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "splice bad links, refresh stale integrity cells and reclaim \
             unowned blocks (crash-safe; keys behind a truncated link are \
             lost either way)")
  in
  let quiet =
    Arg.(value & flag & info [ "summary" ] ~doc:"print only the summary line")
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "audit a tree image: cross-check the linked leaf list against the \
          allocator (orphans, leaks, dangling and double links, corrupt \
          leaves); exits 2 if unrepaired errors remain")
    Term.(const run $ path_arg $ repair $ quiet $ flight_arg)

(* ---- chaos: randomized crash-recover-verify loops ---- *)

let chaos_cmd =
  let run seed iterations ops checksums concurrent exhaustion flight =
    with_flight flight @@ fun () ->
    let base =
      if concurrent then Fptree.Tree.fptree_concurrent_config
      else Fptree.Tree.fptree_config
    in
    let config = { base with Fptree.Tree.checksums } in
    if exhaustion then begin
      match Pmcheck.Chaos.run_exhaustion ~config ~seed () with
      | r ->
        Printf.printf
          "chaos: exhaustion scenario ok (admitted=%d refusals=%d \
           boundary_ops=%d recovered_keys=%d)\n"
          r.Pmcheck.Chaos.admitted r.Pmcheck.Chaos.refusals
          r.Pmcheck.Chaos.boundary_ops r.Pmcheck.Chaos.recovered_keys
      | exception Pmcheck.Chaos.Divergence msg ->
        prerr_endline ("fptree_cli: " ^ msg);
        exit 2
    end
    else
      match
        Pmcheck.Chaos.run ~config ~seed ~iterations ~ops_per_iter:ops ()
      with
      | r ->
        Printf.printf
          "chaos: %d iterations ok (ops=%d clean=%d crashes=%d torn=%d \
           alloc_failures=%d keys=%d)\n"
          r.Pmcheck.Chaos.iterations r.Pmcheck.Chaos.ops r.Pmcheck.Chaos.clean
          r.Pmcheck.Chaos.crashes r.Pmcheck.Chaos.torn
          r.Pmcheck.Chaos.alloc_failures r.Pmcheck.Chaos.final_keys
      | exception Pmcheck.Chaos.Divergence msg ->
        prerr_endline ("fptree_cli: " ^ msg);
        exit 2
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed") in
  let iterations =
    Arg.(value & opt int 500
         & info [ "iterations" ] ~docv:"N"
             ~doc:"crash-recover-verify iterations")
  in
  let ops =
    Arg.(value & opt int 40 & info [ "ops" ] ~docv:"N"
         ~doc:"operations per iteration")
  in
  let checksums =
    Arg.(value & flag & info [ "checksums" ] ~doc:"per-leaf integrity checksums")
  in
  let concurrent =
    Arg.(value & flag
         & info [ "concurrent" ] ~doc:"concurrent-FPTree configuration (m=64)")
  in
  let exhaustion =
    Arg.(value & flag
         & info [ "exhaustion" ]
             ~doc:
               "run the capacity-exhaustion scenario instead: fill a small \
                arena until the watermark refuses, verify degraded-mode \
                serving, hammer the boundary, crash there and verify \
                recovery (ignores $(b,--iterations)/$(b,--ops))")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "seeded randomized crash-recover-verify loop against an in-DRAM \
          oracle (mixed clean restarts, crashes, torn stores, allocation \
          failures); exits 2 on any divergence (the divergence report \
          names the $(b,--flight-dump) file when one is configured)")
    Term.(const run $ seed $ iterations $ ops $ checksums $ concurrent $ exhaustion $ flight_arg)

(* ---- corrupt: deterministic damage injection (fsck's test subject) ---- *)

let corrupt_cmd =
  let run path kind seed bits =
    let region, t = load_tree path in
    let leaves = ref [] in
    Fptree.Fixed.iter_leaves t (fun l -> leaves := l :: !leaves);
    let leaves = Array.of_list (List.rev !leaves) in
    let layout = t.Fptree.Fixed.layout in
    let mid = leaves.(Array.length leaves / 2) in
    (match kind with
    | `Link ->
      (* An in-region but implausible target: fsck classifies it as a
         dangling link and repair truncates there. *)
      Pmem.Pptr.write_committed region
        (mid + layout.Fptree.Layout.next_off)
        { Pmem.Pptr.region_id = Scm.Region.id region;
          off = Scm.Region.size region - 8 };
      Printf.printf "corrupt: dangling next pointer at leaf %d\n" mid
    | `Head ->
      (* The same implausible target in the descriptor's head link:
         no leaf is reachable, so recovery refuses the image. *)
      Pmem.Pptr.write_committed region
        (t.Fptree.Fixed.meta + Fptree.Descriptor.meta_head)
        { Pmem.Pptr.region_id = Scm.Region.id region;
          off = Scm.Region.size region - 8 };
      Printf.printf "corrupt: dangling leaf-list head\n"
    | `Orphan ->
      (* Allocate through the allocator's scratch cell, then retract the
         reference: an allocated block no structure owns. *)
      let a = Fptree.Fixed.alloc t in
      Pmem.Palloc.alloc a ~into:(Pmem.Pptr.Loc.make region 32) 256;
      let off = (Pmem.Pptr.read region 32).Pmem.Pptr.off in
      Pmem.Pptr.write region 32 Pmem.Pptr.null;
      Scm.Region.persist region 32 Pmem.Pptr.size_bytes;
      Printf.printf "corrupt: unreferenced allocated block at %d\n" off
    | `Media ->
      let off = mid + layout.Fptree.Layout.data_off in
      let len = layout.Fptree.Layout.bytes - layout.Fptree.Layout.data_off in
      Scm.Region.corrupt region ~off ~len ~bits ~seed;
      Printf.printf "corrupt: flipped %d bits in leaf %d data\n" bits mid);
    save region path
  in
  let kind =
    Arg.(
      required
      & pos 1 (some (enum [ ("link", `Link); ("head", `Head);
                            ("orphan", `Orphan); ("media", `Media) ])) None
      & info [] ~docv:"KIND"
          ~doc:"damage class: $(b,link) (dangling next pointer), \
                $(b,head) (dangling leaf-list head in the descriptor), \
                $(b,orphan) (allocated unreferenced block), $(b,media) \
                (flip bits in a leaf's data)")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"N" ~doc:"bit-flip seed") in
  let bits = Arg.(value & opt int 8 & info [ "bits" ] ~docv:"N" ~doc:"bits to flip (media)") in
  Cmd.v
    (Cmd.info "corrupt"
       ~doc:
         "inject deterministic damage into a tree image (fault-injection \
          subject for $(b,fsck) and recovery testing)")
    Term.(const run $ path_arg $ kind $ seed $ bits)

(* ---- mcheck: DPOR model checking of the concurrency protocol ---- *)

let mcheck_cmd =
  let run scenario regression compare_dfs limit max_steps =
    let scenarios =
      if scenario = "all" then Mcheck.Scenarios.catalog
      else
        match Mcheck.Scenarios.find scenario with
        | Some sc -> [ sc ]
        | None ->
          die "unknown scenario %S (have: %s)" scenario
            (String.concat ", "
               (List.map
                  (fun s -> s.Mcheck.Dpor.name)
                  Mcheck.Scenarios.catalog))
    in
    let failed = ref false in
    let check_one sc =
      let r = Mcheck.Dpor.explore ~limit ~max_steps sc in
      Printf.printf "%-28s %6d schedules (+%d sleep-pruned, %d bound-hit), deepest %d%s\n%!"
        r.Mcheck.Dpor.scenario r.Mcheck.Dpor.schedules r.Mcheck.Dpor.abandoned
        r.Mcheck.Dpor.bound_hits r.Mcheck.Dpor.deepest
        (if r.Mcheck.Dpor.truncated then "  [TRUNCATED]" else "");
      (if compare_dfs then begin
         let full =
           Mcheck.Dpor.explore ~dpor:false ~limit ~max_steps sc
         in
         Printf.printf
           "%-28s %6d schedules without DPOR%s (%.1fx reduction%s)\n%!" ""
           full.Mcheck.Dpor.schedules
           (if full.Mcheck.Dpor.truncated then " [TRUNCATED]" else "")
           (float_of_int full.Mcheck.Dpor.schedules
           /. float_of_int (max 1 r.Mcheck.Dpor.schedules))
           (if full.Mcheck.Dpor.truncated then ", lower bound" else "")
       end);
      match r.Mcheck.Dpor.failure with
      | None -> ()
      | Some f ->
        failed := true;
        Printf.printf "counterexample in %s at schedule %d: %s\n"
          sc.Mcheck.Dpor.name f.Mcheck.Dpor.f_schedule f.Mcheck.Dpor.f_outcome;
        let tr = Mcheck.Dpor.minimize sc f.Mcheck.Dpor.f_trace in
        Printf.printf "minimized interleaving (%d accesses):\n%s%!"
          (Array.length tr)
          (Mcheck.Dpor.render_trace tr)
    in
    if regression then
      Mcheck.Scenarios.with_regression_hole (fun () ->
          List.iter check_one scenarios)
    else List.iter check_one scenarios;
    if !failed then exit 2
  in
  let scenario =
    Arg.(value & opt string "all"
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:"scenario to check, or $(b,all) for the catalog")
  in
  let regression =
    Arg.(value & flag
         & info [ "regression" ]
             ~doc:"re-open the PR 5 root-pointer validation hole before \
                   checking (the checker is expected to find it; the \
                   command then exits 2)")
  in
  let compare_dfs =
    Arg.(value & flag
         & info [ "compare-dfs" ]
             ~doc:"also explore without partial-order reduction and \
                   report the pruning factor")
  in
  let limit =
    Arg.(value & opt int 400_000
         & info [ "limit" ] ~docv:"N" ~doc:"execution budget per scenario")
  in
  let max_steps =
    Arg.(value & opt int 5_000
         & info [ "max-steps" ] ~docv:"N"
             ~doc:"shared-access bound per execution")
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "exhaustively model-check the optimistic-concurrency protocol: \
          enumerate all non-equivalent thread interleavings of small \
          catalog scenarios (DPOR with sleep sets) over a real tree, \
          checking linearizability against a sequential oracle, \
          structural invariants, and exact abort accounting; exits 2 \
          with a minimized interleaving trace on any counterexample")
    Term.(
      const run $ scenario $ regression $ compare_dfs $ limit $ max_steps)

let () =
  let info = Cmd.info "fptree_cli" ~doc:"persistent FPTree image tool" in
  exit
    (Cmd.eval
       (Cmd.group info
          [ create_cmd; put_cmd; get_cmd; del_cmd; range_cmd; stats_cmd; fill_cmd;
            metrics_cmd; trace_cmd; wear_cmd; pmcheck_cmd; fsck_cmd; chaos_cmd;
            corrupt_cmd; mcheck_cmd ]))
