(** Figure 7: single-threaded Find / Insert / Update / Delete average
    time per operation as a function of SCM latency (a–d fixed-size
    keys, g–j variable-size keys), and recovery time vs tree size at
    90 ns and 650 ns (e–f, k–l).

    Latency substitution: every tree runs once; the simulator counts
    SCM cache-line misses, and the per-op time at latency L is modeled
    as wall + misses x (L - DRAM).  Shapes (who wins, whose curve is
    flat) are the reproduction target, not absolute microseconds. *)

let latencies = [ 90.; 250.; 450.; 650. ]

let ops_of_tree warm run_ops (t : 'k Trees.handle) keys op =
  ignore warm;
  match op with
  | "Find" -> fun () -> Array.iter (fun k -> ignore (t.Trees.find k)) keys
  | "Insert" -> fun () -> Array.iter (fun k -> ignore (t.Trees.insert k run_ops)) keys
  | "Update" -> fun () -> Array.iter (fun k -> ignore (t.Trees.update k 7)) keys
  | "Delete" -> fun () -> Array.iter (fun k -> ignore (t.Trees.delete k)) keys
  | _ -> assert false

let run_family ~title ~names ~make ~warm_keys ~op_keys ~insert_keys =
  ignore title;
  let n_ops = Array.length op_keys in
  List.iter
    (fun op ->
      (* one measured run per tree; the latency sweep is computed from
         the same SCM miss counters *)
      let results =
        List.map
          (fun name ->
            Env.single ();
            let t : _ Trees.handle = make name in
            Array.iter (fun k -> ignore (t.Trees.insert k 1)) warm_keys;
            let keys = if op = "Insert" then insert_keys else op_keys in
            let modeled, _wall =
              Report.measure_modeled ~latencies_ns:latencies ~n:n_ops
                (ops_of_tree () n_ops t keys op)
            in
            (name, modeled))
          names
      in
      Report.subheading (Printf.sprintf "%s: avg us/op vs SCM latency (ns)" op);
      Report.table ~rows:names
        ~headers:(List.map (fun l -> string_of_int (int_of_float l)) latencies)
        ~cell:(fun name header ->
          let lat = float_of_string header in
          Report.us (List.assoc lat (List.assoc name results))))
    [ "Find"; "Insert"; "Update"; "Delete" ]

let run_fixed () =
  Report.heading "Figure 7a-d: single-threaded base operations, fixed-size keys";
  let warm = Env.scaled 100_000 in
  let nops = Env.scaled 50_000 in
  let warm_keys = Array.map (fun i -> i * 2) (Workloads.Keygen.permutation ~seed:1 warm) in
  let op_keys = Array.sub warm_keys 0 nops in
  let insert_keys =
    Array.map (fun i -> (i * 2) + 1) (Workloads.Keygen.permutation ~seed:2 nops)
  in
  run_family ~title:"fixed" ~names:Trees.fixed_names
    ~make:(fun n -> Trees.make_fixed n)
    ~warm_keys ~op_keys ~insert_keys

let run_var () =
  Report.heading "Figure 7g-j: single-threaded base operations, variable-size keys";
  let warm = Env.scaled 50_000 in
  let nops = Env.scaled 25_000 in
  let skey i = Workloads.Keygen.string_key_16 i in
  let warm_keys =
    Array.map (fun i -> skey (i * 2)) (Workloads.Keygen.permutation ~seed:1 warm)
  in
  let op_keys = Array.sub warm_keys 0 nops in
  let insert_keys =
    Array.map (fun i -> skey ((i * 2) + 1)) (Workloads.Keygen.permutation ~seed:2 nops)
  in
  run_family ~title:"var" ~names:Trees.var_names
    ~make:(fun n -> Trees.make_var n)
    ~warm_keys ~op_keys ~insert_keys

(* ---- recovery (e, f, k, l) ---- *)

let recovery_sizes () = List.map Env.scaled [ 10_000; 50_000; 200_000 ]

let run_recovery_family ~title ~names ~make ~key_of =
  Report.heading title;
  List.iter
    (fun lat ->
      Report.subheading
        (Printf.sprintf "recovery time (ms) vs tree size, SCM latency %.0f ns" lat);
      Report.table
        ~rows:(List.map string_of_int (recovery_sizes ()))
        ~headers:names
        ~cell:(fun r name ->
          let size = int_of_string r in
          Env.single ();
          Scm.Config.set_delay_injection (lat > 90.);
          Scm.Config.set_latency ~read_ns:lat ();
          let t : _ Trees.handle = make name in
          let keys = Workloads.Keygen.permutation ~seed:3 size in
          Array.iter (fun i -> ignore (t.Trees.insert (key_of i) 1)) keys;
          let secs = t.Trees.recover () in
          (* Untimed, without the injected delay: the recovered tree
             must route every inserted key to its value. *)
          Scm.Config.set_delay_injection false;
          Array.iter
            (fun i ->
              if t.Trees.find (key_of i) <> Some 1 then begin
                Printf.printf "FAIL: %s lost key %d of %d after recovery\n"
                  name i size;
                exit 1
              end)
            keys;
          Report.ms secs))
    [ 90.; 650. ];
  Report.note
    "STXTree rows are full rebuilds (the transient baseline); wBTree recovery \
     is constant-time (all-SCM structure)"

let run_recovery_fixed () =
  run_recovery_family
    ~title:"Figure 7e-f: recovery time, fixed-size keys"
    ~names:Trees.fixed_names
    ~make:(fun n -> Trees.make_fixed n)
    ~key_of:Fun.id

let run_recovery_var () =
  run_recovery_family
    ~title:"Figure 7k-l: recovery time, variable-size keys"
    ~names:Trees.var_names
    ~make:(fun n -> Trees.make_var n)
    ~key_of:Workloads.Keygen.string_key_16
