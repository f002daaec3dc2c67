(** Figure 13: memcached-style cache throughput with each tree as the
    internal index — mc-benchmark SET phase then GET phase, at the two
    DRAM/remote latencies (85 ns and 145 ns).  A fixed per-request
    network cost models the paper's 940 Mbit/s-bound setup: concurrent
    indexes saturate the pipeline, single-threaded ones serialize. *)

let backends () =
  let tree name ~concurrent impl mk =
    (name, fun () -> Kvstore.Tree_ops.of_tree ~name ~concurrent impl (mk ()))
  in
  [
    tree "FPTree" ~concurrent:false (module Fptree.Var) (fun () ->
        Fptree.Var.create_single (Trees.arena ()));
    ("FPTreeC", fun () ->
        Kvstore.Tree_ops.of_fptree_concurrent
          (Fptree.Var.create_concurrent (Trees.arena ())));
    tree "PTree" ~concurrent:false (module Fptree.Ptree.Var) (fun () ->
        Fptree.Ptree.Var.create (Trees.arena ()));
    tree "NV-TreeC" ~concurrent:true (module Baselines.Nvtree.Var) (fun () ->
        Baselines.Nvtree.Var.create (Trees.arena ()));
    tree "wBTree" ~concurrent:false (module Baselines.Wbtree.Var) (fun () ->
        Baselines.Wbtree.Var.create (Trees.arena ()));
    tree "STXTree" ~concurrent:false (module Baselines.Stxtree.Var)
      Baselines.Stxtree.Var.create;
    ("HashMap", fun () -> Kvstore.Tree_ops.of_hashmap ());
  ]

let latencies = [ 85.; 145. ]

let run () =
  let n_ops = Env.scaled 50_000 in
  let clients = max 2 (Workloads.Domain_pool.available_domains ()) in
  Report.heading
    (Printf.sprintf "Figure 13: memcached throughput (Kops/s), %d ops, %d clients"
       n_ops clients);
  let results =
    List.map
      (fun (name, mk) ->
        ( name,
          List.map
            (fun lat ->
              Env.parallel ~latency_ns:lat ();
              let cache = Kvstore.Cache.create (mk ()) in
              let r =
                Kvstore.Mc_bench.run ~clients ~n_ops ~net_cost_ns:2000. cache
              in
              (lat, r))
            latencies ))
      (backends ())
  in
  let names = List.map fst (backends ()) in
  List.iter
    (fun (phase, get) ->
      Report.subheading (phase ^ " requests (Kops/s)");
      Report.table ~rows:names
        ~headers:(List.map (fun l -> Printf.sprintf "%.0fns" l) latencies)
        ~cell:(fun name h ->
          let lat = float_of_string (String.sub h 0 (String.length h - 2)) in
          Report.f1 (get (List.assoc lat (List.assoc name results)) /. 1000.)))
    [
      ("SET", fun r -> r.Kvstore.Mc_bench.set_throughput);
      ("GET", fun r -> r.Kvstore.Mc_bench.get_throughput);
    ];
  Report.note
    "expected shape: FPTreeC and NV-TreeC within a few %% of the HashMap \
     (pipeline-bound); single-threaded trees lose significantly on SETs, \
     more at the higher latency"
