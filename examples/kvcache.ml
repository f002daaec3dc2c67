(* memcached-style cache demo: a persistent FPTree index under a
   concurrent SET/GET workload, then a comparison of backends.

   Run with:  dune exec examples/kvcache.exe *)

let () =
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_stats false;
  let arena = Pmem.Palloc.create ~size:(256 * 1024 * 1024) () in
  let cache =
    Kvstore.Cache.create
      (Kvstore.Tree_ops.of_fptree_concurrent (Fptree.Var.create_concurrent arena))
  in
  Kvstore.Cache.set_exn cache "user:1001" "alice";
  Kvstore.Cache.set_exn cache "user:1002" "bob";
  (match Kvstore.Cache.get cache "user:1001" with
  | Some v -> Printf.printf "GET user:1001 -> %s\n%!" v
  | None -> assert false);

  (* mc-benchmark style run over several backends *)
  let backends =
    [
      ( "FPTreeC (persistent, concurrent)",
        fun () ->
          Kvstore.Tree_ops.of_fptree_concurrent
            (Fptree.Var.create_concurrent
               (Pmem.Palloc.create ~size:(256 * 1024 * 1024) ())) );
      ( "wBTree  (persistent, global lock)",
        fun () ->
          Kvstore.Tree_ops.of_tree ~name:"wBTree" ~concurrent:false
            (module Baselines.Wbtree.Var)
            (Baselines.Wbtree.Var.create
               (Pmem.Palloc.create ~size:(256 * 1024 * 1024) ())) );
      ("HashMap (transient)", fun () -> Kvstore.Tree_ops.of_hashmap ());
    ]
  in
  Printf.printf "\nmc-benchmark (20k ops, %d clients):\n"
    (Workloads.Domain_pool.available_domains ());
  List.iter
    (fun (name, mk) ->
      let c = Kvstore.Cache.create (mk ()) in
      let r =
        Kvstore.Mc_bench.run
          ~clients:(Workloads.Domain_pool.available_domains ())
          ~n_ops:20_000 ~net_cost_ns:2000. c
      in
      Printf.printf "  %-36s SET %7.0f ops/s   GET %7.0f ops/s\n%!" name
        r.Kvstore.Mc_bench.set_throughput r.Kvstore.Mc_bench.get_throughput)
    backends
