(* Tests of the two end-to-end integrations: the memcached-style cache
   and the TATP prototype database. *)

let setup_concurrent () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_stats false

(* ---- kvstore ---- *)

let mk_cache_fptree () =
  let a = Pmem.Palloc.create ~size:(128 * 1024 * 1024) () in
  Kvstore.Cache.create
    (Kvstore.Tree_ops.of_fptree_concurrent (Fptree.Var.create_concurrent a))

let test_cache_set_get () =
  setup_concurrent ();
  let c = mk_cache_fptree () in
  Kvstore.Cache.set_exn c "hello" "world";
  Alcotest.(check (option string)) "get" (Some "world") (Kvstore.Cache.get c "hello");
  Kvstore.Cache.set_exn c "hello" "mars";
  Alcotest.(check (option string)) "overwrite" (Some "mars") (Kvstore.Cache.get c "hello");
  Alcotest.(check (option string)) "miss" None (Kvstore.Cache.get c "absent");
  Alcotest.(check bool) "delete" true (Kvstore.Cache.delete c "hello");
  Alcotest.(check (option string)) "gone" None (Kvstore.Cache.get c "hello");
  Alcotest.(check int) "hit/miss accounting" 2
    (Kvstore.Cache.misses c)

let test_cache_item_store_growth () =
  setup_concurrent ();
  let c = mk_cache_fptree () in
  for i = 0 to 20_000 do
    Kvstore.Cache.set_exn c (Printf.sprintf "k%06d" i) (Printf.sprintf "v%06d" i)
  done;
  Alcotest.(check (option string)) "early key" (Some "v000000")
    (Kvstore.Cache.get c "k000000");
  Alcotest.(check (option string)) "late key" (Some "v020000")
    (Kvstore.Cache.get c "k020000")

let test_cache_all_backends () =
  (* every tree behind the same cache facade behaves identically *)
  let backends =
    [
      (fun () ->
        let a = Pmem.Palloc.create ~size:(64 * 1024 * 1024) () in
        Kvstore.Tree_ops.of_fptree_concurrent (Fptree.Var.create_concurrent a));
      (fun () ->
        let a = Pmem.Palloc.create ~size:(64 * 1024 * 1024) () in
        Kvstore.Tree_ops.of_tree ~name:"FPTree" ~concurrent:false
          (module Fptree.Var) (Fptree.Var.create_single a));
      (fun () ->
        let a = Pmem.Palloc.create ~size:(64 * 1024 * 1024) () in
        Kvstore.Tree_ops.of_tree ~name:"PTree" ~concurrent:false
          (module Fptree.Ptree.Var) (Fptree.Ptree.Var.create a));
      (fun () ->
        let a = Pmem.Palloc.create ~size:(64 * 1024 * 1024) () in
        Kvstore.Tree_ops.of_tree ~name:"NV-TreeC" ~concurrent:true
          (module Baselines.Nvtree.Var) (Baselines.Nvtree.Var.create a));
      (fun () ->
        let a = Pmem.Palloc.create ~size:(64 * 1024 * 1024) () in
        Kvstore.Tree_ops.of_tree ~name:"wBTree" ~concurrent:false
          (module Baselines.Wbtree.Var) (Baselines.Wbtree.Var.create a));
      (fun () ->
        Kvstore.Tree_ops.of_tree ~name:"STXTree" ~concurrent:false
          (module Baselines.Stxtree.Var) (Baselines.Stxtree.Var.create ()));
      (fun () -> Kvstore.Tree_ops.of_hashmap ());
    ]
  in
  List.iter
    (fun mk ->
      setup_concurrent ();
      let index = mk () in
      let c = Kvstore.Cache.create index in
      for i = 0 to 499 do
        Kvstore.Cache.set_exn c (Printf.sprintf "x%04d" i) (string_of_int i)
      done;
      for i = 0 to 499 do
        let got = Kvstore.Cache.get c (Printf.sprintf "x%04d" i) in
        if got <> Some (string_of_int i) then
          Alcotest.failf "backend %s: wrong value for %d"
            index.Kvstore.Tree_ops.name i
      done)
    backends;
  Alcotest.(check pass) "all backends consistent" () ()

let test_mc_bench_smoke () =
  setup_concurrent ();
  let c = mk_cache_fptree () in
  let r = Kvstore.Mc_bench.run ~clients:2 ~n_ops:5_000 c in
  Alcotest.(check bool) "set throughput positive" true
    (r.Kvstore.Mc_bench.set_throughput > 0.);
  Alcotest.(check bool) "get throughput positive" true
    (r.Kvstore.Mc_bench.get_throughput > 0.)

let test_mc_bench_net_cost () =
  (* the simulated-network knob must throttle throughput, not just run:
     at 1 ms/request two clients cannot exceed ~2k requests/s *)
  setup_concurrent ();
  let c = mk_cache_fptree () in
  let r =
    Kvstore.Mc_bench.run ~clients:2 ~n_ops:200 ~value_len:64
      ~net_cost_ns:1_000_000. c
  in
  Alcotest.(check bool) "set throughput positive" true
    (r.Kvstore.Mc_bench.set_throughput > 0.);
  Alcotest.(check bool) "network cost bounds set throughput" true
    (r.Kvstore.Mc_bench.set_throughput < 10_000.);
  Alcotest.(check bool) "network cost bounds get throughput" true
    (r.Kvstore.Mc_bench.get_throughput < 10_000.)

(* ---- TATP prototype database ---- *)

let test_tatp_populate_and_query () =
  setup_concurrent ();
  let db = Dbproto.Tatp.populate ~subscribers:2_000 Dbproto.Index.FPTree in
  Alcotest.(check int) "subscriber index count" 2_000
    (db.Dbproto.Tatp.sub_index.Dbproto.Index.count ());
  (* deterministic row check *)
  let v = Dbproto.Tatp.get_subscriber_data db 1 in
  Alcotest.(check bool) "subscriber data nonzero" true (v <> 0);
  let v2 = Dbproto.Tatp.get_access_data db 1 1 in
  Alcotest.(check bool) "access data (ai_type=1 always present)" true (v2 <> 0);
  Alcotest.(check int) "missing subscriber reads zero" 0
    (Dbproto.Tatp.get_subscriber_data db 1_000_000)

let test_tatp_all_kinds_agree () =
  (* the same deterministic population must answer queries identically
     whatever the index *)
  let answers kind =
    setup_concurrent ();
    let db = Dbproto.Tatp.populate ~subscribers:500 kind in
    List.init 200 (fun i ->
        let s = (i mod 500) + 1 in
        ( Dbproto.Tatp.get_subscriber_data db s,
          Dbproto.Tatp.get_access_data db s ((i mod 4) + 1),
          Dbproto.Tatp.get_new_destination db s ((i mod 4) + 1) (i mod 3) ))
  in
  let reference = answers Dbproto.Index.FPTree in
  List.iter
    (fun kind ->
      if answers kind <> reference then
        Alcotest.failf "index %s disagrees with FPTree"
          (Dbproto.Index.kind_name kind))
    [ Dbproto.Index.PTree; Dbproto.Index.NVTree; Dbproto.Index.WBTree;
      Dbproto.Index.STXTree ];
  Alcotest.(check pass) "all index kinds agree" () ()

let test_tatp_benchmark_runs () =
  setup_concurrent ();
  let db = Dbproto.Tatp.populate ~subscribers:2_000 Dbproto.Index.FPTree in
  let tps = Dbproto.Tatp.run_benchmark ~clients:2 ~n_tx:10_000 db in
  Alcotest.(check bool) "throughput positive" true (tps > 0.)

let test_tatp_restart () =
  setup_concurrent ();
  let db = Dbproto.Tatp.populate ~subscribers:1_000 Dbproto.Index.FPTree in
  let before = Dbproto.Tatp.get_subscriber_data db 123 in
  let db', secs = Dbproto.Tatp.restart ~workers:2 db in
  Alcotest.(check bool) "restart time measured" true (secs >= 0.);
  Alcotest.(check int) "query result stable across restart" before
    (Dbproto.Tatp.get_subscriber_data db' 123);
  Alcotest.(check int) "index count stable" 1_000
    (db'.Dbproto.Tatp.sub_index.Dbproto.Index.count ())

let test_tatp_restart_stx_rebuild () =
  setup_concurrent ();
  let db = Dbproto.Tatp.populate ~subscribers:300 Dbproto.Index.STXTree in
  let before = Dbproto.Tatp.get_access_data db 7 1 in
  let db', _secs = Dbproto.Tatp.restart db in
  Alcotest.(check int) "rebuilt transient index answers identically" before
    (Dbproto.Tatp.get_access_data db' 7 1)

let test_tatp_sequential_population_nvtree () =
  (* the skewed (sorted) population must not break the NV-Tree in its
     DB configuration (big leaves / tiny PLNs) *)
  setup_concurrent ();
  let db = Dbproto.Tatp.populate ~subscribers:3_000 Dbproto.Index.NVTree in
  Alcotest.(check int) "all subscribers indexed" 3_000
    (db.Dbproto.Tatp.sub_index.Dbproto.Index.count ())

let () =
  Alcotest.run "integrations"
    [
      ( "kvstore",
        [
          Alcotest.test_case "set/get/delete" `Quick test_cache_set_get;
          Alcotest.test_case "item store growth" `Quick test_cache_item_store_growth;
          Alcotest.test_case "all backends" `Quick test_cache_all_backends;
          Alcotest.test_case "mc-bench smoke" `Quick test_mc_bench_smoke;
          Alcotest.test_case "mc-bench network cost" `Quick test_mc_bench_net_cost;
        ] );
      ( "tatp",
        [
          Alcotest.test_case "populate and query" `Quick test_tatp_populate_and_query;
          Alcotest.test_case "all index kinds agree" `Quick test_tatp_all_kinds_agree;
          Alcotest.test_case "benchmark runs" `Quick test_tatp_benchmark_runs;
          Alcotest.test_case "restart" `Quick test_tatp_restart;
          Alcotest.test_case "STXTree restart rebuild" `Quick test_tatp_restart_stx_rebuild;
          Alcotest.test_case "sequential population (NV-Tree)" `Quick
            test_tatp_sequential_population_nvtree;
        ] );
    ]
