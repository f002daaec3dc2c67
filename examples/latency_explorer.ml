(* Latency explorer: how does a tree operation decompose into SCM
   traffic?  Prints the per-op access profile (line reads, write-backs,
   flushes, fences) of each FPTree base operation and the modeled cost
   across the paper's 90-650 ns latency range — a small lens onto the
   simulator that powers the Figure 7 reproduction.

   Run with:  dune exec examples/latency_explorer.exe *)

let profile name n f =
  Scm.Stats.reset ();
  let before = Scm.Stats.snapshot () in
  let t0 = Obs.Clock.now_s () in
  f ();
  let wall = Obs.Clock.now_s () -. t0 in
  let d = Scm.Stats.diff before (Scm.Stats.snapshot ()) in
  let fn = float_of_int n in
  Printf.printf
    "%-8s per op: %5.2f line reads, %5.2f write-backs, %5.2f flushes, %4.2f fences\n"
    name
    (float_of_int d.Scm.Stats.line_reads /. fn)
    (float_of_int d.Scm.Stats.line_writes /. fn)
    (float_of_int d.Scm.Stats.flushes /. fn)
    (float_of_int d.Scm.Stats.fences /. fn);
  Printf.printf "         modeled us/op:";
  List.iter
    (fun lat ->
      let extra = Scm.Stats.modeled_extra_ns ~read_ns:lat d in
      Printf.printf "  %.0fns=%.2f" lat (((wall *. 1e9) +. extra) /. fn /. 1000.))
    [ 90.; 250.; 450.; 650. ];
  print_newline ()

let () =
  Scm.Config.reset ();
  Scm.Config.set_crash_tracking false;
  let arena = Pmem.Palloc.create ~size:(64 * 1024 * 1024) () in
  let tree = Fptree.Fixed.create_single arena in
  let n = 50_000 in
  let perm = Workloads.Keygen.permutation ~seed:1 n in
  Printf.printf "FPTree, %d uniformly distributed 8-byte keys\n\n" n;
  profile "Insert" n (fun () ->
      Array.iter (fun i -> ignore (Fptree.Fixed.insert tree (i * 2) i)) perm);
  profile "Find" n (fun () ->
      Array.iter (fun i -> ignore (Fptree.Fixed.find tree (i * 2))) perm);
  profile "Update" n (fun () ->
      Array.iter (fun i -> ignore (Fptree.Fixed.update tree (i * 2) 7)) perm);
  profile "Delete" n (fun () ->
      Array.iter (fun i -> ignore (Fptree.Fixed.delete tree (i * 2))) perm);
  Printf.printf
    "\nReading: a Find costs ~2 SCM line reads (fingerprint line + one probed\n\
     entry), the Section 4.2 prediction; Insert adds the entry write-back,\n\
     the fingerprint flush and the p-atomic bitmap commit.\n"
