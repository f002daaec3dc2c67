(** Scenario catalog for the model checker: small multi-thread
    workloads over a real concurrent FPTree, each with a sequential
    oracle.

    Every scenario builds a fresh tree in a fresh arena per execution
    (deterministic replay needs identical object identities: leaf SCM
    offsets, inner-node ids, the root cell), records each thread's
    operations and results, and checks the terminal state for:

    - structural invariants ([check_invariants]);
    - linearizability: some interleaving of the per-thread operation
      sequences, replayed on a hash-table model seeded with the setup
      keys, reproduces every recorded result and the final tree
      content;
    - exact abort accounting: [aborts] equals [conflicts] +
      [precise_conflicts] + [explicit_aborts]. *)

module F = Fptree.Fixed
module T = Fptree.Tree

(* ---------- recorded operations and the sequential oracle ---------- *)

type opk =
  | Ins of int * int
  | Upd of int * int
  | Del of int
  | Find of int
  | Range of int * int

type done_op = { k : opk; res : string }

let render_bindings bs =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) bs)

let run_op t log k =
  let res =
    match k with
    | Ins (key, v) -> if F.insert t key v then "t" else "f"
    | Upd (key, v) -> if F.update t key v then "t" else "f"
    | Del key -> if F.delete t key then "t" else "f"
    | Find key -> (
      match F.find t key with
      | None -> "none"
      | Some v -> "some:" ^ string_of_int v)
    | Range (lo, hi) -> render_bindings (List.sort compare (F.range t ~lo ~hi))
  in
  log := { k; res } :: !log

let model_apply m = function
  | Ins (k, v) ->
    if Hashtbl.mem m k then "f"
    else begin
      Hashtbl.replace m k v;
      "t"
    end
  | Upd (k, v) ->
    if Hashtbl.mem m k then begin
      Hashtbl.replace m k v;
      "t"
    end
    else "f"
  | Del k ->
    if Hashtbl.mem m k then begin
      Hashtbl.remove m k;
      "t"
    end
    else "f"
  | Find k -> (
    match Hashtbl.find_opt m k with
    | None -> "none"
    | Some v -> "some:" ^ string_of_int v)
  | Range (lo, hi) ->
    Hashtbl.fold (fun k v acc -> if k >= lo && k <= hi then (k, v) :: acc else acc) m []
    |> List.sort compare |> render_bindings

let model_bindings m =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) m [])

(* Search for an interleaving of the per-thread sequences that the
   sequential model accepts and that ends in [final]. *)
let rec lin m (seqs : done_op list array) (final : (int * int) list) =
  if Array.for_all (fun l -> l = []) seqs then model_bindings m = final
  else begin
    let ok = ref false in
    Array.iteri
      (fun i l ->
        if not !ok then
          match l with
          | [] -> ()
          | op :: rest ->
            let m' = Hashtbl.copy m in
            if model_apply m' op.k = op.res then begin
              seqs.(i) <- rest;
              if lin m' seqs final then ok := true;
              seqs.(i) <- l
            end)
      seqs;
    !ok
  end

let check_tree t (logs : done_op list ref array) ~setup () =
  match F.check_invariants t with
  | exception Failure m -> Error ("invariant: " ^ m)
  | exception e -> Error ("invariant: " ^ Printexc.to_string e)
  | () ->
    let g k = List.assoc k (F.htm_stats t) in
    let parts = g "precise_conflicts" + g "explicit_aborts" in
    if g "aborts" <> parts then
      Error
        (Printf.sprintf "abort partition: %d aborts <> %d attributed"
           (g "aborts") parts)
    else begin
      let final = List.sort compare (F.range t ~lo:0 ~hi:1_000_000) in
      let m0 = Hashtbl.create 16 in
      List.iter (fun (k, v) -> Hashtbl.replace m0 k v) setup;
      let seqs = Array.map (fun l -> List.rev !l) logs in
      if lin m0 seqs final then Ok ()
      else Error "not linearizable against the sequential oracle"
    end

(* ---------- scenario construction ---------- *)

let config ~m ~inner_keys ~retries =
  {
    T.fptree_concurrent_config with
    T.m;
    T.inner_keys;
    T.htm_retries = retries;
    T.n_split_logs = 2;
    T.n_delete_logs = 2;
  }

let fresh_tree cfg =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Config.set_crash_tracking false;
  Scm.Config.set_stats false;
  Fptree.Inner.reset_ids ();
  let a = Pmem.Palloc.create ~size:(512 * 1024) () in
  F.create ~config:cfg a

let mk ~name ?(m = 4) ?(inner_keys = 8) ?(retries = 2) ~setup ~threads () =
  let cfg = config ~m ~inner_keys ~retries in
  let threads = Array.of_list threads in
  {
    Dpor.name;
    nthreads = Array.length threads;
    prepare =
      (fun () ->
        let t = fresh_tree cfg in
        List.iter (fun (k, v) -> assert (F.insert t k v)) setup;
        let logs = Array.map (fun _ -> ref []) threads in
        let bodies =
          Array.mapi
            (fun i ops () -> List.iter (run_op t logs.(i)) ops)
            threads
        in
        (bodies, check_tree t logs ~setup));
  }

(* ---------- root-split sizing probe ----------

   The find-vs-root-split scenario needs a setup where the {e next}
   insert splits the root inner node (swapping [t.root] and bumping
   [root_ver]).  Rather than hard-coding a key count tied to the split
   policy, probe for it: build throwaway trees of increasing size and
   watch for a write on the root cell via non-yielding hooks. *)

let probe_hooks hit =
  {
    Htm.Sched.h_point =
      (fun ~obj ~write ->
        if write && obj = Htm.Sched.obj_ver 0 then hit := true);
    h_await = (fun ~obj:_ -> ());
    h_lock = (fun ~obj:_ -> ());
    h_unlock = (fun ~obj:_ -> ());
    h_tid = (fun () -> 0);
  }

let root_split_cfg = config ~m:2 ~inner_keys:2 ~retries:2
let root_split_keys n = List.init n (fun i -> (10 * (i + 1), i + 1))

let root_split_setup =
  lazy
    (let triggers n =
       let t = fresh_tree root_split_cfg in
       List.iter (fun (k, v) -> assert (F.insert t k v)) (root_split_keys n);
       (* The probe watches for the root_ver bump, which is exactly
          what the regression hole suppresses: disarm it while
          sizing. *)
       let armed = !Fptree.Inner.regression_root_ver_hole in
       Fptree.Inner.regression_root_ver_hole := false;
       let hit = ref false in
       Htm.Sched.install (probe_hooks hit);
       Scm.Config.set_model_check true;
       ignore (F.insert t (10 * (n + 1)) 99);
       Scm.Config.set_model_check false;
       Htm.Sched.uninstall ();
       Fptree.Inner.regression_root_ver_hole := armed;
       !hit
     in
     let rec search n =
       if n > 64 then failwith "mcheck: no root-splitting setup found"
       else if triggers n then n
       else search (n + 1)
     in
     search 2)

let find_vs_root_split =
  {
    Dpor.name = "find-vs-root-split";
    nthreads = 2;
    prepare =
      (fun () ->
        let n = Lazy.force root_split_setup in
        let t = fresh_tree root_split_cfg in
        let setup = root_split_keys n in
        List.iter (fun (k, v) -> assert (F.insert t k v)) setup;
        let logs = [| ref []; ref [] |] in
        let bodies =
          [|
            (* reads the largest pre-split key: it routes through the
               right half the old root loses in the split *)
            (fun () -> run_op t logs.(0) (Find (10 * n)));
            (fun () -> run_op t logs.(1) (Ins (10 * (n + 1), 99)));
          |]
        in
        (bodies, check_tree t logs ~setup));
  }

let recover_concurrent =
  {
    Dpor.name = "recover-then-concurrent";
    nthreads = 2;
    prepare =
      (fun () ->
        let cfg = config ~m:4 ~inner_keys:8 ~retries:2 in
        let t0 = fresh_tree cfg in
        let setup = [ (10, 1); (20, 2); (30, 3); (40, 4) ] in
        List.iter (fun (k, v) -> assert (F.insert t0 k v)) setup;
        (* Simulate a crash: drop the volatile side, rebuild from the
           persistent leaf list, then run the concurrent phase on the
           recovered tree. *)
        Fptree.Inner.reset_ids ();
        let t = F.recover ~config:cfg (F.alloc t0) in
        let logs = [| ref []; ref [] |] in
        let bodies =
          [|
            (fun () -> run_op t logs.(0) (Find 30));
            (fun () -> run_op t logs.(1) (Ins (25, 5)));
          |]
        in
        (bodies, check_tree t logs ~setup));
  }

(* ---------- the catalog ---------- *)

let find_vs_split =
  mk ~name:"find-vs-split" ~m:4
    ~setup:[ (10, 1); (20, 2); (30, 3); (40, 4) ]
    ~threads:[ [ Find 30 ]; [ Ins (25, 5) ] ]
    ()

let insert_vs_insert =
  mk ~name:"insert-vs-insert-same-leaf" ~m:8
    ~setup:[ (10, 1); (20, 2) ]
    ~threads:[ [ Ins (12, 3) ]; [ Ins (16, 4) ] ]
    ()

let trio =
  mk ~name:"update-insert-delete-trio" ~m:4
    ~setup:[ (10, 1); (20, 2); (30, 3) ]
    ~threads:[ [ Upd (20, 9) ]; [ Ins (25, 4) ]; [ Del 10 ] ]
    ()

let range_vs_merge =
  mk ~name:"range-vs-merge" ~m:2
    ~setup:[ (10, 1); (20, 2); (30, 3); (40, 4) ]
    ~threads:[ [ Range (0, 100) ]; [ Del 30; Del 40 ] ]
    ()

let fallback_contention =
  mk ~name:"fallback-contention" ~m:4 ~retries:1
    ~setup:[ (10, 1); (20, 2); (30, 3); (40, 4) ]
    ~threads:[ [ Ins (12, 5); Find 20 ]; [ Ins (14, 6) ] ]
    ()

let catalog : Dpor.scenario list =
  [
    find_vs_split;
    insert_vs_insert;
    trio;
    range_vs_merge;
    fallback_contention;
    find_vs_root_split;
    recover_concurrent;
  ]

let find name = List.find_opt (fun s -> s.Dpor.name = name) catalog

(* Run [f] with the PR 5 root-pointer validation hole re-opened: the
   regression mode that proves the checker finds the seeded bug. *)
let with_regression_hole f =
  Fptree.Inner.regression_root_ver_hole := true;
  Fun.protect
    ~finally:(fun () -> Fptree.Inner.regression_root_ver_hole := false)
    f
