(* Crash-recovery torture demo: run a random workload against the
   FPTree with a crash injected at a random persistence point, recover,
   verify against a shadow model, repeat.  Prints a summary of crash
   points survived.

   Run with:  dune exec examples/crash_recovery.exe -- [rounds] *)

module F = Fptree.Fixed

let rounds = try int_of_string Sys.argv.(1) with _ -> 25

let () =
  Random.self_init ();
  let survived = ref 0 and mid_op = ref 0 in
  for round = 1 to rounds do
    Scm.Registry.clear ();
    Scm.Config.reset ();
    let arena = Pmem.Palloc.create ~size:(32 * 1024 * 1024) () in
    let tree =
      F.create ~config:{ Fptree.Tree.fptree_config with Fptree.Tree.m = 8 } arena
    in
    let model = Hashtbl.create 256 in
    let crash_at = 1 + Random.int 2000 in
    let pending = ref None in
    let crashed =
      Scm.Fault.inject Persist_crash crash_at (fun () ->
        for i = 1 to 2000 do
          let k = Random.int 500 in
          let op = Random.int 10 in
          pending := Some (k, op, i);
          if op < 5 then begin
            if F.insert tree k i then Hashtbl.replace model k i
          end
          else if op < 7 then begin
            if F.delete tree k then Hashtbl.remove model k
          end
          else if op < 9 then begin
            if F.update tree k (i * 2) then Hashtbl.replace model k (i * 2)
          end
          else ignore (F.find tree k);
          pending := None
        done)
    in
    if crashed then begin
      if !pending <> None then incr mid_op;
      (* the power failure drops all unflushed cache lines *)
      Scm.Region.crash (Pmem.Palloc.region arena);
      let arena = Pmem.Palloc.of_region (Pmem.Palloc.region arena) in
      let tree = F.recover arena in
      F.check_invariants tree;
      (* verify: every committed op visible; the in-flight one atomic *)
      let ok = ref true in
      Hashtbl.iter
        (fun k v ->
          match F.find tree k with
          | Some v' when v' = v -> ()
          | Some _ | None -> (
            (* only acceptable if the in-flight op touched k *)
            match !pending with
            | Some (pk, _, _) when pk = k -> ()
            | _ -> ok := false))
        model;
      (match Pmem.Palloc.leaked_blocks arena ~reachable:(F.reachable_blocks tree) with
      | [] -> ()
      | l ->
        ok := false;
        Printf.printf "round %d: %d LEAKED blocks!\n" round (List.length l));
      if !ok then begin
        incr survived;
        Printf.printf "round %2d: crash at persist #%-5d -> recovered, %d keys, consistent\n%!"
          round crash_at (F.count tree)
      end
      else Printf.printf "round %2d: INCONSISTENT after crash at %d\n%!" round crash_at
    end
    else begin
      incr survived;
      Printf.printf "round %2d: workload finished before crash point %d\n%!" round
        crash_at
    end
  done;
  Printf.printf "\n%d/%d rounds consistent (%d crashes struck mid-operation)\n"
    !survived rounds !mid_op;
  if !survived <> rounds then exit 1
