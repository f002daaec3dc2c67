(** Randomized crash–recover–verify loops (the "chaos" harness).

    Where {!Enumerate} is exhaustive over one short script, chaos runs
    long: a single region lives through hundreds of seeded iterations,
    each applying a random batch of operations to the tree and to an
    in-DRAM oracle, then ending in one of

    - a {e clean} restart (nothing lost, re-open and rebuild),
    - a {e crash} at a random persist boundary (unflushed words drop),
    - a {e torn store} (a multi-word store is cut mid-word, then crash),
    - an {e allocation failure} mid-operation (treated as crash-restart:
      the aborted operation may hold locks and armed logs, exactly the
      state recovery exists to clean up).

    After every restart the recovered tree must pass structural
    invariants, match the oracle exactly — up to atomicity of the one
    in-flight operation — hold no leaked blocks, and accept new
    operations.  Any deviation raises {!Divergence} with the seed and
    iteration, which reproduce the failure deterministically.  The
    checks are {!Enumerate.verify}, the step every crash sweep runs. *)

module F = Fptree.Fixed

exception Divergence of string

(* Divergence is the harness's failure verdict: before raising, write
   the flight-recorder dump (when a crash-dump path is configured, see
   [Obs.Flight.set_crash_dump]) and name the file in the message, so
   the report that reaches the user points at the per-op event history
   leading up to the failure. *)
let failf fmt =
  Printf.ksprintf
    (fun s ->
      let s =
        match Obs.Flight.crash_dump ~reason:("chaos divergence: " ^ s) with
        | Some path -> s ^ " [flight dump: " ^ path ^ "]"
        | None -> s
      in
      raise (Divergence s))
    fmt

type report = {
  iterations : int;
  ops : int;             (** operations applied (committed or in-flight) *)
  clean : int;           (** clean restarts *)
  crashes : int;         (** plain injected crashes that fired *)
  torn : int;            (** torn-store crashes that fired *)
  alloc_failures : int;  (** injected allocation failures that fired *)
  final_keys : int;      (** oracle size at the end *)
}

(* Keys come from a window that slides as iterations pass: narrow
   enough that updates and deletes hit live keys often, drifting so
   fresh keys keep arriving and the tree keeps splitting (and therefore
   allocating — the allocation-failure injector needs allocations to
   intercept). *)
let key_space = 4096

let gen_op rng ~window_lo =
  let k = 1 + window_lo + Random.State.int rng key_space in
  match Random.State.int rng 8 with
  | 0 | 1 | 2 | 3 -> Enumerate.Ins (k, Random.State.int rng 1_000_000)
  | 4 | 5 -> Enumerate.Upd (k, Random.State.int rng 1_000_000)
  | _ -> Enumerate.Del k

(* [Enumerate.verify], its verdict raised as a {!Divergence}. *)
let verify ~where t a oracle pending =
  try Enumerate.verify ~where t a oracle pending
  with Enumerate.Check_failed s -> failf "%s" s

(* Not [Enumerate.default_arena]: the loop's tree grows with
   [iterations], where a sweep replays one short script. *)
let run ?(arena_bytes = 32 * 1024 * 1024)
    ?(mode = Scm.Config.Revert_all_dirty)
    ?(config = Fptree.Tree.fptree_config) ?(ops_per_iter = 40) ~seed
    ~iterations () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  (* Pin the speculative-retry backoff jitter to the harness seed:
     with a free-running per-domain Weyl cell, two runs with the same
     [seed] could diverge in spin counts and flight [backoff_wait]
     payloads, breaking reproduction of a failing iteration. *)
  Scm.Config.current.Scm.Config.backoff_seed <- Some seed;
  let rng = Random.State.make [| 0x0C0A05; seed |] in
  let alloc = ref (Pmem.Palloc.create ~size:arena_bytes ()) in
  let t = ref (F.create ~config !alloc) in
  let oracle = Hashtbl.create 1024 in
  let ops = ref 0 in
  let clean = ref 0 and crashes = ref 0 and torn = ref 0 in
  let alloc_failures = ref 0 in
  for iter = 1 to iterations do
    let where = Printf.sprintf "chaos seed=%d iter=%d" seed iter in
    (* Arm this iteration's fault (the sites are process-wide and
       self-disarming; one that did not fire is reset after the batch). *)
    let fault = Random.State.int rng 4 in
    (* Thresholds sized so each armed fault usually fires inside the
       batch (a ~40-op batch crosses a few hundred persists and torn
       candidates but only a handful of allocations). *)
    (match fault with
    | 0 -> ()
    | 1 ->
      Scm.Fault.arm Persist_crash (1 + Random.State.int rng (ops_per_iter * 4))
    | 2 ->
      Scm.Fault.arm ~seed:(Random.State.bits rng) Torn_store
        (1 + Random.State.int rng (ops_per_iter * 2))
    | _ -> Scm.Fault.arm Alloc_crash (1 + Random.State.int rng 3));
    let pending = ref None in
    let fired = ref false in
    let window_lo = iter * ops_per_iter / 4 in
    (try
       for _ = 1 to ops_per_iter do
         incr ops;
         Enumerate.replay !t oracle pending [ gen_op rng ~window_lo ]
       done
     with Scm.Fault.Crash_injected ->
       fired := true;
       (* The armed site tells the fault apart. *)
       ignore
         (Obs.Flight.crash_dump
            ~reason:
              (Printf.sprintf "%s: %s" where
                 (match fault with
                 | 1 -> "crash injected"
                 | 2 -> "torn-store crash injected"
                 | _ -> "allocation failure injected"))));
    Scm.Fault.reset ();
    let region = Pmem.Palloc.region !alloc in
    if not !fired then begin
      (* Fault armed but never reached (or none armed): clean restart. *)
      incr clean;
      pending := None
    end
    else begin
      incr (match fault with 1 -> crashes | 2 -> torn | _ -> alloc_failures);
      (* An aborted operation may hold leaf locks and armed micro-logs;
         restart as if the process died at that point. *)
      Scm.Region.crash ~mode region
    end;
    alloc := Pmem.Palloc.of_region region;
    t := F.recover ~config !alloc;
    verify ~where !t !alloc oracle !pending
  done;
  {
    iterations;
    ops = !ops;
    clean = !clean;
    crashes = !crashes;
    torn = !torn;
    alloc_failures = !alloc_failures;
    final_keys = Hashtbl.length oracle;
  }

(* ---- capacity-exhaustion scenario ---- *)

type exhaustion_report = {
  admitted : int;        (** inserts admitted before the first refusal *)
  refusals : int;        (** refused inserts across the whole scenario *)
  boundary_ops : int;    (** delete/insert rounds at the watermark *)
  recovered_keys : int;  (** tree size after the crash-at-watermark recovery *)
}

(** Fill a small arena through the admission surface until it refuses,
    prove the degraded mode still serves (reads, in-place updates,
    deletes), hammer the watermark boundary with delete/insert rounds,
    crash there, and verify the recovered image — structurally, against
    the oracle, and with an offline {!Fsck} audit. *)
let run_exhaustion ?(arena_bytes = 192 * 1024)
    ?(mode = Scm.Config.Revert_all_dirty)
    ?(config = Fptree.Tree.fptree_config) ~seed () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Config.current.Scm.Config.backoff_seed <- Some seed;
  let rng = Random.State.make [| 0x0C0A06; seed |] in
  let a = Pmem.Palloc.create ~size:arena_bytes () in
  let t = F.create ~config a in
  let oracle = Hashtbl.create 1024 in
  let where = Printf.sprintf "exhaustion seed=%d" seed in
  (* 1. fill to the first refusal; every admitted insert must commit *)
  let admitted = ref 0 and refusals = ref 0 in
  let next_key = ref 0 in
  let full = ref false in
  while not !full do
    incr next_key;
    match F.try_insert t !next_key !next_key with
    | Ok true ->
      Hashtbl.replace oracle !next_key !next_key;
      incr admitted
    | Ok false -> failf "%s: duplicate insert at key %d" where !next_key
    | Error `Out_of_space ->
      incr refusals;
      full := true;
      if !admitted = 0 then failf "%s: arena refused the very first insert" where
  done;
  if F.watermark_state t = 0 then
    failf "%s: refused an insert while below the soft watermark" where;
  if not (F.degraded t) then
    failf "%s: refusal did not enter degraded mode" where;
  (* 2. degraded mode keeps serving: exact reads, in-place updates and
     deletes (an update that needs a split may legally be refused) *)
  if not (Enumerate.matches t oracle) then
    failf "%s: refused insert changed the tree" where;
  let upd_ok = ref 0 in
  for _ = 1 to 16 do
    let k = 1 + Random.State.int rng !next_key in
    if Hashtbl.mem oracle k then begin
      let v = Random.State.int rng 1_000_000 in
      match F.try_update t k v with
      | Ok true ->
        Hashtbl.replace oracle k v;
        incr upd_ok
      | Ok false -> failf "%s: update lost key %d in degraded mode" where k
      | Error `Out_of_space -> incr refusals
    end
  done;
  if !upd_ok = 0 then
    failf "%s: no in-place update succeeded in degraded mode" where;
  (* 3. hammer the boundary: free a contiguous key run (emptying whole
     leaves so reclamation has something to drain), then insert fresh
     keys — each round either commits or refuses, never corrupts *)
  let boundary_ops = ref 0 in
  let run_len = max 16 (!admitted / 5) in
  let lo = 1 + Random.State.int rng (max 1 (!admitted - run_len)) in
  for k = lo to lo + run_len - 1 do
    incr boundary_ops;
    match F.try_delete t k with
    | Ok existed ->
      if existed <> Hashtbl.mem oracle k then
        failf "%s: delete of key %d disagrees with oracle" where k;
      Hashtbl.remove oracle k
    | Error _ -> failf "%s: delete refused" where
  done;
  let readmitted = ref 0 in
  for _ = 1 to run_len do
    incr boundary_ops;
    incr next_key;
    match F.try_insert t !next_key !next_key with
    | Ok true ->
      Hashtbl.replace oracle !next_key !next_key;
      incr readmitted
    | Ok false -> failf "%s: duplicate insert at key %d" where !next_key
    | Error `Out_of_space -> incr refusals
  done;
  if !readmitted = 0 then
    failf "%s: freeing %d keys re-admitted no insert" where run_len;
  if not (Enumerate.matches t oracle) then
    failf "%s: tree diverged from oracle at the boundary" where;
  (* 4. crash at the watermark, mid-hammering *)
  let pending = ref None in
  ignore
    (Scm.Fault.inject Persist_crash (1 + Random.State.int rng 64) (fun () ->
         while true do
           incr boundary_ops;
           (* Half the ops land in the live key range: at the watermark an
              insert of a fresh key is usually refused (no persists), so
              only updates/deletes of existing keys keep the persist
              counter moving toward the scheduled crash. *)
           let window_lo = if Random.State.bool rng then 0 else !next_key in
           let op = gen_op rng ~window_lo in
           pending := Some op;
           if not (Enumerate.try_apply t oracle op) then incr refusals;
           pending := None
         done));
  let region = Pmem.Palloc.region a in
  Scm.Region.crash ~mode region;
  let a' = Pmem.Palloc.of_region region in
  let t' = F.recover ~config a' in
  verify ~where:(where ^ " (post-crash)") t' a' oracle !pending;
  (match Fsck.errors (Fsck.check region) with
  | [] -> ()
  | l -> failf "%s: fsck found %d errors after recovery" where (List.length l));
  {
    admitted = !admitted;
    refusals = !refusals;
    boundary_ops = !boundary_ops;
    recovered_keys = F.count t';
  }
