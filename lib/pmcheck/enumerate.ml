(** Exhaustive crash-state enumeration and missing-persist fault
    injection (the dynamic half of pmcheck).

    [sweep_crash_states]: run a setup prefix crash-free, then replay
    the measured operations with a crash injected at every persist
    boundary in turn (n = 1, 2, ... until the sequence completes),
    dropping the unflushed words the crash mode picks, recovering, and
    running [verify]: structural invariants, key-set durability
    against a model, leak-freedom and post-recovery usability.
    [sweep_recovery_crashes] crashes recovery itself at each of its
    persists and verifies the second recovery the same way.
    Violations raise {!Check_failed}.

    [sweep_missing_persist] proves the static analyzer has teeth: it
    re-runs the same operations once per persist site with that single
    persist silently suppressed (the [Scm.Fault.Persist_skip] site)
    and counts how many injections the {!Analyzer} flags as a
    missing-persist violation.  The sweeps are {!Scm.Fault.sweep}s.

    Everything is one functor over the tree of one key kind; the
    top level is its fixed-key instance, {!Var} the string-key one. *)

type 'k op = Ins of 'k * int | Upd of 'k * int | Del of 'k

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* A sweep replays one short script in a fresh arena per crash point,
   and zero-filling that arena is the sweep's main fixed cost. *)
let default_arena = 2 * 1024 * 1024

type crash_report = { crash_points : int }

type recovery_sweep = { recovery_crash_points : int }

type injection_report = {
  injected : int;  (** runs in which the scheduled skip actually fired *)
  detected : int;  (** of those, runs the analyzer flagged *)
  clean_findings : Analyzer.finding list;
      (** analyzer output on the uninjected trace of the same script *)
}

let is_missing_persist (f : Analyzer.finding) =
  f.Analyzer.cls = "missing-persist" || f.Analyzer.cls = "missing-persist-at-end"

(* The converse of the allocator's leak audit: offsets in [reachable]
   that are not the payload of an allocated block (freed, or never a
   block at all) while the structure still reaches them. *)
let dangling_blocks a ~reachable =
  let live = Hashtbl.create 64 in
  Pmem.Palloc.iter_blocks a (fun ~payload ~bytes:_ ~allocated ->
      if allocated then Hashtbl.replace live payload ());
  List.filter (fun off -> not (Hashtbl.mem live off)) reachable

module type TREE = sig
  include Fptree.Tree_intf.S

  val create : ?config:Fptree.Tree.config -> Pmem.Palloc.t -> t
  val recover : ?config:Fptree.Tree.config -> Pmem.Palloc.t -> t
  val try_delete : t -> key -> (bool, [ `Out_of_space ]) result
  val watermark_state : t -> int
  val check_invariants : t -> unit
  val reachable_blocks : t -> int list
end

module type S = sig
  type tree
  type key
  type model = (key, int) Hashtbl.t

  val apply_tree : tree -> key op -> unit
  val apply_model : model -> key op -> unit
  val replay : tree -> model -> key op option ref -> key op list -> unit
  val try_apply : tree -> model -> key op -> bool
  val matches : tree -> model -> bool

  val verify :
    where:string -> tree -> Pmem.Palloc.t -> model -> key op option -> unit

  val sweep_crash_states :
    ?mode:(int -> Scm.Config.crash_mode) -> ?arena_bytes:int -> ?stride:int ->
    config:Fptree.Tree.config -> setup:key op list -> key op list -> crash_report

  val sweep_recovery_crashes :
    ?mode:Scm.Config.crash_mode -> ?arena_bytes:int ->
    config:Fptree.Tree.config -> setup:key op list -> ops:key op list ->
    crash_at:int -> unit -> recovery_sweep

  val sweep_missing_persist :
    ?arena_bytes:int -> config:Fptree.Tree.config -> setup:key op list ->
    key op list -> injection_report
end

module Make (T : TREE) (P : sig val probe_key : T.key end) :
  S with type tree = T.t and type key = T.key = struct
  type tree = T.t
  type key = T.key
  type model = (key, int) Hashtbl.t

  let apply_tree t = function
    | Ins (k, v) -> ignore (T.insert t k v)
    | Upd (k, v) -> ignore (T.update t k v)
    | Del k -> ignore (T.delete t k)

  let apply_model m = function
    | Ins (k, v) -> if not (Hashtbl.mem m k) then Hashtbl.replace m k v
    | Upd (k, v) -> if Hashtbl.mem m k then Hashtbl.replace m k v
    | Del k -> Hashtbl.remove m k

  (* Apply [ops] to tree and model; [pending] holds the op in flight. *)
  let replay t m pending ops =
    List.iter
      (fun op ->
        pending := Some op;
        apply_tree t op;
        apply_model m op;
        pending := None)
      ops

  (* One op through the typed surface; the model takes it in only when
     the tree admitted it. *)
  let try_apply t m op =
    match
      match op with
      | Ins (k, v) -> T.try_insert t k v
      | Upd (k, v) -> T.try_update t k v
      | Del k -> T.try_delete t k
    with
    | Ok _ -> apply_model m op; true
    | Error `Out_of_space -> false

  (* Exact tree/model comparison (count first: cheap reject). *)
  let matches t m =
    T.count t = Hashtbl.length m
    && Hashtbl.fold (fun k v ok -> ok && T.find t k = Some v) m true

  (* The one recover-and-verify step.  The model must match the tree,
     or match it with the in-flight op applied (operation atomicity),
     and then takes that op in. *)
  let verify ~where t a m pending =
    (try T.check_invariants t
     with Failure s -> failf "%s: invariant violation: %s" where s);
    (if not (matches t m) then
       match pending with
       | Some op
         when let m' = Hashtbl.copy m in
              apply_model m' op;
              matches t m' ->
         apply_model m op
       | _ -> failf "%s: recovered tree diverges from the model" where);
    let reachable = T.reachable_blocks t in
    (match Pmem.Palloc.leaked_blocks a ~reachable with
    | [] -> ()
    | l -> failf "%s: %d leaked blocks" where (List.length l));
    (match dangling_blocks a ~reachable with
    | [] -> ()
    | l -> failf "%s: %d reachable blocks not allocated" where (List.length l));
    match T.try_insert t P.probe_key 1 with
    | Ok true ->
      if T.find t P.probe_key <> Some 1 then failf "%s: tree unusable" where;
      ignore (T.delete t P.probe_key)
    | Ok false -> failf "%s: probe key already present" where
    | Error `Out_of_space ->
      if T.watermark_state t = 0 then
        failf "%s: probe insert refused below the soft watermark" where;
      if T.find t P.probe_key <> None then
        failf "%s: refused insert left the probe key behind" where

  (* A fresh arena and tree, [setup] replayed crash-free, then [ops]
     run through [inject]: whether the injected fault fired, the arena,
     the model and the op in flight when it fired. *)
  let run_script ?(tracing = false) ~arena_bytes ~config ~setup ~ops inject =
    Scm.Registry.clear ();
    Scm.Config.reset ();
    Scm.Config.set_tracing tracing;
    let a = Pmem.Palloc.create ~size:arena_bytes () in
    let t = T.create ~config a in
    let m = Hashtbl.create 64 in
    let pending = ref None in
    replay t m pending setup;
    let fired = inject (fun () -> replay t m pending ops) in
    (fired, a, m, !pending)

  (* [run_script] with a crash injected: the region crashes in [mode]
     when it fired. *)
  let build_crashed ~mode ~arena_bytes ~config ~setup ~ops inject =
    let ((fired, a, _, _) as r) =
      run_script ~arena_bytes ~config ~setup ~ops inject
    in
    if fired then Scm.Region.crash ~mode (Pmem.Palloc.region a);
    r

  let reopen ~config a =
    let a' = Pmem.Palloc.of_region (Pmem.Palloc.region a) in
    (a', T.recover ~config a')

  (* [mode n] is the crash mode of crash point [n].  [stride] samples
     every stride-th persist boundary instead of all of them — the way to
     keep big-leaf (m = 64) sweeps, whose scripts cross thousands of
     persists, inside a test-suite time budget.  [stride = 1] is the
     exhaustive sweep. *)
  let sweep_crash_states ?(mode = fun _ -> Scm.Config.Revert_all_dirty)
      ?(arena_bytes = default_arena) ?stride ~config ~setup ops =
    let crash_points =
      Scm.Fault.sweep ?stride Persist_crash (fun n inject ->
          let fired, a, m, pending =
            build_crashed ~mode:(mode n) ~arena_bytes ~config ~setup ~ops inject
          in
          if fired then
            let a', t = reopen ~config a in
            verify ~where:(Printf.sprintf "crash at persist %d" n) t a' m pending)
    in
    { crash_points }

  (* Recovery must be re-entrant: whatever prefix of recovery's own
     persists survives a second crash, running recovery again from that
     state converges to a consistent tree.  Sweeps k = 1, 2, ... until a
     recovery completes without reaching its k-th persist.  The crashed
     image is built once; each k restores it and copies the model (the
     verification may resolve the in-flight op into it). *)
  let sweep_recovery_crashes ?(mode = Scm.Config.Revert_all_dirty)
      ?(arena_bytes = default_arena) ~config ~setup ~ops ~crash_at () =
    let fired, a, model, pending =
      build_crashed ~mode ~arena_bytes ~config ~setup ~ops
        (Scm.Fault.inject Persist_crash crash_at)
    in
    if not fired then invalid_arg "sweep_recovery_crashes: crash_at beyond script";
    let region = Pmem.Palloc.region a in
    let crashed = Scm.Region.image region in
    let recovery_crash_points =
      Scm.Fault.sweep Persist_crash (fun k inject ->
          Scm.Region.restore region crashed;
          let reopened = ref None in
          if inject (fun () -> reopened := Some (reopen ~config a)) then begin
            Scm.Region.crash ~mode region;
            reopened := Some (reopen ~config a)
          end;
          let a2, t2 = Option.get !reopened in
          verify
            ~where:(Printf.sprintf "recovery-sweep crash_at=%d k=%d" crash_at k)
            t2 a2 (Hashtbl.copy model) pending)
    in
    { recovery_crash_points }

  (* One traced run, its measured phase run through [inject].  Returns
     whether the injection fired and the trace. *)
  let traced_run ~arena_bytes ~config ~setup ~ops ~inject =
    Obs.Flight.reset ();
    let fired, _, _, _ =
      run_script ~tracing:true ~arena_bytes ~config ~setup ~ops inject
    in
    Scm.Config.set_tracing false;
    let records = Obs.Flight.history () in
    let dropped = Obs.Flight.history_dropped () in
    Obs.Flight.reset ();
    if dropped > 0 then failf "trace truncated: %d events dropped" dropped;
    (fired, Trace_io.decode records)

  let sweep_missing_persist ?(arena_bytes = default_arena) ~config ~setup ops =
    let _, clean_events =
      traced_run ~arena_bytes ~config ~setup ~ops ~inject:(fun f -> f (); false)
    in
    let clean_findings = Analyzer.analyze clean_events in
    let detected = ref 0 in
    let injected =
      Scm.Fault.sweep Persist_skip (fun _ inject ->
          let fired, events = traced_run ~arena_bytes ~config ~setup ~ops ~inject in
          if fired && List.exists is_missing_persist (Analyzer.analyze events) then
            incr detected)
    in
    { injected; detected = !detected; clean_findings }
end

include Make (Fptree.Fixed) (struct let probe_key = 987_654_321 end)

module Var = Make (Fptree.Var) (struct let probe_key = "pmcheck-probe" end)
