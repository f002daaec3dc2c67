(** Exhaustive crash-state enumeration and missing-persist fault
    injection (the dynamic half of pmcheck).

    [sweep_crash_states]: run a setup prefix crash-free, then replay
    the measured operations with a crash injected at every persist
    boundary in turn (n = 1, 2, ... until the sequence completes),
    dropping the unflushed words the crash mode picks, recovering, and
    checking structural invariants, key-set durability against a model,
    leak-freedom and post-recovery usability.  Violations raise
    {!Check_failed}.

    [sweep_missing_persist] proves the static analyzer has teeth: it
    re-runs the same operations once per persist site with that single
    persist silently suppressed (the [Scm.Fault.Persist_skip] site)
    and counts how many injections the {!Analyzer} flags as a
    missing-persist violation.  Both sweeps are {!Scm.Fault.sweep}s. *)

module F = Fptree.Fixed

type op = Ins of int * int | Upd of int * int | Del of int

exception Check_failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

let apply_tree t = function
  | Ins (k, v) -> ignore (F.insert t k v)
  | Upd (k, v) -> ignore (F.update t k v)
  | Del k -> ignore (F.delete t k)

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

(* The recovered tree must equal the model, or the model with the
   in-flight operation applied (operation atomicity). *)
let consistent_with t m pending =
  let matches model =
    let ok = ref (F.count t = Hashtbl.length model) in
    Hashtbl.iter (fun k v -> if F.find t k <> Some v then ok := false) model;
    !ok
  in
  matches m
  ||
  match pending with
  | None -> false
  | Some op ->
    let m' = Hashtbl.copy m in
    apply_model m' op;
    matches m'

(* A sweep replays one short script in a fresh arena per crash point,
   and zero-filling that arena is the sweep's main fixed cost. *)
let default_arena = 2 * 1024 * 1024

(* ---- crash-state enumeration ---- *)

type crash_report = { crash_points : int }

(* [mode n] is the crash mode of crash point [n].  [stride] samples
   every stride-th persist boundary instead of all of them — the way to
   keep big-leaf (m = 64) sweeps, whose scripts cross thousands of
   persists, inside a test-suite time budget.  [stride = 1] is the
   exhaustive sweep. *)
let sweep_crash_states ?(mode = fun _ -> Scm.Config.Revert_all_dirty)
    ?(arena_bytes = default_arena) ?stride ~config ~setup ops =
  let crash_points =
    Scm.Fault.sweep ?stride Persist_crash (fun n inject ->
        Scm.Registry.clear ();
        Scm.Config.reset ();
        let a = Pmem.Palloc.create ~size:arena_bytes () in
        let t = F.create ~config a in
        let m = Hashtbl.create 64 in
        let pending = ref None in
        replay t m pending setup;
        if inject (fun () -> replay t m pending ops) then begin
          Scm.Region.crash ~mode:(mode n) (Pmem.Palloc.region a);
          let a' = Pmem.Palloc.of_region (Pmem.Palloc.region a) in
          let t2 = F.recover ~config a' in
          F.check_invariants t2;
          if not (consistent_with t2 m !pending) then
            failf "crash at persist %d: tree inconsistent with model" n;
          (match
             Pmem.Palloc.leaked_blocks a' ~reachable:(F.reachable_blocks t2)
           with
          | [] -> ()
          | l -> failf "crash at persist %d: %d leaked blocks" n (List.length l));
          ignore (F.insert t2 987_654_321 1);
          if F.find t2 987_654_321 <> Some 1 then
            failf "crash at persist %d: tree unusable after recovery" n
        end)
  in
  { crash_points }

(* ---- missing-persist fault injection ---- *)

type injection_report = {
  injected : int;  (** runs in which the scheduled skip actually fired *)
  detected : int;  (** of those, runs the analyzer flagged *)
  clean_findings : Analyzer.finding list;
      (** analyzer output on the uninjected trace of the same script *)
}

(* One traced run, its measured phase run through [inject].  Returns
   whether the injection fired and the trace. *)
let traced_run ~arena_bytes ~config ~setup ~ops ~inject =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Config.set_tracing true;
  Obs.Flight.reset ();
  let a = Pmem.Palloc.create ~size:arena_bytes () in
  let t = F.create ~config a in
  let m = Hashtbl.create 64 in
  List.iter (fun op -> apply_tree t op; apply_model m op) setup;
  let fired =
    inject (fun () -> List.iter (fun op -> apply_tree t op; apply_model m op) ops)
  in
  Scm.Config.set_tracing false;
  let records = Obs.Flight.history () in
  let dropped = Obs.Flight.history_dropped () in
  Obs.Flight.reset ();
  if dropped > 0 then failf "trace truncated: %d events dropped" dropped;
  (fired, Trace_io.decode records)

let is_missing_persist (f : Analyzer.finding) =
  f.Analyzer.cls = "missing-persist" || f.Analyzer.cls = "missing-persist-at-end"

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
