(** Exhaustive crash-state enumeration and missing-persist fault
    injection (the dynamic half of pmcheck).

    [sweep_crash_states] runs a setup prefix crash-free, then replays
    the measured operations with a crash injected at every persist
    boundary in turn, dropping all unflushed words, recovering, and
    checking invariants, durability against a model, leak-freedom and
    post-recovery usability.  [sweep_missing_persist] proves the
    static analyzer has teeth: it suppresses each persist site in turn
    and counts how many injections {!Analyzer} flags. *)

type op = Ins of int * int | Upd of int * int | Del of int

exception Check_failed of string
(** Raised by the sweeps when a recovered tree fails verification. *)

val apply_tree : Fptree.Fixed.t -> op -> unit
(** Apply one operation to a tree, discarding the result. *)

val apply_model : (int, int) Hashtbl.t -> op -> unit
(** Apply one operation to the hash-table oracle with the tree's
    semantics (insert is no-op on a present key, update on an absent
    one). *)

val replay :
  Fptree.Fixed.t -> (int, int) Hashtbl.t -> op option ref -> op list -> unit
(** [replay t m pending ops] applies [ops] to the tree and the model in
    order; [pending] holds the operation in flight, so after an
    injected crash it names the op that may or may not have
    committed. *)

val consistent_with : Fptree.Fixed.t -> (int, int) Hashtbl.t -> op option -> bool
(** [consistent_with t m pending] holds when [t] equals the model [m],
    or [m] with the in-flight operation [pending] applied — operation
    atomicity: a crash commits an operation entirely or not at all. *)

val default_arena : int
(** Default arena size for the sweeps, in bytes. *)

type crash_report = { crash_points : int (** persist boundaries crashed into *) }

val sweep_crash_states :
  ?mode:(int -> Scm.Config.crash_mode) ->
  ?arena_bytes:int ->
  ?stride:int ->
  config:Fptree.Tree.config ->
  setup:op list ->
  op list ->
  crash_report
(** Crash at persist n = 1, 1 + stride, ... of the measured operations
    until the script completes without reaching the next boundary;
    [mode n] (default: all dirty words reverted) is the crash mode of
    point [n].  [stride] (default 1 = exhaustive) samples every
    stride-th boundary to keep big-leaf sweeps inside a time budget.
    Raises {!Check_failed} on a verification failure. *)

type injection_report = {
  injected : int;  (** runs in which the scheduled skip actually fired *)
  detected : int;  (** of those, runs the analyzer flagged *)
  clean_findings : Analyzer.finding list;
      (** analyzer output on the uninjected trace of the same script *)
}

val sweep_missing_persist :
  ?arena_bytes:int ->
  config:Fptree.Tree.config ->
  setup:op list ->
  op list ->
  injection_report
(** Re-run the script once per persist site with that single persist
    silently suppressed (the [Scm.Fault.Persist_skip] site) and
    count how many injections {!Analyzer.analyze} reports as a
    missing-persist violation. *)
