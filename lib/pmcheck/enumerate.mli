(** Exhaustive crash-state enumeration and missing-persist fault
    injection (the dynamic half of pmcheck).

    [sweep_crash_states] runs a setup prefix crash-free, then replays
    the measured operations with a crash injected at every persist
    boundary in turn, dropping all unflushed words, recovering, and
    running {!S.verify}; [sweep_recovery_crashes] also crashes
    recovery itself.  [sweep_missing_persist] proves the static
    analyzer has teeth: it suppresses each persist site in turn and
    counts how many injections {!Analyzer} flags.

    One functor, {!Make}, over the FPTree of one key kind: the top
    level is its fixed-key instance, {!Var} the string-key one. *)

type 'k op = Ins of 'k * int | Upd of 'k * int | Del of 'k

exception Check_failed of string
(** Raised by {!S.verify} and the sweeps when a recovered tree fails
    verification. *)

val default_arena : int
(** Default arena size for the sweeps, in bytes. *)

type crash_report = { crash_points : int (** persist boundaries crashed into *) }

type recovery_sweep = {
  recovery_crash_points : int;  (** recovery persists crashed into *)
}

type injection_report = {
  injected : int;  (** runs in which the scheduled skip actually fired *)
  detected : int;  (** of those, runs the analyzer flagged *)
  clean_findings : Analyzer.finding list;
      (** analyzer output on the uninjected trace of the same script *)
}

(** What the sweeps need of a tree: {!Fptree.Fixed} and {!Fptree.Var}
    fit as they are. *)
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
  (** The oracle: the key set the tree must hold. *)

  val apply_tree : tree -> key op -> unit
  (** Apply one operation to a tree, discarding the result. *)

  val apply_model : model -> key op -> unit
  (** Apply one operation to the oracle with the tree's semantics
      (insert is no-op on a present key, update on an absent one). *)

  val replay : tree -> model -> key op option ref -> key op list -> unit
  (** [replay t m pending ops] applies [ops] to the tree and the model
      in order; [pending] holds the operation in flight, so after an
      injected crash it names the op that may or may not have
      committed. *)

  val try_apply : tree -> model -> key op -> bool
  (** [try_apply t m op] applies [op] through [try_insert] /
      [try_update] / [try_delete] and, when the tree admits it, to the
      model too.  [false] reports a refusal ([`Out_of_space]), which
      leaves the model as it was. *)

  val matches : tree -> model -> bool
  (** The tree holds exactly the model's pairs. *)

  val verify :
    where:string -> tree -> Pmem.Palloc.t -> model -> key op option -> unit
  (** [verify ~where t a m pending] checks a just-recovered tree [t] in
      arena [a]: structural invariants; the model — [t] must equal [m],
      or [m] with the in-flight op [pending] applied (operation
      atomicity), which [m] then takes in; no leaked block
      ({!Pmem.Palloc.leaked_blocks}) and, conversely, no block the
      tree reaches that is not allocated; and usability — a probe key not in
      any script goes in through [try_insert] and out again by
      [delete].  A refused probe is legal only past the soft watermark
      ([watermark_state t <> 0]) and must leave no trace.
      @raise Check_failed with a message starting with [where]. *)

  val sweep_crash_states :
    ?mode:(int -> Scm.Config.crash_mode) ->
    ?arena_bytes:int ->
    ?stride:int ->
    config:Fptree.Tree.config ->
    setup:key op list ->
    key op list ->
    crash_report
  (** Crash at persist n = 1, 1 + stride, ... of the measured
      operations until the script completes without reaching the next
      boundary; recover and {!verify} each crashed image.  [mode n]
      (default: all dirty words reverted) is the crash mode of point
      [n].  [stride] (default 1 = exhaustive) samples every stride-th
      boundary to keep big-leaf sweeps inside a time budget. *)

  val sweep_recovery_crashes :
    ?mode:Scm.Config.crash_mode ->
    ?arena_bytes:int ->
    config:Fptree.Tree.config ->
    setup:key op list ->
    ops:key op list ->
    crash_at:int ->
    unit ->
    recovery_sweep
  (** The re-entrancy proof: build the crashed image reached by
      injecting a crash at persist [crash_at] of [ops] (after a
      crash-free [setup] prefix), then crash {e recovery itself} at its
      k-th persist for k = 1, 2, ... and {!verify} the second recovery
      from each intermediate state.  Stops when a recovery completes
      without reaching its k-th persist (that recovery is verified
      too).  Raises [Invalid_argument] when [crash_at] lies beyond the
      script's persist count. *)

  val sweep_missing_persist :
    ?arena_bytes:int ->
    config:Fptree.Tree.config ->
    setup:key op list ->
    key op list ->
    injection_report
  (** Re-run the script once per persist site with that single persist
      silently suppressed (the [Scm.Fault.Persist_skip] site) and
      count how many injections {!Analyzer.analyze} reports as a
      missing-persist violation. *)
end

module Make (T : TREE) (_ : sig
  val probe_key : T.key
  (** The usability probe's key: one no script uses. *)
end) : S with type tree = T.t and type key = T.key

include S with type tree = Fptree.Fixed.t and type key = int

module Var : S with type tree = Fptree.Var.t and type key = string
