(** Stateless DPOR model checker for the optimistic-concurrency
    protocol.

    Threads of a {!scenario} run as cooperative fibers over the real
    tree code: every shared access routed through {!Htm.Sched} yields
    to the explorer {e before} executing, so the explorer enumerates
    thread interleavings exactly at protocol granularity (version
    cells, leaf-lock words, the fallback mutex, the root swap).
    Exploration is replay-based depth-first search with dynamic
    partial-order reduction: persistent/backtrack sets seeded by a
    vector-clock race relation, plus sleep sets.  See the
    implementation header for the algorithm and the modeling
    boundary. *)

(** A pending shared access, as the explorer sees it. *)
type label =
  | Point of { obj : int; write : bool }  (** one shared load/store *)
  | Lock of int  (** virtual fallback-mutex acquire; enabled iff free *)
  | Unlock of int
  | Await of int
      (** spin-wait; enabled once another thread has written [obj]
          since the await was registered *)

val conflict : label -> label -> bool
(** Dependence relation: same object, at least one write. *)

(** A model-checking scenario: a deterministic initial state, two or
    three thread bodies over it, and a terminal check. *)
type scenario = {
  name : string;
  nthreads : int;
  prepare : unit -> (unit -> unit) array * (unit -> (unit, string) result);
      (** Build a fresh initial state; returns the thread bodies and
          the terminal check.  Runs with the [model_check] gate off —
          the gate is raised only around the fibers. *)
}

(** {1 Exploration} *)

type failure = {
  f_outcome : string;
  f_trace : (int * label) array;  (** (thread, access) interleaving *)
  f_schedule : int;  (** 1-based index of the failing execution *)
}

type report = {
  scenario : string;
  schedules : int;  (** executions run to a terminal state *)
  abandoned : int;  (** prefixes pruned as sleep-set-redundant *)
  bound_hits : int;
  deepest : int;  (** longest schedule, in shared accesses *)
  truncated : bool;  (** stopped at the execution limit *)
  failure : failure option;
}

val explore :
  ?dpor:bool -> ?max_steps:int -> ?limit:int -> scenario -> report
(** Exhaustively enumerate the scenario's non-equivalent schedules
    (all schedules with [~dpor:false] — the honest baseline for
    pruning claims), stopping at the first counterexample: a failed
    terminal check, an escaped exception, or a deadlock. *)

(** {1 Counterexamples} *)

type outcome

val is_failure : outcome -> bool

type exec = { outcome : outcome; trace : (int * label) array }

val replay : scenario -> max_steps:int -> int array -> exec
(** Re-execute one schedule, given the thread choice per step; steps
    beyond the array free-run deterministically. *)

val minimize :
  scenario -> ?max_steps:int -> ?budget:int -> (int * label) array ->
  (int * label) array
(** Greedy context-switch reduction of a failing trace: repeatedly
    swap adjacent same-thread runs while the replay still fails,
    within a replay [budget]. *)

val render_trace : (int * label) array -> string
(** Render an interleaving grouped by thread, one access per line. *)
