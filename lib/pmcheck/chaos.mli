(** Randomized crash–recover–verify loops (the "chaos" harness).

    Where {!Enumerate} is exhaustive over one short script, chaos runs
    long: a single region lives through hundreds of seeded iterations,
    each applying a random batch of operations to the tree and an
    in-DRAM oracle, then ending in a clean restart, an injected crash
    at a random persist boundary, a torn multi-word store, or an
    allocation failure mid-operation.  After every restart the
    recovered tree must pass invariants, match the oracle up to
    atomicity of the one in-flight operation, hold no leaked blocks,
    and accept new operations. *)

exception Divergence of string
(** Raised when a restarted tree fails verification.  The message
    carries the seed and iteration, which reproduce the failure
    deterministically (the harness also pins
    {!Scm.Config.backoff_seed} to the run seed, so retry-backoff
    jitter replays identically), plus the flight-recorder dump path
    when one is configured. *)

type report = {
  iterations : int;
  ops : int;             (** operations applied (committed or in-flight) *)
  clean : int;           (** clean restarts *)
  crashes : int;         (** plain injected crashes that fired *)
  torn : int;            (** torn-store crashes that fired *)
  alloc_failures : int;  (** injected allocation failures that fired *)
  final_keys : int;      (** oracle size at the end *)
}

val run :
  ?arena_bytes:int ->
  ?mode:Scm.Config.crash_mode ->
  ?config:Fptree.Tree.config ->
  ?ops_per_iter:int ->
  seed:int ->
  iterations:int ->
  unit ->
  report
(** Run [iterations] crash–recover–verify rounds from [seed] in an
    [arena_bytes] arena (default 32 MiB).  Two calls with equal
    arguments behave identically.  Raises
    {!Divergence} on the first verification failure. *)

type recovery_sweep = {
  recovery_crash_points : int;  (** recovery persists crashed into *)
}

val sweep_recovery_crashes :
  ?mode:Scm.Config.crash_mode ->
  ?arena_bytes:int ->
  ?config:Fptree.Tree.config ->
  setup:Enumerate.op list ->
  ops:Enumerate.op list ->
  crash_at:int ->
  unit ->
  recovery_sweep
(** The re-entrancy proof: build the crashed image reached by
    injecting a crash at persist [crash_at] of [ops] (after a
    crash-free [setup] prefix), then crash {e recovery itself} at its
    k-th persist for k = 1, 2, ... and check that a second recovery
    converges from each intermediate state.  Stops when a recovery
    completes without reaching its k-th persist.  Raises
    {!Divergence} on failure and [Invalid_argument] when [crash_at]
    lies beyond the script's persist count. *)

type exhaustion_report = {
  admitted : int;        (** inserts admitted before the first refusal *)
  refusals : int;        (** refused inserts across the whole scenario *)
  boundary_ops : int;    (** delete/insert rounds at the watermark *)
  recovered_keys : int;  (** tree size after the crash-at-watermark recovery *)
}

val run_exhaustion :
  ?arena_bytes:int ->
  ?mode:Scm.Config.crash_mode ->
  ?config:Fptree.Tree.config ->
  seed:int ->
  unit ->
  exhaustion_report
(** The capacity-exhaustion scenario: fill a small arena through the
    watermark admission surface until it refuses, prove the degraded
    mode still serves reads / in-place updates / deletes, hammer the
    watermark boundary with delete-then-insert rounds (freed space must
    re-admit), crash mid-hammering, recover, and verify the image
    structurally, against the oracle, and with an offline {!Fsck}
    audit.  Raises {!Divergence} on any deviation. *)
