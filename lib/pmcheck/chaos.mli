(** Randomized crash–recover–verify loops (the "chaos" harness).

    Where {!Enumerate} is exhaustive over one short script, chaos runs
    long: a single region lives through hundreds of seeded iterations,
    each applying a random batch of operations to the tree and an
    in-DRAM oracle, then ending in a clean restart, an injected crash
    at a random persist boundary, a torn multi-word store, or an
    allocation failure mid-operation.  After every restart the
    recovered tree must pass invariants, match the oracle up to
    atomicity of the one in-flight operation, hold no leaked blocks,
    and accept new operations: {!Enumerate.verify}, the step every
    crash sweep runs. *)

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
