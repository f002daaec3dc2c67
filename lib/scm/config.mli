(** Global configuration of the SCM simulator: the latency model,
    crash-simulation mode and the optional busy-wait delay injection —
    the knobs of the paper's evaluation platform.  Fault injection is
    {!Fault}'s. *)

type crash_mode =
  | Revert_all_dirty
      (** Worst case: every unflushed word loses its post-crash value. *)
  | Keep_random_subset of int
      (** Eviction-adversarial: each dirty word independently survives
          with probability 1/2 (seeded). *)

(** Baseline DRAM latency in ns (the paper's 90): {!Latency}'s delay
    injection and [Stats.modeled_extra_ns] charge SCM traffic only
    above it. *)
val dram_read_ns : float

type t = {
  mutable scm_read_ns : float;
  mutable scm_write_ns : float;
  mutable crash_tracking : bool;
  mutable stats : bool;
  mutable delay_injection : bool;
  mutable tracing : bool;
  mutable model_check : bool;
  mutable backoff_seed : int option;
      (** [Some s] pins [Speculative_lock] backoff jitter to a pure
          function of (s, attempt, domain slot), so equal-seed runs
          report identical [backoff_waits]; [None] (default) keeps the
          free-running per-domain Weyl sequence.  Set by direct field
          assignment (no hot path caches it). *)
  mutable flight_sample_shift : int;
      (** Flight-recorder latency sampling: every [2^shift]-th find
          records a measured begin/end pair, the rest a marker-only
          event.  Default 4 (the historical 1/16 ratio); 0 measures
          every find.  Plain field, set by direct assignment. *)
  mutable wear_heatmap : bool;
      (** Record the per-region spatial write heatmap (line-granularity
          shadow counts) on the instrumented persist path.  Off by
          default; plain field, set by direct assignment. *)
  mutable heatmap_sample_shift : int;
      (** Heatmap sampling: count every [2^shift]-th flushed line
          (default 0 = exact).  Reported counts are scaled back by
          [2^shift].  Plain field, set by direct assignment. *)
}

val default : unit -> t

(** The live configuration, read by every simulator operation.

    The instrumentation switches ([stats], [crash_tracking],
    [delay_injection], [tracing], [model_check]) are readable here but
    must be changed through the setters below, never by direct field
    assignment: each setter also writes the switch's bit of
    [Obs.Gate]'s mode word, which is what the hot paths test.  The
    source lint ([tools/lint.ml]) rejects direct writes. *)
val current : t

(** [Obs.Attrib]'s scopes test the same bit, so write-attribution
    scopes are live exactly when the counters they feed are. *)
val set_stats : bool -> unit
val set_crash_tracking : bool -> unit
val set_delay_injection : bool -> unit

(** Record the flight recorder's persistence events and its ordered
    history ([Obs.Flight]; the pmcheck sanitizer's input). *)
val set_tracing : bool -> unit

(** Route the concurrency protocol's shared-memory accesses (version
    cells, leaf-lock words, fallback mutex, root swap) through the
    [Htm.Sched] shim so the mcheck model checker can interleave them at
    every access.  Off (default): production paths pay one load + branch
    per shared access, nothing else changes. *)
val set_model_check : bool -> unit

(** Restore the defaults and disarm every {!Fault} site. *)
val reset : unit -> unit
val set_latency : ?write_ns:float -> read_ns:float -> unit -> unit
