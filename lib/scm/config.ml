(** Global configuration of the SCM simulator.

    The paper's evaluation platform exposes a single knob — the latency
    of the emulated SCM region — plus the implicit semantics of the
    volatility chain.  This module exposes the same knobs:

    - latency model used to convert access counts into modeled time;
    - crash-simulation mode (how unflushed words behave at a crash);
    - optional busy-wait delay injection for end-to-end runs.

    Fault injection (crash points, dropped persists, torn stores,
    allocation faults) is {!Fault}'s. *)

type crash_mode =
  | Revert_all_dirty
      (** Worst case: every unflushed word loses its post-crash value. *)
  | Keep_random_subset of int
      (** Eviction-adversarial: each dirty word independently survives
          with probability 1/2, drawn from the seeded generator.  Models
          arbitrary cache evictions before the crash. *)

(** Baseline DRAM latency in ns (the paper's 90): the share of an SCM
    access that costs nothing extra. *)
let dram_read_ns = 90.

type t = {
  mutable scm_read_ns : float;      (** SCM load latency (paper: 90–650). *)
  mutable scm_write_ns : float;     (** SCM store/flush latency. *)
  mutable crash_tracking : bool;
      (** Track dirty words for crash simulation.  Off for concurrent
          benches (the tracking table is not synchronized). *)
  mutable stats : bool;             (** Count line accesses. *)
  mutable delay_injection : bool;
      (** Busy-wait [scm_read_ns - dram_read_ns] on each simulated SCM
          miss, so wall-clock time directly reflects the latency knob. *)
  mutable tracing : bool;
      (** Record every SCM store, flush and persistence annotation in
          [Obs.Flight]'s ordered history (the pmcheck sanitizer's
          input). *)
  mutable model_check : bool;
      (** Route every shared-memory access of the concurrency protocol
          (version cells, leaf-lock words, fallback mutex, root swap)
          through the {!Htm.Sched} shim so a cooperative model checker
          can interleave them.  Production paths pay one test of the
          [Obs.Gate] mode word when off — same gating as [tracing]. *)
  mutable backoff_seed : int option;
      (** [Some s]: [Speculative_lock] backoff jitter becomes a pure
          function of (s, attempt, domain slot) instead of the
          free-running per-domain Weyl cell, so two runs with the same
          seed produce identical [backoff_waits].  Pinned by the chaos
          and mcheck harnesses; [None] (default) keeps the
          cross-acquisition drift that de-synchronizes real domains. *)
  mutable flight_sample_shift : int;
      (** Flight-recorder latency sampling: every [2^shift]-th find
          records a measured begin/end pair with clock reads, the rest
          a marker-only event (default 4, the historical 1/16 ratio).
          Plain field — the sampling branch re-reads it per op, so it
          is not in the mode word; clamp is the caller's business ([0]
          means every find is measured). *)
  mutable wear_heatmap : bool;
      (** Record a per-region, line-granularity shadow count of flushed
          lines (the spatial wear heatmap) on the instrumented persist
          path.  Plain field read inside the already-instrumented flush
          loop, so not in the mode word; off by default — the shadow
          arrays cost size/64 words per region when first touched. *)
  mutable heatmap_sample_shift : int;
      (** Heatmap sampling: count every [2^shift]-th flushed line
          (default 0 = exact counts).  Reported counts are scaled back
          by [2^shift]; sampling trades spatial exactness for lower
          instrumented-path cost on long runs. *)
}

let default () = {
  scm_read_ns = 90.;
  scm_write_ns = 90.;
  crash_tracking = true;
  stats = true;
  delay_injection = false;
  tracing = false;
  model_check = false;
  backoff_seed = None;
  flight_sample_shift = 4;
  wear_heatmap = false;
  heatmap_sample_shift = 0;
}

let current = default ()

(* Each switch is also a bit of [Obs.Gate]'s mode word, which is what
   the hot paths read; the setters below are its only writers, so the
   field and the bit never disagree. *)

let set_stats b =
  current.stats <- b;
  Obs.Gate.set Obs.Gate.stats b

let set_crash_tracking b =
  current.crash_tracking <- b;
  Obs.Gate.set Obs.Gate.crash_tracking b

let set_delay_injection b =
  current.delay_injection <- b;
  Obs.Gate.set Obs.Gate.delay_injection b

let set_tracing b =
  current.tracing <- b;
  Obs.Gate.set Obs.Gate.tracing b

let set_model_check b =
  current.model_check <- b;
  Obs.Gate.set Obs.Gate.model_check b

let reset () =
  let d = default () in
  current.scm_read_ns <- d.scm_read_ns;
  current.scm_write_ns <- d.scm_write_ns;
  set_crash_tracking d.crash_tracking;
  set_stats d.stats;
  set_delay_injection d.delay_injection;
  set_tracing d.tracing;
  set_model_check d.model_check;
  current.backoff_seed <- d.backoff_seed;
  current.flight_sample_shift <- d.flight_sample_shift;
  current.wear_heatmap <- d.wear_heatmap;
  current.heatmap_sample_shift <- d.heatmap_sample_shift;
  Fault.reset ()

let set_latency ?write_ns ~read_ns () =
  current.scm_read_ns <- read_ns;
  current.scm_write_ns <- (match write_ns with Some w -> w | None -> read_ns)
