(** Global configuration of the SCM simulator.

    The paper's evaluation platform exposes a single knob — the latency
    of the emulated SCM region — plus the implicit semantics of the
    volatility chain.  This module exposes the same knobs:

    - latency model used to convert access counts into modeled time;
    - crash-simulation mode (how unflushed words behave at a crash);
    - crash injection (fail at the n-th persistence point), used by the
      recovery property tests;
    - optional busy-wait delay injection for end-to-end runs. *)

(** Raised by [Region.persist] when a scheduled crash point is reached.
    The persist that raises did NOT reach the persistence domain. *)
exception Crash_injected

type crash_mode =
  | Revert_all_dirty
      (** Worst case: every unflushed word loses its post-crash value. *)
  | Keep_random_subset of int
      (** Eviction-adversarial: each dirty word independently survives
          with probability 1/2, drawn from the seeded generator.  Models
          arbitrary cache evictions before the crash. *)

type t = {
  mutable scm_read_ns : float;      (** SCM load latency (paper: 90–650). *)
  mutable scm_write_ns : float;     (** SCM store/flush latency. *)
  mutable dram_read_ns : float;     (** Baseline DRAM latency (paper: 90). *)
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
  mutable crash_after_persists : int option;
      (** [Some n]: the n-th subsequent persist raises {!Crash_injected}
          (1-based; [Some 1] fails the very next persist). *)
  mutable persist_count : int;
  mutable skip_nth_persist : int option;
      (** Fault injection for pmcheck: [Some n] silently turns the n-th
          subsequent persist into a no-op — the "forgotten Persist()"
          mutation the trace analyzer must catch. *)
  mutable skip_count : int;
  mutable torn_nth_store : int option;
      (** Torn-write injection: [Some n] makes the n-th subsequent
          tearable store (any non-p-atomic multi-byte store on the
          instrumented path) crash mid-store — a prefix of its bytes
          reaches the persistence domain, the rest does not, and
          {!Crash_injected} is raised.  P-atomic aligned 8-byte stores
          ([Region.write_int64_atomic] / [write_word_atomic]) never
          tear, matching Section 2's "Partial writes" contract. *)
  mutable torn_count : int;
  mutable torn_seed : int;
      (** Decides, deterministically, how many bytes of the torn store
          survive. *)
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
  mutable soft_watermark : float;
      (** Capacity admission threshold as a fraction of the arena's
          usable bytes: once live+bump usage passes this fraction,
          allocating operations (inserts, splitting updates) are
          refused with [`Out_of_space] while reads, in-place updates
          and deletes keep running.  Plain field (gates no region
          accessor, so not in the mode word); default 0.9. *)
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
  dram_read_ns = 90.;
  crash_tracking = true;
  stats = true;
  delay_injection = false;
  tracing = false;
  crash_after_persists = None;
  persist_count = 0;
  skip_nth_persist = None;
  skip_count = 0;
  torn_nth_store = None;
  torn_count = 0;
  torn_seed = 0;
  model_check = false;
  backoff_seed = None;
  soft_watermark = 0.9;
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
  current.dram_read_ns <- d.dram_read_ns;
  set_crash_tracking d.crash_tracking;
  set_stats d.stats;
  set_delay_injection d.delay_injection;
  set_tracing d.tracing;
  set_model_check d.model_check;
  current.backoff_seed <- d.backoff_seed;
  current.soft_watermark <- d.soft_watermark;
  current.flight_sample_shift <- d.flight_sample_shift;
  current.wear_heatmap <- d.wear_heatmap;
  current.heatmap_sample_shift <- d.heatmap_sample_shift;
  current.crash_after_persists <- d.crash_after_persists;
  current.persist_count <- d.persist_count;
  current.skip_nth_persist <- d.skip_nth_persist;
  current.skip_count <- d.skip_count;
  current.torn_nth_store <- d.torn_nth_store;
  current.torn_count <- d.torn_count;
  current.torn_seed <- d.torn_seed

let set_latency ?write_ns ~read_ns () =
  current.scm_read_ns <- read_ns;
  current.scm_write_ns <- (match write_ns with Some w -> w | None -> read_ns)

(** Arm the crash injector: the [n]-th persist from now raises. *)
let schedule_crash_after n =
  current.persist_count <- 0;
  current.crash_after_persists <- Some n

let disarm_crash () = current.crash_after_persists <- None

(** Arm the missing-persist injector: the [n]-th persist from now is
    silently dropped (no flush, no trace event, no crash-point). *)
let schedule_persist_skip n =
  current.skip_count <- 0;
  current.skip_nth_persist <- Some n

let cancel_persist_skip () = current.skip_nth_persist <- None

(** Called by [Region.persist] before anything else; [true] means this
    persist must be dropped entirely. *)
let persist_skipped () =
  match current.skip_nth_persist with
  | None -> false
  | Some n ->
    current.skip_count <- current.skip_count + 1;
    if current.skip_count = n then begin
      current.skip_nth_persist <- None;
      true
    end
    else false

(** Arm the torn-store injector: the [n]-th tearable store from now
    (1-based) tears — its byte prefix becomes durable, the rest is
    lost, and {!Crash_injected} is raised mid-store.  [seed] decides
    the tear point. *)
let schedule_torn_store ?(seed = 0) n =
  current.torn_count <- 0;
  current.torn_seed <- seed;
  current.torn_nth_store <- Some n

let cancel_torn_store () = current.torn_nth_store <- None

(** [true] while a torn store is scheduled: regions consult this before
    paying for the per-store countdown. *)
let[@inline] torn_armed () = current.torn_nth_store <> None

(** Called by [Region] on each tearable store while armed; [true] means
    this store is the one that must tear (the injector disarms). *)
let torn_fires () =
  match current.torn_nth_store with
  | None -> false
  | Some n ->
    current.torn_count <- current.torn_count + 1;
    if current.torn_count >= n then begin
      current.torn_nth_store <- None;
      true
    end
    else false

(** Called by [Region.persist]; raises {!Crash_injected} at the armed
    persistence point. *)
let on_persist () =
  match current.crash_after_persists with
  | None -> ()
  | Some n ->
    current.persist_count <- current.persist_count + 1;
    if current.persist_count >= n then begin
      current.crash_after_persists <- None;
      raise Crash_injected
    end
