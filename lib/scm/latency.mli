(** Calibrated busy-wait used for optional latency injection: when
    [Config.current.delay_injection] is on, each simulated SCM miss
    spins for (SCM latency − DRAM latency), so wall-clock runs feel the
    latency knob like the paper's emulation platform. *)

val spins_per_ns : unit -> float
(** Spin-loop iterations per nanosecond; calibrated on first use
    (domain-safe: concurrent first calls serialize on a mutex). *)

(** [busy_wait_ns ns] spins for [ns] nanoseconds; waits of 10 us and
    more also end on a monotonic-clock deadline, so they never fall
    short. *)
val busy_wait_ns : float -> unit

(** Injected by the region on each simulated read miss. *)
val on_scm_read_miss : unit -> unit

(** Injected by the region on each line write-back. *)
val on_scm_write_back : unit -> unit
