(** Time sources for the observability layer.

    Two clocks with two jobs:

    - {!now_ns}/{!now_us_int}/{!now_us}: a {e monotonic} clock
      ([CLOCK_MONOTONIC], see clock_stubs.c) for span durations, op
      latencies and flight-recorder event timestamps.  Wall-clock time
      goes backwards under NTP steps, which silently corrupts
      durations; the monotonic clock only ever advances.  The stub
      returns a tagged int, so reading it does not allocate — the
      flight recorder timestamps every event on its allocation-free
      write path.

    - {!wall_s}: wall-clock time, kept {e only} for dump
      metadata ("this file was written at ...") where a human-readable
      absolute date is the point.  Nothing should ever subtract two
      wall-clock readings; the source lint forbids [Unix.gettimeofday]
      outside this library. *)

val now_ns : unit -> int
(** Monotonic nanoseconds since an arbitrary epoch.  Allocation-free
    when the monotonic clock is available. *)

val now_us_int : unit -> int
(** Monotonic microseconds, as an int (the flight recorder's event
    timestamp unit).  Per thread the reads are nondecreasing. *)

val now_us : unit -> float
(** Monotonic microseconds, as a float. *)

val now_s : unit -> float
(** Monotonic seconds: for elapsed-time measurements. *)

val wall_s : unit -> float
(** Wall-clock seconds since the Unix epoch — dump metadata only. *)
