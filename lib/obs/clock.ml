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

    - {!wall_s}/{!wall_us}: wall-clock time, kept {e only} for dump
      metadata ("this file was written at ...") where a human-readable
      absolute date is the point.  Nothing should ever subtract two
      wall-clock readings; the source lint forbids [Unix.gettimeofday]
      outside this library. *)

external monotonic_ns : unit -> int = "obs_monotonic_ns" [@@noalloc]

external monotonic_us_fast : unit -> int = "obs_monotonic_us_fast"
  [@@noalloc]

(** [false] only on platforms without [CLOCK_MONOTONIC]; every caller
    below then falls back to wall time (deltas degrade to the seed's
    behaviour, they do not break). *)
let monotonic_available = monotonic_ns () >= 0

(** Monotonic nanoseconds since an arbitrary epoch.  Allocation-free
    when the monotonic clock is available. *)
let[@inline] now_ns () =
  let t = monotonic_ns () in
  if t >= 0 then t else int_of_float (Unix.gettimeofday () *. 1e9)

(** Monotonic microseconds, as an int (the flight recorder's event
    timestamp unit).  Served by the TSC fast path where available
    (~10 ns vs ~30 ns for clock_gettime — see clock_stubs.c); per
    thread the reads are nondecreasing. *)
let[@inline] now_us_int () =
  let t = monotonic_us_fast () in
  if t >= 0 then t else int_of_float (Unix.gettimeofday () *. 1e6)

(** Monotonic microseconds, as a float. *)
let now_us () = float_of_int (now_us_int ())

(** Monotonic seconds: for elapsed-time measurements. *)
let now_s () = float_of_int (now_ns ()) *. 1e-9

(** Wall-clock seconds since the Unix epoch — dump metadata only. *)
let wall_s () = Unix.gettimeofday ()

(** Wall-clock microseconds since the Unix epoch — dump metadata only. *)
let wall_us () = Unix.gettimeofday () *. 1e6
