external monotonic_ns : unit -> int = "obs_monotonic_ns" [@@noalloc]

external monotonic_us_fast : unit -> int = "obs_monotonic_us_fast"
  [@@noalloc]

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
