(** Calibrated busy-wait used for optional latency injection.

    When [Config.current.delay_injection] is set, every simulated SCM
    cache miss spins for (scm latency - dram latency) nanoseconds, so
    end-to-end wall-clock runs feel the latency knob directly, like the
    paper's emulation platform.  The spin loop is calibrated once
    against the monotonic clock ([Obs.Clock]; the wall clock can step
    mid-calibration and skew every injected delay afterwards). *)

let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := !acc lxor i
  done;
  ignore (Sys.opaque_identity !acc)

(* The fastest of a few rounds: the first round of a cold process runs
   well below the loop's steady rate, and a rate calibrated too low
   makes every later wait fall short of the latency it models. *)
let calibrate () =
  let iters = 10_000_000 in
  let best = ref 0. in
  for _ = 1 to 3 do
    let t0 = Obs.Clock.now_s () in
    spin iters;
    let ns = (Obs.Clock.now_s () -. t0) *. 1e9 in
    if ns > 0. then best := Float.max !best (float_of_int iters /. ns)
  done;
  if !best > 0. then !best else 1.0

(* Not a [lazy]: concurrent first waits from several domains would
   race on forcing it ([Lazy.force] raises [Undefined] from the loser).
   A mutex serializes calibration; the unsynchronized fast-path read of
   the word-sized float is a benign race (either 0.0, taking the slow
   path, or the calibrated value). *)
let calibration = ref 0.
let calibration_lock = Mutex.create ()

let spins_per_ns () =
  let v = !calibration in
  if v > 0. then v
  else begin
    Mutex.lock calibration_lock;
    let v =
      match !calibration with
      | v when v > 0. -> v
      | _ ->
        let v = calibrate () in
        calibration := v;
        v
    in
    Mutex.unlock calibration_lock;
    v
  end

(* A wait long enough to afford two clock reads (~60 ns each on a
   virtualized host) also ends on a monotonic deadline, so it never
   falls short of [ns]; shorter waits — the SCM latency range — trust
   the calibrated spin count alone. *)
let deadline_wait_ns = 10_000.

let busy_wait_ns ns =
  if ns >= deadline_wait_ns then begin
    let deadline = Obs.Clock.now_ns () + int_of_float ns in
    spin (int_of_float (ns *. spins_per_ns ()));
    while Obs.Clock.now_ns () < deadline do
      ()
    done
  end
  else if ns > 0. then spin (int_of_float (ns *. spins_per_ns ()))

(** Injected on each SCM read miss. *)
let on_scm_read_miss () =
  let c = Config.current in
  if c.delay_injection then busy_wait_ns (c.scm_read_ns -. Config.dram_read_ns)

(** Injected on each SCM line write-back. *)
let on_scm_write_back () =
  let c = Config.current in
  if c.delay_injection then busy_wait_ns (c.scm_write_ns -. Config.dram_read_ns)
