(** Access accounting for the SCM simulator.

    Counts cache-line-granularity events.  Benches convert a counter
    snapshot into "modeled time" for a given SCM latency, which is how
    the latency sweeps of Figures 7, 12 and 14 are reproduced without
    the paper's BIOS-level latency emulator.

    The live counters are domain-sharded ({!Obs.Counter}): each domain
    increments its own padded atomic slot, so totals are exact under
    parallel benches — the seed's plain refs silently lost increments
    there, which is why concurrent runs used to disable counting to
    report wall-clock only.  The counters are also registered in the
    {!Obs.Registry} (names [scm_*_total]), so a metrics dump carries
    the same numbers, including the per-domain breakdown. *)

type snapshot = {
  line_reads : int;   (** SCM lines loaded on a simulated cache miss. *)
  line_writes : int;  (** SCM lines written back by flushes / nt-stores. *)
  flushes : int;      (** CLFLUSH-equivalent calls. *)
  fences : int;       (** MFENCE/SFENCE-equivalent calls. *)
  persists : int;     (** persist() calls (flush+fence pairs). *)
}

let zero = { line_reads = 0; line_writes = 0; flushes = 0; fences = 0; persists = 0 }

let line_reads_c =
  Obs.Registry.counter "scm_line_reads_total"
    ~help:"SCM lines loaded on simulated cache misses"

let line_writes_c =
  Obs.Registry.counter "scm_line_writes_total"
    ~help:"SCM lines written back by flushes"

let flushes_c =
  Obs.Registry.counter "scm_flushes_total" ~help:"CLFLUSH-equivalent calls"

let fences_c =
  Obs.Registry.counter "scm_fences_total" ~help:"MFENCE-equivalent calls"

let persists_c =
  Obs.Registry.counter "scm_persists_total"
    ~help:"persist() calls (flush+fence pairs)"

(* Payload bytes stored through the instrumented write paths — the
   numerator-side input of the wear report's write-amplification ratio
   (64 × line_writes / store_bytes).  Not part of {!snapshot}: the
   five-field record is pinned as exact records by the counter-trace
   tests in test/test_hotpath.ml. *)
let store_bytes_c =
  Obs.Registry.counter "scm_store_bytes_total"
    ~help:"payload bytes stored through instrumented region writes"

(* Each increment below also charges the ambient (component, op) cell
   of the {!Obs.Attrib} matrix, same call, same count — which is why
   matrix sums equal these globals exactly. *)

let[@inline] incr_line_reads () = Obs.Counter.incr line_reads_c

let[@inline] incr_line_writes () =
  Obs.Counter.incr line_writes_c;
  Obs.Attrib.add_line ()

let[@inline] incr_flushes () =
  Obs.Counter.incr flushes_c;
  Obs.Attrib.add_flush ()

let[@inline] incr_fences () = Obs.Counter.incr fences_c

let[@inline] add_store_bytes n =
  Obs.Counter.add store_bytes_c n;
  Obs.Attrib.add_bytes n

let store_bytes () = Obs.Counter.value store_bytes_c

(* Persist-batch markers for the flight recorder: one event per
   [persist_batch_window] persists on the calling domain, so a crash
   dump shows the cadence of persist traffic without one event per
   persist.  Only instrumented (stats-on) runs count persists at all,
   so fast-mode traffic stays untouched; with the gate off the cost is
   one extra load per persist. *)
let persist_batch_window = 256

let[@inline] incr_persists () =
  Obs.Counter.incr persists_c;
  Obs.Attrib.add_persist ();
  if Obs.Gate.enabled () then
    Obs.Flight.persist_tick ~batch:persist_batch_window

let reset () =
  Obs.Counter.reset line_reads_c;
  Obs.Counter.reset line_writes_c;
  Obs.Counter.reset flushes_c;
  Obs.Counter.reset fences_c;
  Obs.Counter.reset persists_c;
  Obs.Counter.reset store_bytes_c;
  (* Keep the attribution matrix in lock-step with the globals it must
     sum to: one reset epoch for both. *)
  Obs.Attrib.reset ()

let snapshot () = {
  line_reads = Obs.Counter.value line_reads_c;
  line_writes = Obs.Counter.value line_writes_c;
  flushes = Obs.Counter.value flushes_c;
  fences = Obs.Counter.value fences_c;
  persists = Obs.Counter.value persists_c;
}

let diff a b = {
  line_reads = b.line_reads - a.line_reads;
  line_writes = b.line_writes - a.line_writes;
  flushes = b.flushes - a.flushes;
  fences = b.fences - a.fences;
  persists = b.persists - a.persists;
}

let add a b = {
  line_reads = b.line_reads + a.line_reads;
  line_writes = b.line_writes + a.line_writes;
  flushes = b.flushes + a.flushes;
  fences = b.fences + a.fences;
  persists = b.persists + a.persists;
}

(** Modeled extra time (ns) that the counted SCM traffic costs over the
    same traffic served from DRAM, at latency [read_ns]/[write_ns].
    Adding this to measured wall time models running on SCM of that
    latency: modeled = wall + misses*(scm - dram). *)
let modeled_extra_ns ?(write_ns = nan) ~read_ns s =
  let write_ns = if Float.is_nan write_ns then read_ns else write_ns in
  let dram = Config.dram_read_ns in
  float_of_int s.line_reads *. Float.max 0. (read_ns -. dram)
  +. float_of_int s.line_writes *. Float.max 0. (write_ns -. dram)

let pp ppf s =
  Format.fprintf ppf
    "{reads=%d; writes=%d; flushes=%d; fences=%d; persists=%d}"
    s.line_reads s.line_writes s.flushes s.fences s.persists
