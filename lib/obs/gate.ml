(** The instrumentation mode word: every run-time instrumentation
    switch of the system is one bit of a single global [int].

    - [stats], [crash_tracking], [delay_injection], [tracing] and
      [model_check] mirror the fields of the same names in
      [Scm.Config.current] and are written only by its [set_*] setters
      (the source lint rejects direct field writes, which would leave
      the word stale);
    - [observe] is application-level observability (op latency
      histograms, flight-recorder events) for the layers above the
      simulator, written by {!set_enabled}.

    Readers test a mask against the word directly — one load, one
    [land], one compare — so a hot path can ask "is any of these
    switches on?" in a single test: [Scm.Region]'s fast path checks
    [stats|crash_tracking|delay_injection|tracing], its simulated cache
    [stats|delay_injection], [Attrib]'s scopes [stats] and
    [Htm.Sched] [model_check].

    The word is a plain mutable cell: writers flip switches between
    phases, never concurrently with each other, and a racing reader
    sees either the old or the new word. *)

let stats = 1
let crash_tracking = 2
let delay_injection = 4
let tracing = 8
let model_check = 16
let observe = 32

(** The mode word.  Its initial value matches [Scm.Config.default]:
    counting and crash tracking on. *)
let word = ref (stats lor crash_tracking)

(** [any mask] is true iff at least one switch in [mask] is on. *)
let[@inline] any mask = !word land mask <> 0

(** Turn the switches in [mask] on or off; the others keep their
    state. *)
let set mask b = word := if b then !word lor mask else !word land lnot mask

let[@inline] enabled () = any observe
let set_enabled b = set observe b
