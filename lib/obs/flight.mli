(** Flight recorder: per-domain rings of fixed-size binary event
    records, written allocation-free, drained without stopping the
    writers, dumped at crash time.

    {2 Ring memory model}

    Each domain owns one ring: a preallocated [int array] of
    {!capacity} slots x {!words_per_event} words plus a monotone event
    counter.  The array lives in [Domain.DLS] (same pattern as
    [Htm.Node_versions]'s read-set scratch), so the write path is
    single-writer by construction and needs no mutex:

    - {b write}: the owning domain fills slot [cursor mod capacity]
      with plain stores, then publishes with [Atomic.set cursor
      (cursor + 1)].  The atomic release-store orders the slot
      contents before the cursor bump; the writer itself never
      contends with anyone.  Six word stores, one atomic store, and at
      most one monotonic-clock read ({!op_mark} reuses the ring's
      cached last reading) — no allocation, no lock.

    - {b drain} (seqlock-style epoch): a reader snapshots the cursor
      ([c1]), copies the whole buffer with plain loads, then reads the
      cursor again ([c2]).  Any slot the writer may have been touching
      during the copy is discarded: slot contents are trusted only for
      sequence numbers in [max(0, c2 + 1 - capacity) <= seq < c1].
      The lower bound drops the oldest surviving entries that a
      concurrent wrap may have been overwriting mid-copy (the writer
      may already be writing event [c2] when we read [c2], which
      recycles the slot of event [c2 - capacity]); the upper bound
      drops slots published after the copy began.  No retry loop is
      needed — a torn slot is simply outside the window.

    Rings register themselves in a global mutex-protected list the
    first time a domain emits.  Rings of finished domains stay
    registered on purpose: a flight recorder wants the history of
    domains that died, and a domain id reused by a later spawn simply
    allocates a fresh ring (the DLS slot is per-instance, not per-id).

    {2 The ordered history}

    While the [tracing] bit is on, every record emitted is also
    appended, under a mutex, to one history shared by all domains, so
    its order is a legal linearization of the recorded events (at
    most 4M records; the rest are counted as dropped).  The history is
    pmcheck's input ([--trace]); the rings are what a crash dump shows
    ([--flight-dump]).  Both dump to the same JSON format.

    {2 Gating}

    The recorder has no switch of its own: emission sites gate on
    [Obs.Gate.enabled] (one test of the mode word), the persistence
    emitters on the [tracing] bit.  The {!emit} family itself never
    checks the gate — tests and cold paths may emit
    unconditionally. *)

val capacity : int
(** Events retained per domain (a power of two). *)

(** {1 Emission}

    Allocation-free; the caller gates on {!Gate.enabled}. *)

val emit : tag:int -> a:int -> b:int -> c:int -> d:int -> unit
(** One raw record stamped now (payload layouts: {!Event}). *)

val op_begin : op:int -> key:int -> int
(** Returns the begin timestamp (us), to be passed to {!op_end}. *)

val op_end : op:int -> key:int -> t0:int -> ok:bool -> int
(** Returns the op duration in microseconds. *)

val op_mark : op:int -> key:int -> ok:bool -> unit
(** Completed-op marker without a measured latency (c = -1) and
    without a clock read: stamped with the ring's last clock reading,
    so hot read paths can mark every op and measure only a sample. *)

val htm_abort : reason:int -> node:int -> depth:int -> unit
val fallback_lock : unit -> unit
val backoff_wait : attempt:int -> spins:int -> unit
val split : left:int -> right:int -> unit
val merge : leaf:int -> prev:int -> unit

(** {1 Persistence emitters}

    The pmcheck sanitizer's input (payload layouts: {!Event}).  Each
    tests the [tracing] bit inline, so call sites need no guard and a
    disabled emitter is one mask test that allocates nothing. *)

val store : region:int -> off:int -> len:int -> silent:bool -> unit
val flush : region:int -> off:int -> len:int -> unit
val fence : region:int -> unit

val publish : region:int -> off:int -> len:int -> site:int -> unit
(** [site] is an {!Event} publish-site code. *)

val link_write : region:int -> off:int -> len:int -> unit
val log_arm : region:int -> log:int -> unit
val log_reset : region:int -> log:int -> unit
val lock_acquire : region:int -> leaf:int -> unit
val lock_release : region:int -> leaf:int -> unit
val leaf_retired : region:int -> leaf:int -> unit
val leaf_layout : region:int -> bytes:int -> unit
val track_reset : region:int -> unit
val ver_begin : region:int -> leaf:int -> unit
val ver_end : region:int -> leaf:int -> unit

val root_grow : int
val root_collapse : int
val root_swap : dir:int -> unit
(** [dir] is {!root_grow} or {!root_collapse}. *)

val persist_tick : batch:int -> unit
(** Count one persist on the calling domain and emit a
    [persist_batch] event every [batch]-th call. *)

val span : name:string -> start_us:int -> dur_us:int -> unit
(** A completed span (e.g. a recovery phase) that started at
    [start_us]. *)

val timed : name:string -> Histogram.t -> (unit -> 'a) -> 'a
(** Run the cold-path phase [f] and record its duration in
    microseconds into the histogram, also when [f] raises.  With the
    gate on, the phase is also emitted as a {!span} named [name]. *)

val bracket :
  op:int -> key:int -> ?hist:Histogram.t -> ok:('a -> bool) ->
  (unit -> 'a) -> 'a
(** The gated arm of an op entry point: an [op_begin] record, [f ()],
    then an [op_end] record whose ok flag is [ok r]; with [hist], the
    op's duration in microseconds is recorded there too.  When [f]
    raises, the [op_end] record carries ok = false, no histogram
    sample is taken, and the exception propagates.  The caller tests
    {!Gate.enabled} first and calls the op directly when it is off, so
    no closure is built on the gate-off path. *)

val name_table : unit -> string list
(** The interned span names; a [span] event's [a] indexes it. *)

(** {1 Drain and export} *)

type event = {
  dom : int;
  seq : int;  (** per-domain monotone sequence number *)
  t_us : int;
  tag : int;
  a : int;
  b : int;
  c : int;
  d : int;
}

val drain : unit -> event list
(** Snapshot of every registered ring, merged and sorted by timestamp
    (ties by domain then sequence).  Writers keep running. *)

val history : unit -> event list
(** The ordered history, in append order; [seq] is the position. *)

val history_dropped : unit -> int
(** Records the full history discarded. *)

val reset : unit -> unit
(** Forget every ring's events and empty the history.  Only
    meaningful while no other domain is emitting. *)

val to_json : ?history:bool -> reason:string -> unit -> Json.t
(** Round-trippable dump: the drained events (with [history], the
    ordered history's), how many were lost ([dropped]), the name table
    and metadata. *)

type dump = {
  events : event list;
  names : string list;  (** the interned span names *)
  reason : string;
  dropped : int;
      (** events the rings overwrote, or records the full history
          discarded: non-zero means the dump is truncated *)
}

val of_json : Json.t -> dump
(** Parse a {!to_json} dump back.
    @raise Json.Parse_error or [Failure] on malformed input. *)

val to_chrome : unit -> Json.t
(** Chrome [trace_event] export (chrome://tracing, Perfetto). *)

val dump :
  ?format:[ `Json | `Chrome ] -> ?history:bool -> reason:string -> string ->
  unit
(** Write a dump to a path (['-'] = stdout); [history] as in
    {!to_json} (the Chrome export always shows the rings). *)

(** {1 Crash-time dumping} *)

val set_crash_dump : string option -> unit
(** The path {!crash_dump} writes to (the CLI's [--flight-dump]). *)

val crash_dump : reason:string -> string option
(** Write the flight dump to the configured path, if any, and return
    it.  Best-effort: a failure is reported on stderr, never
    raised. *)
