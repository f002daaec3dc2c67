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

    {2 Gating}

    The recorder has no switch of its own: emission sites gate on
    [Obs.Gate.enabled] (one test of the mode word).  The {!emit}
    family itself never checks the gate — tests and cold paths may
    emit unconditionally. *)

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

val reset : unit -> unit
(** Forget every ring's events.  Only meaningful while no other
    domain is emitting. *)

val to_json : reason:string -> unit -> Json.t
(** Round-trippable dump: the drained events, the name table and
    metadata. *)

val of_json : Json.t -> event list * string list * string
(** Parse a {!to_json} dump back into (events, name table, reason).
    @raise Json.Parse_error or [Failure] on malformed input. *)

val to_chrome : unit -> Json.t
(** Chrome [trace_event] export (chrome://tracing, Perfetto). *)

val dump : ?format:[ `Json | `Chrome ] -> reason:string -> string -> unit
(** Write a dump to a path (['-'] = stdout). *)

(** {1 Crash-time dumping} *)

val set_crash_dump : string option -> unit
(** The path {!crash_dump} writes to (the CLI's [--flight-dump]). *)

val crash_dump : reason:string -> string option
(** Write the flight dump to the configured path, if any, and return
    it.  Best-effort: a failure is reported on stderr, never
    raised. *)
