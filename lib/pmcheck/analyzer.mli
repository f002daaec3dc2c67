(** Offline crash-consistency analyzer over a decoded flight history
    ({!Trace_io}; PMTest / Yat style).  Replays the trace through a model of
    the simulator's persistence semantics (8-byte dirty words, 64-byte
    flush lines) and reports violations of the FPTree's persistence and
    locking protocol.  See DESIGN.md §9 for the checked properties and
    the known false-positive classes. *)

type severity = Info | Warn | Error

type finding = {
  cls : string;      (** finding class, e.g. ["missing-persist"] *)
  severity : severity;
  index : int;       (** index of the triggering event in the trace *)
  domain : int;
  region : int;
  site : string;     (** scope label at the triggering event *)
  detail : string;
}

(** Finding classes reported by {!analyze}:

    - ["missing-persist"] (Error): a word stored by the publishing
      domain inside the current operation scope is still dirty when a
      p-atomic publication point (bitmap flip, committed-pointer
      install, micro-log retirement) is made durable.
    - ["missing-persist-at-end"] (Warn): a word stored inside an
      operation scope is still dirty when the scope ends.
    - ["unlogged-link-write"] (Error): a leaf-list next-pointer
      overwrite inside an operation scope while the domain holds no
      armed micro-log.
    - ["leaf-lock-race"] (Error): an SCM store into a lock-tracked leaf
      extent by a domain that does not hold that leaf's lock.
    - ["redundant-flush"] (Warn): a flush whose target lines contain no
      dirty words.
    - ["silent-flush"] (Info): a flush whose dirty words were only ever
      written with their existing contents (the write-back changes no
      bytes).
    - ["batchable-flush"] (Info): three or more flushes of the same
      cache line within one operation scope. *)
val analyze : ?leaf_bytes:int -> Trace_io.event array -> finding list

val errors : finding list -> finding list
(** Only the [Error]-severity findings. *)

val summary : finding list -> (string * int) list
(** Count per class, sorted by class name. *)

val pp_finding : Format.formatter -> finding -> unit
