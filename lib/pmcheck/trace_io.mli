(** JSON round-trip for {!Scm.Pmtrace} histories, so a traced CLI run
    can be analyzed offline ([fptree_cli --trace] / [fptree_cli
    pmcheck]).  Format: [{"version":1,"dropped":N,"events":[...]}],
    one flat object per event with a ["k"] kind tag. *)

val version : int
(** Trace format version written by {!to_json} and required by
    {!of_json}. *)

exception Bad_trace of string
(** Raised by the readers on a malformed or unsupported trace. *)

val to_json : ?dropped:int -> Scm.Pmtrace.event array -> Obs.Json.t
(** Encode a history.  [dropped] (default 0) records how many events
    the bounded trace buffer discarded before these. *)

val of_json : Obs.Json.t -> Scm.Pmtrace.event array
(** Decode a history; raises {!Bad_trace} on version mismatch or a
    malformed event. *)

val dropped_of_json : Obs.Json.t -> int
(** The ["dropped"] count of an encoded trace (0 when absent). *)

val save : string -> ?dropped:int -> Scm.Pmtrace.event array -> unit
(** Write an encoded history to a file. *)

val load : string -> Scm.Pmtrace.event array * int
(** Read a history back with its ["dropped"] count: a non-zero count
    means the history is truncated, and no analysis of it can certify
    the run.  Raises {!Bad_trace} as {!of_json}, or [Sys_error] on I/O
    failure. *)
