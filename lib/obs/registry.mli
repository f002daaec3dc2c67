(** Global metrics registry: named counters, gauges and histograms
    with Prometheus-style text exposition and a JSON dump that
    round-trips through {!Json.parse}.

    Naming scheme (see DESIGN.md section 8): [<domain>_<what>_<unit>],
    where counters end in [_total], histograms carry their sample unit
    ([_us] for microsecond latencies, bare for dimensionless counts),
    and the domain prefix names the subsystem ([scm_], [htm_],
    [fptree_], [pmem_], [kvstore_], [dbproto_]).

    Metrics register once per name (re-registering returns the
    existing instance); registration is mutex-protected, reads of
    registered metrics are lock-free. *)

type metric =
  | Counter of Counter.t
  | Gauge of (unit -> int)
  | Histogram of Histogram.t
  | Labeled of (unit -> ((string * string) list * int) list)
      (** A read-through family of labeled series (e.g. the SCM
          attribution matrix): the non-zero [(label set, value)]
          pairs. *)

type entry = { name : string; help : string; metric : metric }

val find : string -> entry option

val register : string -> string -> metric -> metric
(** [register name help metric]; the existing metric if [name] is
    already registered. *)

val counter : ?help:string -> string -> Counter.t
val histogram : ?help:string -> string -> Histogram.t
val gauge : ?help:string -> string -> (unit -> int) -> unit
val labeled :
  ?help:string -> string -> (unit -> ((string * string) list * int) list) ->
  unit

val all : unit -> entry list
(** Every entry, in registration order. *)

val to_text : unit -> string
(** Prometheus text exposition. *)

val to_json : unit -> string
(** JSON dump; round-trips through {!Json.parse}. *)

val dump : ?format:[ `Json | `Text ] -> string -> unit
(** Write the registry to a path (['-'] for stdout). *)
