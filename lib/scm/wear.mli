(** Wear reporting over the attribution matrix and the spatial
    heatmap: write amplification, line-write skew, hottest lines.

    SCM media wear out per line; a production deployment cares not just
    about how many lines were written ([Stats]) but whether the medium
    wears evenly and which component is responsible (cf. NV-Tree's
    write-amplification analysis, wBTree's per-structure persist
    accounting).  This module turns the raw telemetry — the
    [Obs.Attrib] (component × op) matrix plus a region's per-line
    shadow counts — into that report:

    - {b write amplification}: media bytes written
      (64 × lines flushed) over payload bytes stored
      ([scm_store_bytes_total]).  >1 because persists flush whole
      lines; the micro-log and bitmap commits are the usual drivers.
    - {b skew}: max/mean line-write counts and the Gini coefficient
      over touched lines (0 = perfectly even wear, →1 = a few lines
      absorb everything — the endurance hazard).
    - {b hottest lines}: top-k by write count, each with the bitmask
      of components that wrote it.

    The heatmap may be sampled ([Config.heatmap_sample_shift]); counts
    here are reported {e as recorded} (callers scale by [2^shift] when
    they need absolute estimates), and the report carries the shift. *)

type line_stat = { line : int; count : int; comps : int }

type report = {
  store_bytes : int;       (** payload bytes stored, instrumented paths *)
  line_writes : int;       (** lines flushed (global counter) *)
  flushes : int;
  persists : int;
  write_amplification : float;  (** 64 * line_writes / store_bytes *)
  lines_touched : int;     (** heatmap lines with a non-zero count *)
  max_line_writes : int;   (** heatmap counts, as recorded (sampled) *)
  mean_line_writes : float;
  gini : float;            (** skew over touched lines; 0 = even *)
  sample_shift : int;      (** heatmap_sample_shift at report time *)
  top : line_stat list;    (** hottest lines, descending count *)
}

val comp_names_of_mask : int -> string list
(** Names of the [Obs.Attrib] components set in a [comps] mask. *)

val gini : int list -> float
(** Gini coefficient of the non-zero counts. *)

val report : ?k:int -> Region.t -> report
(** The wear report of the region's heatmap, with the [k] (default
    10) hottest lines. *)

type check_row = { quantity : string; global : int; matrix : int }

val crosscheck : unit -> check_row list
(** The headline invariant: each whole-matrix sum must equal its global
    [scm_*_total] counter exactly (both are charged by the same
    [Stats] increment). *)

val crosscheck_ok : check_row list -> bool

val heatmap_to_json : Region.t -> Obs.Json.t
(** Sparse heatmap dump; round-trips through {!heatmap_of_json}. *)

val heatmap_of_json : Obs.Json.t -> (int * int * int) list
(** Parse a heatmap dump back into sparse [(line, count, comp_mask)]
    cells (ascending line order).
    @raise Obs.Json.Parse_error on an unknown component name. *)

val heatmap_cells : Region.t -> (int * int * int) list
(** The region's current cells in the shape {!heatmap_of_json}
    returns. *)

val pp_report : Format.formatter -> report -> unit
