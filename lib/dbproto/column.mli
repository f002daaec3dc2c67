(** A fixed-width integer column resident in SCM — the "other database
    data structures placed in SCM" that make the prototype database's
    throughput latency-dependent beyond the index itself (Section 6.4).

    Columns are carved out of a dedicated region by a bump pointer held
    in the region header, so a restart re-attaches them by offset. *)

type t

val init_region : Scm.Region.t -> unit
(** Format a region as an empty column store. *)

val carve : Scm.Region.t -> rows:int -> t
(** A fresh column of [rows] integers.
    @raise Failure when the region is full. *)

val get : t -> int -> int
val set : t -> int -> int -> unit

val fold : t -> ('a -> int -> 'a) -> 'a -> 'a
(** Bulk sanity scan (recovery): fold over all rows. *)
