(** Domain-sharded log-bucketed (HDR-style) histogram for non-negative
    integer samples: exact unit buckets for 0..15, then 16 sub-buckets
    per power-of-two decade (quantile error <= 1/16 relative).  Merged
    counts and sums are exact under domain parallelism. *)

type t

val make : unit -> t
val record : t -> int -> unit

(** {1 Bucket geometry (exposed for tests)} *)

(** Bucket index of a sample. *)
val bucket_of : int -> int

(** Inclusive [(lo, hi)] sample range of a bucket index. *)
val bounds : int -> int * int

(** {1 Merged views} *)

val count : t -> int
val sum : t -> int
val mean : t -> float

(** Representable upper bound of the bucket holding the q-th order
    statistic; within one bucket width of the exact value. *)
val quantile : t -> float -> int

val max_value : t -> int

(** Non-empty buckets as [(lo, hi, count)], ascending. *)
val nonzero_buckets : t -> (int * int * int) list

val reset : t -> unit
