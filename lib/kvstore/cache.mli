(** A memcached-style key-value cache whose internal index is one of
    the evaluated trees (Section 6.4, memcached experiments).

    Like the paper's modified memcached: the hash table is replaced by
    a tree, the full string key is stored in the index (not its hash,
    to avoid collisions), and the bucket-lock scheme is replaced by
    either the tree's own concurrency control (concurrent trees) or a
    global lock (single-threaded trees).  Items (the values) stay in a
    DRAM item store, as in memcached. *)

type t

val create : Tree_ops.t -> t
(** An empty cache over the index. *)

val set : t -> string -> string -> (unit, [ `Out_of_space ]) result
(** SET: insert or overwrite.  [Error `Out_of_space] when the index
    refused the write (its arena is past the watermark or exhausted);
    the cache keeps serving GETs. *)

val set_exn : t -> string -> string -> unit
(** [set] for callers that treat exhaustion as fatal.
    @raise Failure on [`Out_of_space]. *)

val get : t -> string -> string option
val delete : t -> string -> bool

val hits : t -> int
val misses : t -> int
(** GET hits and misses since creation. *)
