(** Uniform interface implemented by every tree in the repository
    (FPTree, PTree, NV-Tree, wBTree, STXTree), so that benchmarks and
    integrations are tree-agnostic.

    Values are 63-bit integers (the paper uses 8-byte integer values);
    payload-size experiments pad the persisted value footprint via each
    tree's configuration.

    {b Threading model.}  Concurrent trees are safe for one caller per
    {e domain} ([Domain.spawn]); the optimistic read path keeps its
    read-set scratch buffer in domain-local storage ([Domain.DLS]), so
    two systhreads ([Thread.create]) time-sharing one domain must not
    call into the same tree concurrently — their interleaved optimistic
    sections would share and corrupt the buffer, and a torn traversal
    could validate.  Benchmarks and the kvstore server use one worker
    per domain, matching the paper's one-thread-per-core setup. *)

module type S = sig
  type t
  type key

  val name : string

  val insert : t -> key -> int -> bool
  (** [insert t k v] adds the pair; [false] if [k] was already present
      (unique-key tree, the pair is unchanged). *)

  val find : t -> key -> int option
  val update : t -> key -> int -> bool
  val delete : t -> key -> bool
  val range : t -> lo:key -> hi:key -> (key * int) list
  val count : t -> int

  val dram_bytes : t -> int
  val scm_bytes : t -> int

  val htm_stats : t -> (string * int) list
  (** Speculative-concurrency counters as [(reason, count)] pairs:
      ["aborts"], partitioned into ["precise_conflicts"] (per-node
      read-set invalidations) and ["explicit_aborts"] (a lock was
      held), plus ["fallbacks"] and ["backoff_waits"]
      ({!Htm.Speculative_lock.stats_assoc}).  Empty for trees without
      a speculative path. *)
end

module type FIXED = S with type key = int
module type VAR = S with type key = string
