(** Uniform interface implemented by every tree in the repository
    (FPTree, PTree, NV-Tree, wBTree, STXTree), so that benchmarks and
    integrations are tree-agnostic.  It is the one adapter: the bench
    handles ([bench/trees.ml]), the cache index ([Kvstore.Tree_ops])
    and the database index ([Dbproto.Index]) are each built by one
    constructor from a first-class module
    [(module S with type t = a and type key = k)] and a tree value.
    Each tree's own interface includes [S] (FPTree and PTree through
    {!Tree.Make}), so the compiler checks every tree against it.

    An interface-only unit: it declares signatures and has no
    implementation.

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

  val try_insert : t -> key -> int -> (bool, [ `Out_of_space ]) result
  (** [insert] with arena exhaustion as a typed result:
      [Error `Out_of_space] when the tree refused the insert (FPTree
      watermark admission) or its arena ran out; the refused pair is
      not stored.  The baselines define it once per functor with
      {!Tree.guard_space}. *)

  val find : t -> key -> int option
  val update : t -> key -> int -> bool

  val try_update : t -> key -> int -> (bool, [ `Out_of_space ]) result
  (** [update] with exhaustion as a typed result, as {!try_insert}. *)

  val delete : t -> key -> bool
  val range : t -> lo:key -> hi:key -> (key * int) list
  val count : t -> int

  val dram_bytes : t -> int
  val scm_bytes : t -> int

  val key_probes : t -> int
  (** In-leaf key comparisons since creation or the last
      [reset_probes] (Figure 4), counted only with stats on; the
      transient STXTree reports 0. *)

  val reset_probes : t -> unit

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
