(** The Fingerprinting Persistent Tree (Sections 4 and 5).

    A functor over the key representation ({!Keys.KEY}); the
    instantiations are {!Fixed} (8-byte integer keys), {!Var} (string
    keys, Appendix C) and the {!Ptree} configurations (no
    fingerprints, split key/value arrays).

    One [Make(K).t] is both the single-threaded FPTree (configure
    [use_groups = true], one micro-log of each kind) and the concurrent
    FPTreeC (configure [use_groups = false], a pool of micro-logs).
    The operations always follow the Selective Concurrency protocol of
    Section 4.4, which costs next to nothing when run by one thread.

    The key-independent mechanisms live in plain modules the functor
    calls directly: the image format in {!Descriptor}, leaf-group
    allocation in {!Leaf_groups}, leaf locks and version phases in
    {!Leaf_lock}. *)

type config = Descriptor.config = {
  m : int;
  value_bytes : int;
  inner_keys : int;
  fingerprints : bool;
  split_arrays : bool;
  use_groups : bool;
  group_size : int;
  n_split_logs : int;
  n_delete_logs : int;
  htm_retries : int;
  checksums : bool;
}
(** The fields are documented at {!Descriptor.config}. *)

val fptree_config : config
(** Single-threaded FPTree defaults (Table 1: leaf 56, leaf groups of
    8; inner nodes of 512 keys, see the implementation). *)

val fptree_concurrent_config : config
(** Concurrent FPTree defaults (Table 1: leaf 64, inner 128; no leaf
    groups, 56 micro-logs of each kind).  The inner width is the
    paper's, re-checked by [bench/main.exe table1] for software
    speculation (DESIGN.md §2); FPTreeCVar widens it to 256. *)

val ptree_config : config
(** PTree (Table 1: leaf 32): no fingerprints, no leaf groups, keys
    and values in separate arrays. *)

type stats = {
  mutable key_probes : int;  (** in-leaf key comparisons (Figure 4) *)
  mutable finds : int;
  mutable inserts : int;
  mutable updates : int;
  mutable deletes : int;
  mutable leaf_splits : int;
  mutable leaf_deletes : int;
}
(** Operation counters, maintained only while the simulator's [stats]
    switch is on. *)

module Make (K : Keys.KEY) : sig
  type key = K.t

  type t = private {
    ctx : Keys.ctx;
    layout : Layout.t;
    config : config;
    meta : int;  (** offset of the persistent tree descriptor *)
    spec : Htm.Speculative_lock.t;
    mutable inner : key Inner.t;
    split_logs : Microlog.Pool.t;
    delete_logs : Microlog.Pool.t;
    groups : Leaf_groups.t;
    stats : stats;
    mutable quarantined : int list;
    mutable degraded : bool;
  }

  include Tree_intf.S with type t := t and type key := key
  (** [name] is ["FPTree"] for inline keys and ["FPTreeVar"] for
      variable keys. *)

  val create : ?config:config -> Pmem.Palloc.t -> t
  (** A fresh tree in the allocator's region, its descriptor anchored
      at the allocator root.
      @raise Failure if the region already holds a tree. *)

  val recover : ?config:config -> Pmem.Palloc.t -> t
  (** Re-open the tree persisted in the allocator's region: replay the
      micro-logs, audit leaks, quarantine corrupt leaves (checksum
      layouts), rebuild the DRAM inner nodes (Algorithm 9).  [config]
      supplies the fields the descriptor does not persist.
      @raise Failure on a missing tree, an implausible descriptor word,
      a key-kind mismatch, or a leaf or group link it will not follow
      ({!Descriptor.walk}; checksum layouts cut a bad leaf link
      instead).  A group-list tail word that does not name the last
      group is rewritten, not refused. *)

  val find_value : t -> default:int -> key -> int
  (** The value bound to the key, or [default]: the allocation-free
      lookup ([find] allocates its option). *)

  val try_delete : t -> key -> (bool, [ `Out_of_space ]) result
  (** [delete] with the typed result of {!try_insert}; deletes never
      allocate, so it is always [Ok]. *)

  (** {2 Capacity} *)

  val reclaim_space : t -> int
  (** Emergency reclamation: free fully-free leaf groups, then hand
      free tail blocks back to the arena.  Returns the bytes
      returned. *)

  val degraded : t -> bool
  (** Whether the last allocating operation was refused. *)

  val bytes_free : t -> int
  val watermark_state : t -> int

  (** {2 Introspection} *)

  val alloc : t -> Pmem.Palloc.t
  val iter : t -> (key -> int -> unit) -> unit
  val iter_leaves : t -> (int -> unit) -> unit
  val leaf_count : t -> int
  val height : t -> int
  val stats : t -> stats
  val reset_stats : t -> unit

  val reachable_blocks : t -> int list
  (** Offsets of every allocated block the tree accounts for
      (descriptor, leaves or groups, key blocks): the input to the
      allocator leak audit. *)

  val check_invariants : t -> unit
  (** Leaves are in strictly increasing key order along the linked
      list, every key routes to its leaf through the inner nodes, and
      fingerprints match.
      @raise Failure naming the first violated invariant. *)

  (** {2 Layer probes}

      The in-leaf search and the leaf lock, callable on their own so
      the layered benchmark can time each layer. *)

  val leaf_bitmap : t -> int -> int

  val find_slot_raw : t -> int -> key -> int -> int
  (** [find_slot_raw t leaf k h]: the slot of [k] in [leaf], or [-1],
      by fingerprint [h] (a linear scan without fingerprints). *)

  val lin_scan : t -> int -> key -> int -> int -> int
  (** [lin_scan t leaf k bm s]: linear key scan of the slots set in
      [bm], from slot [s]. *)

  val try_lock : t -> Inner.leaf_ref -> bool
  val unlock : t -> Inner.leaf_ref -> unit

  (** Probes that only tests use. *)
  module Testing : sig
    val logs_idle : t -> bool
    (** Every micro-log slot is disarmed. *)

    val leaf_locked_for : t -> key -> bool
    (** The leaf covering the key is locked. *)

    val spec_stats : t -> Htm.Speculative_lock.stats

    val quarantined : t -> int list
    (** Leaves the last {!recover} quarantined, newest first. *)
  end
end

val guard_space : (unit -> 'a) -> ('a, [> `Out_of_space ]) result
(** The one blessed adapter from the allocator's exhaustion exception
    to the typed result surface.  The baselines define their
    [try_insert]/[try_update] ({!Tree_intf.S}) with it.  Lint rules
    keep [Out_of_scm] out of every library above [lib/pmem] and
    [lib/fptree], and this adapter out of everything but [lib/fptree]
    and [lib/baselines]. *)
