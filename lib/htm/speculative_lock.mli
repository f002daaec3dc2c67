(** Software emulation of HTM lock elision (Intel TSX speculative spin
    mutex), the substrate of Selective Concurrency (Section 4.4,
    Algorithm 1).

    One protocol, driven by {!Section}: a section's one body runs
    lock-free against a per-node read set ({!Node_versions}); a moved
    or busy node version is a precise conflict, a held lock an
    explicit abort; after [retry_threshold] aborts the fallback mutex
    is taken for real and the same body runs under it, in the read
    set's fallback mode, releasing the mutex whenever that run finds
    a lock or version word busy (Algorithm 1's explicit abort under
    the global lock).  Structural writers serialize on the same mutex
    ({!with_write}) and bump the version cells of the nodes they
    modify.  The retry loop, backoff, fallback mutex and abort
    accounting are private to this module: callers supply only the
    body. *)

type t

val create : ?retry_threshold:int -> unit -> t

(** {1 Sections} *)

exception Abort
(** Raised by a body when a lock it needs is held (an explicit
    XABORT).  The driver counts it as an explicit abort if the read
    set still validates, else as a precise conflict; under the
    fallback mutex it reruns the body.  Constant constructor: raising
    it does not allocate. *)

val abort : Node_versions.readset -> obj:int -> 'a
(** [raise Abort], naming the busy lock word or version cell [obj]
    ({!Sched.obj_lock} / {!Sched.obj_ver}): a run under the fallback
    mutex that fails this way parks on [obj] under the model checker
    before it relocks. *)

(** What a call site supplies.  [body ctx a b rs] runs the section
    against the emptied read set [rs], optimistically or under the
    fallback mutex (the driver decides; the body cannot tell): it must
    validate [rs] itself before returning a result (undoing any lock
    it took and raising {!Node_versions.Conflict} when validation
    fails), may raise {!Abort} (or call {!abort}), and may raise any
    other exception, which the driver trusts only if [rs] still
    validates.  [committed n] is told how many aborts preceded a
    committed result or trusted exception ([retry_threshold] after a
    fallback). *)
module type SECTION = sig
  type ctx
  type arg
  type aux
  type res

  val lock : ctx -> t
  val body : ctx -> arg -> aux -> Node_versions.readset -> res
  val committed : int -> unit
end

(** The one section driver: retry budget, read-set scratch, exception
    trust, precise/explicit abort accounting with flight attribution,
    backoff, and the Algorithm 1 fallback loop.  Allocation-free with
    the flight recorder off (the gate-on abort attribution builds a
    pair). *)
module Section (S : SECTION) : sig
  val run : S.ctx -> S.arg -> S.aux -> S.res
end

(** Run [f] as a writing transaction: mutual exclusion against other
    writers and fallback holders.  Optimistic readers are invalidated
    by the version-cell bumps [f] makes on the nodes it modifies. *)
val with_write : t -> (unit -> 'a) -> 'a

(** {1 Statistics}

    Domain-sharded and exact under parallel domains.  [aborts] is the
    total; [precise_conflicts] (a node in the read set moved or was
    busy) and [explicit_aborts] (a lock was held) partition it;
    [fallbacks] counts entries into the real mutex.  The same events
    feed the process-wide [htm_*_total] counters in {!Obs.Registry}. *)

type stats = {
  aborts : int;
  precise_conflicts : int;
  explicit_aborts : int;
  fallbacks : int;
  backoff_waits : int;  (** bounded-exponential backoff waits between retries *)
}

(** Merged (all-domain) totals for this lock. *)
val stats : t -> stats

(** {!stats} as the [(reason, count)] list of
    {!Fptree.Tree_intf.S.htm_stats}. *)
val stats_assoc : t -> (string * int) list

val merge : stats -> stats -> stats
val zero_stats : stats

(** Per-domain-shard breakdown, non-zero shards only; folding with
    {!merge} reproduces {!stats}. *)
val shard_stats : t -> (int * stats) list
