(** Leaf locks and per-leaf version phases (Selective Concurrency,
    Section 4.4).  Both live in the leaf's volatile {!Inner.leaf_ref},
    next to each other: a writer takes the lock inside its speculative
    section, then brackets every persistent mutation of the leaf with a
    version phase so optimistic readers of the leaf abort instead of
    reading half-written entries.  The region argument only names the
    leaf in pmcheck trace events. *)

(** Test-and-test-and-set acquire; [false] if the lock is held. *)
val try_lock : Scm.Region.t -> Inner.leaf_ref -> bool

val unlock : Scm.Region.t -> Inner.leaf_ref -> unit
val is_locked : Inner.leaf_ref -> bool

(** Open a write phase on the leaf's version word.  Phases nest. *)
val ver_begin : Scm.Region.t -> Inner.leaf_ref -> unit

val ver_end : Scm.Region.t -> Inner.leaf_ref -> unit
