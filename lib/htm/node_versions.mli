(** Per-node version words emulating TSX cache-line-granular conflict
    detection: each tree node embeds a version {!cell} in its DRAM
    record; readers record (cell, version) pairs into a per-domain
    read set and validate at commit; writers bump only the cells of
    the nodes they modify.  See the implementation header for the
    protocol and its false-positive classes. *)

type cell = int Atomic.t
(** A node's version word.  Allocated with the node record, so the
    reader's version probe lands in the node's own cache
    neighbourhood — the co-location real TSX gets by using the data
    lines themselves as the read set. *)

val fresh : unit -> cell
(** A new version cell (count 0, sequence 0). *)

exception Conflict
(** Raised by {!observe} when the node's version word is still busy (a
    writer is inside, or the node is held) after {!busy_wait_ns}.
    Constant constructor: raising it does not allocate. *)

val busy_wait_ns : int
(** How long {!observe} waits for a busy word to become quiet before
    it aborts (1 ms).  No wait under the model checker. *)

val begin_write : cell -> unit
(** Open a write phase on a cell: readers observing it abort, and the
    sequence bump fails any reader that observed it earlier.  Phases
    nest and overlap safely (the low bits count writers). *)

val end_write : cell -> unit

val begin_write_id : cell -> int -> unit
(** {!begin_write} under a node identity (same convention as
    {!observe_id}): the bump is a model-checker schedule point
    ({!Sched.point}).  All tree writers use the [_id] forms; the
    anonymous forms are for callers outside the checked protocol. *)

val end_write_id : cell -> int -> unit

val begin_hold : cell -> unit
(** Hold a cell: {!observe} treats it as busy (newcomers wait) until
    the matching {!end_hold}, but {!validate} ignores holds, so readers
    that recorded the cell earlier are not invalidated.  A hold does
    not change the node and is not a schedule point.  The tree holds a
    splitting leaf's parent so readers queue there instead of entering
    the leaf whose routing is about to change. *)

val end_hold : cell -> unit

(** {1 Read sets} *)

type readset

val scratch : unit -> readset
(** The calling domain's preallocated read-set buffer, emptied.  Only
    one optimistic section per domain may be active at a time: the
    buffer is keyed by [Domain.DLS], so tree operations must not nest
    optimistic sections, and two systhreads time-sharing one domain
    must not run optimistic sections concurrently (they would share
    and corrupt the buffer, letting a torn traversal validate).  The
    tree API ({!Fptree.Tree_intf}) states the resulting
    one-caller-per-domain rule. *)

val observe : readset -> cell -> unit
(** Record a cell's current version into the read set, first waiting
    up to {!busy_wait_ns} for a busy cell to become quiet.  In
    fallback mode ({!fallback}) it does not wait: a held cell is
    recorded as if the hold were not there, and a cell with a writer
    inside raises at once.
    @raise Conflict if the cell is still busy. *)

val observe_id : readset -> cell -> int -> unit
(** [observe] plus a caller-chosen node identity stored alongside the
    entry (tree convention: 0 = root pointer cell, > 0 = leaf SCM
    offset, < 0 = DRAM inner-node id).  The identity is only read back
    by {!failure} when attributing an abort; on the success path it
    costs one extra array store.
    @raise Conflict if the cell is still busy after the wait. *)

val validate : readset -> bool
(** [true] iff no recorded cell moved since it was observed.
    Allocation-free. *)

(** {1 Fallback mode}

    Used by {!Speculative_lock}'s driver to run a section's one body
    under the fallback mutex. *)

val fallback : unit -> readset
(** {!scratch} in fallback mode, with no busy object named.  The mode
    stays on (later [scratch] calls do not clear it) until
    {!end_fallback}. *)

val end_fallback : readset -> unit

val name_busy : readset -> int -> unit
(** Name the object ({!Sched.obj_lock}, {!Sched.obj_ver}) whose
    busy state fails the running section. *)

val await_busy : readset -> unit
(** After a failed fallback attempt, block under the model checker
    ({!Sched.await}) until another thread writes the version word
    {!observe_id} found a writer inside, else the object given to
    {!name_busy}; no wait after a failed validation.  A no-op in
    production. *)

(** {1 Abort attribution (flight recorder)} *)

val current : unit -> readset
(** The calling domain's read-set buffer as left by the section that
    just failed — {e not} emptied (unlike {!scratch}).  Retry handlers
    call this to feed {!failure} before the next attempt's [scratch]
    resets the buffer.  Same one-section-per-domain constraint as
    {!scratch}. *)

val failure : readset -> int * int
(** [(node identity, descent depth)] of the cell that failed the
    section: the busy cell {!observe_id} aborted on, or the first
    recorded cell whose version moved ({!validate} failure).  Identity
    -1 when nothing is attributable. *)

val last_recorded : readset -> (cell * int) option
(** The most recently recorded cell and its identity, if any.  After
    a section that descended to a leaf without observing the leaf
    itself, that is the leaf's parent (identity < 0) or the root
    pointer cell (identity 0).  Allocates; used on leaf splits only. *)
