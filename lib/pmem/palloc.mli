(** Crash-safe persistent allocator (Section 2 of the paper,
    "Memory leaks").

    Callers never receive a raw address: {!alloc} persistently writes
    the address of the new block into a persistent-pointer cell owned
    by the calling data structure, and {!free} persistently nulls that
    cell — the paper's leak-prevention contract.  An internal redo log
    makes both operations exactly-once across crashes: after
    {!of_region}, a block is allocated iff the owning pointer
    references it. *)

type t

(** Create and format a fresh arena in a new region (registered in
    {!Scm.Registry}). *)
val create : ?size:int -> unit -> t

(** Re-attach to an arena after a restart, completing or rolling back
    any in-flight operation.
    @raise Failure if the region is not a formatted arena. *)
val of_region : Scm.Region.t -> t

val region : t -> Scm.Region.t

exception Out_of_scm

(** [alloc t ~into size] carves a block of at least [size] bytes (the
    payload is 64-byte aligned) and persistently publishes its address
    into [into].  Thread-safe.
    @raise Out_of_scm when the arena is exhausted, or at an armed
    [Scm.Fault.Alloc_full] site.
    @raise Scm.Fault.Crash_injected at an armed [Scm.Fault.Alloc_crash]
    site.  Both faults fire before any persistent mutation.
    @raise Invalid_argument on non-positive or oversized requests. *)
val alloc : t -> into:Pptr.Loc.loc -> int -> unit

(** [free t ~from] returns the block referenced by the pointer stored
    at [from] to its free list and persistently nulls [from].
    @raise Invalid_argument on null pointers, foreign pointers, or
    double frees. *)
val free : t -> from:Pptr.Loc.loc -> unit

(** Crash-safe reclamation of an orphan block (allocated but referenced
    by no persistent pointer) given its payload offset: parks the
    address in a header scratch cell, then runs a regular {!free} from
    it.  A crash either leaves the orphan allocated — a later audit
    finds it again — or completes the free.  Used by fsck's repair
    mode.
    @raise Invalid_argument if [payload] is not an allocated block's
    payload offset. *)
val free_orphan : t -> payload:int -> unit

(** {1 Application root anchor} *)

(** The well-known pointer cell applications use to find their data
    after a restart. *)
val root : t -> Pptr.t

val set_root : t -> Pptr.t -> unit
val root_loc : t -> Pptr.Loc.loc

(** {1 Introspection} *)

(** Iterate every block ever carved from the heap, in address order. *)
val iter_blocks :
  t -> (payload:int -> bytes:int -> allocated:bool -> unit) -> unit

(** Gross SCM bytes currently held by allocated blocks. *)
val live_bytes : t -> int

(** Allocated blocks whose payload offset is not in [reachable]:
    persistent memory leaks. *)
val leaked_blocks : t -> reachable:int list -> int list

val alloc_count : t -> int
val free_count : t -> int

(** {1 Capacity accounting & admission control}

    All four accessors are pure DRAM arithmetic over volatile shadows
    of the bump pointer and free-list population (maintained under the
    arena mutex, rebuilt by {!of_region}): calling them issues no SCM
    accessor calls and allocates nothing, so hot paths can consult them
    without perturbing instrumented counter traces. *)

(** Total region bytes. *)
val size : t -> int

(** Heap bytes an application can ever receive (region minus the
    allocator header). *)
val usable_bytes : t -> int

(** Free bytes: unallocated frontier plus free-list blocks (gross,
    headers included). *)
val bytes_free : t -> int

(** Gross bytes currently held by allocated blocks; equals
    {!live_bytes} without the heap walk. *)
val bytes_live : t -> int

(** Gross SCM footprint (header included) of a [size]-byte allocation:
    the quantum for sizing hard reserves. *)
val gross_bytes : int -> int

(** [admit t ~reserve] is [true] iff the arena is below the soft
    watermark (90% of the usable bytes in use) and at least [reserve]
    bytes are free.
    Callers size [reserve] to their worst-case allocation footprint so
    every admitted operation can complete.  Allocation-free. *)
val admit : t -> reserve:int -> bool

(** 0 = below the soft watermark, 1 = past it (small allocations still
    possible), 2 = exhausted. *)
val watermark_state : t -> int

(** Persistently lower the bump pointer over every trailing free
    block, returning those bytes to the unallocated frontier where any
    size class can use them (free-list blocks only ever serve their own
    class).  Exactly-once per block via the operation log; a crash at
    any point replays idempotently on {!of_region}.  Returns the bytes
    reclaimed. *)
val reclaim : t -> int
