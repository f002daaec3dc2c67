(** A simulated persistent-memory region (one mmap-ed SCM file).

    Reads and writes go through accessors that simulate a direct-mapped
    CPU cache (to count SCM line misses for the latency model) and
    track dirty 8-byte words (so a simulated crash reverts exactly what
    a power failure would lose).  The volatile view and the persistent
    image differ until {!persist} is called.

    When [Config.current] has [stats], [crash_tracking],
    [delay_injection] and [tracing] all off, accessors switch to a fast
    path (one span validation, then unchecked buffer access, no
    per-line or per-word instrumentation).  The decision is one test
    of [Obs.Gate]'s mode word, which only the [Config] setters write,
    so instrumentation switches MUST go through them. *)

type t

(** [make ~id ~size] creates a zeroed region.  [size] must be a
    positive multiple of the cache-line size.
    @raise Invalid_argument otherwise. *)
val make : id:int -> size:int -> t

val id : t -> int
val size : t -> int

(** {1 Reads}

    All accessors bounds-check and raise [Invalid_argument] on
    out-of-range access. *)

val read_u8 : t -> int -> int
val read_int64 : t -> int -> int64

(** [read_word t off] is [Int64.to_int (read_int64 t off)] without the
    intermediate boxed [int64]: a 64-bit little-endian load truncated
    to a tagged 63-bit [int].  The tree's hot-path accessor. *)
val read_word : t -> int -> int

(** [read_u32 t off] is a 32-bit little-endian load as an unsigned
    tagged [int] in [0, 2^32) — half-word granularity for SWAR scans
    that cannot afford the 63-bit truncation of {!read_word}. *)
val read_u32 : t -> int -> int

val read_string : t -> int -> int -> string

(** [equal_string t off len s] is
    [String.equal (read_string t off len) s] without copying: it loads
    the same span [off, off+len) as {!read_string}, also when [len] is
    not the length of [s], so the counted line reads are the same. *)
val equal_string : t -> int -> int -> string -> bool
val blit_to_bytes : t -> int -> bytes -> int -> int -> unit

(** {1 Writes}

    Writes land in the simulated volatile cache: they are visible to
    subsequent reads immediately but reach the persistence domain only
    when their cache line is persisted. *)

val write_u8 : t -> int -> int -> unit
val write_int64 : t -> int -> int64 -> unit

(** [write_word t off v] is [write_int64 t off (Int64.of_int v)]
    without the boxing; the exact inverse of {!read_word}. *)
val write_word : t -> int -> int -> unit

(** A p-atomic 8-byte store: must be word-aligned so it can never tear
    across a crash (Section 2 of the paper, "Partial writes").
    @raise Invalid_argument when the offset is not 8-byte aligned. *)
val write_int64_atomic : t -> int -> int64 -> unit

(** {!write_word} with the alignment guarantee of
    {!write_int64_atomic}. *)
val write_word_atomic : t -> int -> int -> unit

val write_string : t -> int -> string -> unit
val blit_internal : t -> src:int -> dst:int -> len:int -> unit
val fill : t -> int -> int -> char -> unit

(** {1 Persistence primitives} *)

(** Memory fence (MFENCE equivalent); counted in the statistics. *)
val fence : t -> unit

(** [persist t off len] flushes the cache lines overlapping
    [off, off+len) and fences — the paper's [Persist] primitive
    (CLFLUSH wrapped in MFENCEs).  An armed [Fault.Persist_skip]
    drops it without effect; an armed [Fault.Persist_crash] raises
    {!Fault.Crash_injected} and nothing reaches the persistence
    domain. *)
val persist : t -> int -> int -> unit

(** Flush the whole region. *)
val persist_all : t -> unit

(** {1 Spatial wear heatmap}

    When [Config.current.wear_heatmap] is on, the instrumented flush
    loop records (a sample of — see [Config.heatmap_sample_shift]) the
    flushed lines in per-region shadow arrays: a write count and a
    component bitmask (bit = [Obs.Attrib] component index) per cache
    line.  Unsynchronized by design: the spatial profile may lose
    increments under concurrent domains; exactness belongs to the
    attribution matrix. *)

(** Number of cache lines the heatmap covers ([size / 64]). *)
val heat_lines : t -> int

(** [(counts, component_masks)] per line, or [None] if nothing was
    recorded.  Returns the live arrays — copy before mutating. *)
val heatmap : t -> (int array * int array) option

val clear_heatmap : t -> unit

(** {1 Crash simulation} *)

(** Simulate a power failure: unflushed words lose their volatile value
    according to [mode] (default: all reverted), then the process
    "restarts" with an empty dirty set and cold simulated cache. *)
val crash : ?mode:Config.crash_mode -> t -> unit

val dirty_word_count : t -> int

(** {1 Fault injection}

    Torn-write injection is the [Fault.Torn_store] site: when armed,
    the n-th tearable store (any multi-byte store except the p-atomic
    {!write_int64_atomic} / {!write_word_atomic}) on the instrumented
    path persists only a deterministic byte prefix of its span and
    raises {!Fault.Crash_injected} mid-store.  Fast-mode runs never
    tear. *)

(** [corrupt t ~off ~len ~bits ~seed] flips [bits] seeded pseudo-random
    bits inside [off, off+len) in the {e committed} image: the volatile
    view and the persistent image both change, and the affected words
    are dropped from the dirty set (the fault lives in the medium, not
    the cache).  Models an SCM media error for the checksum/quarantine
    and fsck tests.
    @raise Invalid_argument on an empty span, [bits <= 0], or
    out-of-bounds access. *)
val corrupt : t -> off:int -> len:int -> bits:int -> seed:int -> unit

(** {1 In-memory images} *)

type image

(** [image t] copies [t]'s persistent image (dirty words reverted):
    what {!save} writes, kept in memory. *)
val image : t -> image

(** [restore t img] makes [img] both the volatile view and the
    persistent image of [t], as after a {!crash}: no word is dirty and
    the simulated cache is cold.  Crash sweeps restore one crashed
    image before each recovery run instead of rebuilding it.
    @raise Invalid_argument when [img] was taken of a region of
    another size. *)
val restore : t -> image -> unit

(** {1 Durability across processes} *)

(** [save t path] writes the persistent image (dirty words reverted) to
    [path]. *)
val save : t -> string -> unit

(** [load path] reads an image written by {!save}.  The header is
    checked before anything is allocated.
    @raise Failure ["Region.load: ..."] on a bad magic, a truncated
    header, or a size that is not a positive multiple of 64 equal to
    the payload bytes in the file. *)
val load : string -> t
