(** Event taxonomy of the flight recorder.

    Every flight-recorder record is six machine words:
    [tag; t_us; a; b; c; d] — a tag from this module, a monotonic
    timestamp in microseconds ({!Clock.now_us_int}), and four
    tag-specific integer payload words.  Keeping the schema flat and
    numeric is what makes the write path allocation-free; this module
    is the single place that says what the payload words mean, and the
    exporters use the [*_name] functions to render them.

    Payload layout by tag:

    - [op_begin]:   a = op kind, b = key fingerprint
    - [op_end]:     a = op kind, b = key fingerprint, c = duration us,
                    d = 1 if the op succeeded (hit / inserted /
                    updated / deleted), 0 otherwise
    - [htm_abort]:  a = abort reason, b = failing node identity
                    (see {!Flight}: 0 = root pointer cell, > 0 = leaf
                    SCM offset, < 0 = DRAM inner-node id, -1 =
                    unattributed),
                    c = descent depth at failure (-1 = unknown)
    - [fallback_lock]: no payload (the acquiring domain is the ring)
    - [backoff_wait]: a = retry attempt number, b = spins waited
    - [split]:      a = left leaf offset, b = new right leaf offset
    - [merge]:      a = deleted leaf offset, b = predecessor leaf
                    offset (-1 = head of chain)
    - [root_swap]:  a = 1 when the tree grew a level, 2 when the root
                    collapsed into its single child
    - [span]:       a = interned span-name id (an index into
                    {!Flight.name_table}), b = duration us; [t_us] is
                    the span start
    - [persist_batch]: a = persists in this batch window,
                    b = running per-domain persist total
    - [space_refused]: a = op kind, b = key fingerprint, c = arena
                    bytes free at refusal
    - [degraded_enter] / [degraded_leave]: a = arena bytes free at the
                    transition (enter: first refusal past the
                    watermark; leave: an admission succeeded again) *)

(** {1 Record tags} *)

val op_begin : int
val op_end : int
val htm_abort : int
val fallback_lock : int
val backoff_wait : int
val split : int
val merge : int
val root_swap : int
val span : int
val persist_batch : int
val space_refused : int
val degraded_enter : int
val degraded_leave : int

val tag_name : int -> string

(** {1 Op kinds}

    Payload [a] of [op_begin] / [op_end]: the tree ops, the kvstore
    cache ops, and one dbproto transaction (TATP mix). *)

val op_find : int
val op_insert : int
val op_delete : int
val op_update : int
val op_range : int
val op_get : int
val op_set : int
val op_kv_delete : int
val op_txn : int

val op_name : int -> string

(** {1 HTM abort reasons}

    Payload [a] of [htm_abort]: a per-node read-set validation failure
    (precise) or a deliberate abort on a held leaf lock (explicit).
    Code 0 is retired; the others keep their values so saved flight
    dumps still decode. *)

val abort_precise : int
val abort_explicit : int
val abort_name : int -> string
