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

(* ---- record tags ---- *)

let op_begin = 1
let op_end = 2
let htm_abort = 3
let fallback_lock = 4
let backoff_wait = 5
let split = 6
let merge = 7
let root_swap = 8
let span = 9
let persist_batch = 10
let space_refused = 11
let degraded_enter = 12
let degraded_leave = 13

let tag_name = function
  | 1 -> "op_begin"
  | 2 -> "op_end"
  | 3 -> "htm_abort"
  | 4 -> "fallback_lock"
  | 5 -> "backoff_wait"
  | 6 -> "split"
  | 7 -> "merge"
  | 8 -> "root_swap"
  | 9 -> "span"
  | 10 -> "persist_batch"
  | 11 -> "space_refused"
  | 12 -> "degraded_enter"
  | 13 -> "degraded_leave"
  | t -> "tag_" ^ string_of_int t

(* ---- op kinds (payload [a] of op_begin / op_end) ---- *)

let op_find = 1
let op_insert = 2
let op_delete = 3
let op_update = 4
let op_range = 5

(* kvstore cache ops *)
let op_get = 6
let op_set = 7
let op_kv_delete = 8

(* one dbproto transaction (TATP mix) *)
let op_txn = 9

let op_name = function
  | 1 -> "find"
  | 2 -> "insert"
  | 3 -> "delete"
  | 4 -> "update"
  | 5 -> "range"
  | 6 -> "cache.get"
  | 7 -> "cache.set"
  | 8 -> "cache.delete"
  | 9 -> "tatp.txn"
  | k -> "op_" ^ string_of_int k

(* ---- HTM abort reasons (payload [a] of htm_abort) ---- *)

(* precise = per-node read-set validation failure; explicit =
   deliberate abort (leaf lock observed held).  Code 0 is retired (the
   old tree-global protocol); the others keep their values so saved
   flight dumps still decode. *)
let abort_precise = 1
let abort_explicit = 2

let abort_name = function
  | 1 -> "precise-conflict"
  | 2 -> "explicit"
  | r -> "abort_" ^ string_of_int r
