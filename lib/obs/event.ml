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

(* persistence tags (14-27): recorded only under the [tracing] bit *)
let store = 14
let flush = 15
let fence = 16
let publish = 17
let link_write = 18
let log_arm = 19
let log_reset = 20
let lock_acquire = 21
let lock_release = 22
let leaf_retired = 23
let leaf_layout = 24
let track_reset = 25
let ver_begin = 26
let ver_end = 27

let tag_names =
  [| "op_begin"; "op_end"; "htm_abort"; "fallback_lock";
     "backoff_wait"; "split"; "merge"; "root_swap"; "span"; "persist_batch";
     "space_refused"; "degraded_enter"; "degraded_leave"; "store"; "flush";
     "fence"; "publish"; "link_write"; "log_arm"; "log_reset"; "lock_acquire";
     "lock_release"; "leaf_retired"; "leaf_layout"; "track_reset"; "ver_begin";
     "ver_end" |]

let tag_name t =
  if t >= 1 && t <= Array.length tag_names then tag_names.(t - 1)
  else "tag_" ^ string_of_int t

(* ---- publish sites (payload [d] of publish) ---- *)

let publish_bitmap = 1
let publish_pptr = 2
let publish_pptr_reset = 3
let publish_log_reset = 4

let publish_name = function
  | 1 -> "bitmap"
  | 2 -> "pptr"
  | 3 -> "pptr-reset"
  | 4 -> "log-reset"
  | s -> "publish_" ^ string_of_int s

(* ---- op kinds: the one op vocabulary ----

   Payload [a] of op_begin / op_end / space_refused and the op
   dimension of the [Attrib] matrix.  Codes are
   wire-stable: saved flight dumps decode by them. *)

let op_other = 0
let op_find = 1
let op_insert = 2
let op_delete = 3
let op_update = 4
let op_range = 5
let op_get = 6        (* kvstore cache ops: 6-8 *)
let op_set = 7
let op_kv_delete = 8
let op_txn = 9        (* one dbproto transaction (TATP mix) *)
let op_create = 10    (* tree lifecycle; only create is an op record *)
let op_recover = 11
let op_reclaim = 12

let op_names =
  [| "other"; "find"; "insert"; "delete"; "update"; "range"; "cache.get";
     "cache.set"; "cache.delete"; "tatp.txn"; "create"; "recover"; "reclaim" |]

let n_ops = Array.length op_names

let op_name k =
  if k >= 0 && k < n_ops then op_names.(k) else "op_" ^ string_of_int k

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
