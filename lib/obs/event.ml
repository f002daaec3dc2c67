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

(* ---- op kinds: the one op vocabulary ----

   Payload [a] of op_begin / op_end / space_refused, the op dimension
   of the [Attrib] matrix and the pmtrace scope labels.  Codes are
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
let op_create = 10    (* tree lifecycle: attribution scopes only *)
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
