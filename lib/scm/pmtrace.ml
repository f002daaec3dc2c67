(* Persistent-memory event trace: the recorder behind the pmcheck
   sanitizer (PMTest / Yat style).

   When the [tracing] switch of [Obs.Gate]'s mode word is on, the
   simulator and the tree code
   append one event per SCM store, flush, publication point, micro-log
   transition, and leaf-lock transition.  The recorder is deliberately
   dumb: a single mutex-protected growable array shared by all domains,
   so events of a concurrent run form one globally ordered history (the
   mutex makes trace order a legal linearization of the real store
   order — good enough for the offline analyzer, which only needs *a*
   consistent interleaving).  Tracing flips every region into its
   instrumented slow path, so the hot path never sees the mutex.

   Call-site attribution: tree operations push a scope label
   ([scoped ~op:Obs.Event.op_insert], labelled by [Obs.Event.op_name])
   per domain; every event records the innermost label of its domain
   at append time.  The
   analyzer additionally uses scope boundaries to delimit the dirty-word
   lifetime checks. *)

type kind =
  | Store of { off : int; len : int; silent : bool }
      (** SCM write.  [silent] = the bytes written equal the bytes
          already there (the store dirtied its words without changing
          content — a flush of only-silent words is wasted). *)
  | Flush of { off : int; len : int }
      (** [Region.persist]: every line overlapping the range is flushed
          (whole lines, as CLFLUSH does), followed by a fence. *)
  | Fence  (** Standalone [Region.fence]. *)
  | Publish of { off : int; len : int; what : string }
      (** A p-atomic commit point made durable: bitmap flip, committed
          pptr install/retract, micro-log retirement.  Emitted after the
          committing persist; the analyzer demands that no dirty word of
          the current scope survives past this event. *)
  | Link_write of { off : int; len : int }
      (** Leaf-list next-pointer overwrite.  Must be covered by an armed
          micro-log entry of the same domain. *)
  | Log_arm of { log : int }      (** Micro-log fst set: entry armed. *)
  | Log_reset of { log : int }    (** Micro-log retired (idle again). *)
  | Lock_acquire of { leaf : int }
  | Lock_release of { leaf : int }
  | Leaf_retired of { leaf : int }
      (** Leaf freed (unlinked + returned to pool/allocator); its extent
          stops being lock-checked until re-acquired. *)
  | Leaf_layout of { bytes : int }
      (** Leaf extent size of the tree living in this region; lets the
          analyzer map a store offset to its owning leaf. *)
  | Track_reset
      (** Tree create/recover: forget all lock/leaf tracking state for
          this region (recovery legitimately writes without locks). *)
  | Writer_begin | Writer_end        (** HTM-fallback writer section. *)
  | Fallback_lock | Fallback_unlock  (** HTM fallback mutex (readers). *)
  | Ver_begin of { leaf : int }
      (** Per-node version write phase opened on a leaf: the writer is
          about to mutate the leaf's content, and optimistic readers
          observing the leaf abort until the matching [Ver_end]. *)
  | Ver_end of { leaf : int }
  | Scope_begin of { op : string }
  | Scope_end of { op : string }

type event = {
  domain : int;   (** numeric id of the recording domain *)
  region : int;   (** region id; -1 for region-less events *)
  site : string;  (** innermost scope label of the domain, "" if none *)
  kind : kind;
}

let[@inline] enabled () = Obs.Gate.any Obs.Gate.tracing

(* Hard cap so a forgotten [set_tracing true] cannot OOM a long run;
   overflow is counted, not silently ignored. *)
let max_events = 4_000_000

let lock = Mutex.create ()
let buf : event array ref = ref [||]
let len = ref 0
let dropped_count = ref 0

(* domain id -> scope label stack (protected by [lock]) *)
let scopes : (int, string list) Hashtbl.t = Hashtbl.create 8

let clear () =
  Mutex.lock lock;
  buf := [||];
  len := 0;
  dropped_count := 0;
  Hashtbl.reset scopes;
  Mutex.unlock lock

let size () =
  Mutex.lock lock;
  let n = !len in
  Mutex.unlock lock;
  n

let dropped () =
  Mutex.lock lock;
  let n = !dropped_count in
  Mutex.unlock lock;
  n

let events () =
  Mutex.lock lock;
  let out = Array.sub !buf 0 !len in
  Mutex.unlock lock;
  out

let dummy = { domain = 0; region = -1; site = ""; kind = Fence }

(* caller holds [lock] *)
let push ev =
  if !len >= max_events then incr dropped_count
  else begin
    let cap = Array.length !buf in
    if !len >= cap then begin
      let cap' = if cap = 0 then 1024 else cap * 2 in
      let b = Array.make (min cap' max_events) dummy in
      Array.blit !buf 0 b 0 !len;
      buf := b
    end;
    !buf.(!len) <- ev;
    incr len
  end

let current_site did =
  match Hashtbl.find_opt scopes did with
  | Some (s :: _) -> s
  | _ -> ""

(* Every emitter tests the switch itself, inline, before it builds its
   event: call sites need no guard, and with tracing off an emitter is
   one mask test that allocates nothing. *)
let record ~region kind =
  let did = (Domain.self () :> int) in
  Mutex.lock lock;
  push { domain = did; region; site = current_site did; kind };
  Mutex.unlock lock

let[@inline] store ~region ~off ~len ~silent =
  if enabled () then record ~region (Store { off; len; silent })
let[@inline] flush ~region ~off ~len =
  if enabled () then record ~region (Flush { off; len })
let[@inline] fence ~region = if enabled () then record ~region Fence
let[@inline] publish ~region ~off ~len what =
  if enabled () then record ~region (Publish { off; len; what })
let[@inline] link_write ~region ~off ~len =
  if enabled () then record ~region (Link_write { off; len })
let[@inline] log_arm ~region ~log =
  if enabled () then record ~region (Log_arm { log })
let[@inline] log_reset ~region ~log =
  if enabled () then record ~region (Log_reset { log })
let[@inline] lock_acquire ~region ~leaf =
  if enabled () then record ~region (Lock_acquire { leaf })
let[@inline] lock_release ~region ~leaf =
  if enabled () then record ~region (Lock_release { leaf })
let[@inline] leaf_retired ~region ~leaf =
  if enabled () then record ~region (Leaf_retired { leaf })
let[@inline] leaf_layout ~region ~bytes =
  if enabled () then record ~region (Leaf_layout { bytes })
let[@inline] track_reset ~region = if enabled () then record ~region Track_reset
let[@inline] writer_begin () = if enabled () then record ~region:(-1) Writer_begin
let[@inline] writer_end () = if enabled () then record ~region:(-1) Writer_end
let[@inline] fallback_lock () =
  if enabled () then record ~region:(-1) Fallback_lock
let[@inline] fallback_unlock () =
  if enabled () then record ~region:(-1) Fallback_unlock
let[@inline] ver_begin ~region ~leaf =
  if enabled () then record ~region (Ver_begin { leaf })
let[@inline] ver_end ~region ~leaf =
  if enabled () then record ~region (Ver_end { leaf })

(* One scope edge: update the domain's label stack, then record [kind]
   under the innermost label that remains. *)
let scope_edge kind update =
  let did = (Domain.self () :> int) in
  Mutex.lock lock;
  let stack = Option.value ~default:[] (Hashtbl.find_opt scopes did) in
  Hashtbl.replace scopes did (update stack);
  push { domain = did; region = -1; site = current_site did; kind };
  Mutex.unlock lock

let scoped ~op f =
  if not (enabled ()) then f ()
  else begin
    let op = Obs.Event.op_name op in
    scope_edge (Scope_begin { op }) (List.cons op);
    Fun.protect f ~finally:(fun () ->
        scope_edge (Scope_end { op }) (function _ :: tl -> tl | [] -> []))
  end
