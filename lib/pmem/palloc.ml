(** Crash-safe persistent allocator (Section 2, "Memory leaks").

    The interface is the paper's leak-prevention contract: callers never
    receive a raw address.  Instead they pass the location of a
    persistent pointer *owned by the persistent data structure*; the
    allocator persistently writes the address of the new block into that
    location ([alloc]) or persistently nulls it ([free]).  A redo/undo
    micro-log inside the region makes both operations exactly-once
    across crashes: on recovery the allocator completes or rolls back
    the in-flight operation, so a block is allocated if and only if the
    owning pointer references it.

    Region layout:
    {v
      0   magic
      8   bump pointer
      16  root persistent pointer (application anchor)
      64  operation log {state; dest_region; dest_off; block; units}
      128 segregated free-list heads, one per size class (64B units)
      heap_start ...                                              bump
    v}

    Blocks are a 64-byte header line ([units<<1|allocated] and free-list
    next) followed by a 64-byte-aligned payload, so leaf payloads start
    on a cache-line boundary as the FPTree layout requires. *)

module Region = Scm.Region

let unit_size = 64
let max_units = 4096 (* single allocation capped at 256 KiB *)

let off_magic = 0
let off_bump = 8
let off_root = 16
(* Scratch pointer cell used by [free_orphan]: an orphan block is
   parked here persistently so a regular [free] can reclaim it with the
   usual exactly-once log protocol. *)
let off_scratch = 32
let off_log_state = 64
let off_log_dest_region = 72
let off_log_dest_off = 80
let off_log_block = 88
let off_log_units = 96
let off_heads = 128
let heap_start = (off_heads + (max_units + 1) * 8 + 63) / 64 * 64

let magic = 0x4650414C4C4F4331L (* "FPALLOC1" *)

let log_idle = 0L
let log_alloc = 1L
let log_free = 2L
let log_reclaim = 3L

(* Process-wide allocator telemetry (all arenas aggregated); the
   per-arena [alloc_count]/[free_count] stay volatile fields. *)
let g_allocs =
  Obs.Registry.counter "pmem_alloc_total"
    ~help:"persistent allocations completed (all arenas)"

let g_frees =
  Obs.Registry.counter "pmem_free_total"
    ~help:"persistent frees completed (all arenas)"

let g_leaked = Atomic.make 0

let () =
  Obs.Registry.gauge "pmem_live_objects"
    ~help:"allocations minus frees (all arenas)" (fun () ->
      Obs.Counter.value g_allocs - Obs.Counter.value g_frees);
  Obs.Registry.gauge "pmem_leaked_objects"
    ~help:"orphaned blocks found by the most recent leak audit" (fun () ->
      Atomic.get g_leaked)

type t = {
  region : Region.t;
  mutex : Mutex.t;
  (* volatile op counters *)
  mutable allocs : int;
  mutable frees : int;
  (* Volatile shadows of the capacity state, maintained under [mutex]:
     admission control and the capacity gauges must not issue Region
     accessor calls (which would perturb the pinned instrumented
     counter traces), so [bytes_free] is pure DRAM arithmetic over
     these two fields.  [v_bump = -1] means the shadows are unknown
     (after [of_region]); the first capacity query rebuilds them with
     a heap walk — deferred so that re-attaching an allocator stays
     O(1) region reads (the baselines' instant-recovery bound counts
     every line). *)
  mutable v_bump : int;             (* mirrors the persistent bump; -1 = stale *)
  mutable v_free_bytes : int;       (* gross bytes parked on free lists *)
}

let region t = t.region

(* ---- small helpers over the header ---- *)

let read_bump t = Int64.to_int (Region.read_int64 t.region off_bump)

let write_bump t v =
  Region.write_int64_atomic t.region off_bump (Int64.of_int v);
  Region.persist t.region off_bump 8

let head_off units = off_heads + (units * 8)
let read_head t units = Int64.to_int (Region.read_int64 t.region (head_off units))

let write_head t units v =
  Region.write_int64_atomic t.region (head_off units) (Int64.of_int v);
  Region.persist t.region (head_off units) 8

let block_header t block = Int64.to_int (Region.read_int64 t.region block)
let block_units header = header lsr 1
let block_allocated header = header land 1 = 1

let write_block_header t block ~units ~allocated =
  let w = (units lsl 1) lor (if allocated then 1 else 0) in
  Region.write_int64_atomic t.region block (Int64.of_int w);
  Region.persist t.region block 8

let block_next t block = Int64.to_int (Region.read_int64 t.region (block + 8))

let write_block_next t block v =
  Region.write_int64_atomic t.region (block + 8) (Int64.of_int v);
  Region.persist t.region (block + 8) 8

let payload_of_block block = block + unit_size
let block_of_payload payload = payload - unit_size
let gross_span units = unit_size + (units * unit_size)

(* ---- operation log ---- *)

(* The log is published in two persists: fields first, then the state
   word.  A crash between them leaves state = idle, so half-written
   fields are ignored by recovery. *)
let log_publish t ~state ~dest ~block ~units =
  let r = t.region in
  Region.write_int64 r off_log_dest_region
    (Int64.of_int (Scm.Region.id (dest : Pptr.Loc.loc).Pptr.Loc.region));
  Region.write_int64 r off_log_dest_off (Int64.of_int dest.Pptr.Loc.off);
  Region.write_int64 r off_log_block (Int64.of_int block);
  Region.write_int64 r off_log_units (Int64.of_int units);
  Region.persist r off_log_dest_region 32;
  Region.write_int64_atomic r off_log_state state;
  Region.persist r off_log_state 8

let log_clear t =
  Region.write_int64_atomic t.region off_log_state log_idle;
  Region.persist t.region off_log_state 8

(* ---- creation / opening ---- *)

let format region =
  let sc = Obs.Attrib.set_component Obs.Attrib.comp_alloc_meta in
  Region.write_int64 region off_bump (Int64.of_int heap_start);
  Pptr.write region off_root Pptr.null;
  Region.write_int64 region off_log_state log_idle;
  for u = 0 to max_units do
    Region.write_int64 region (head_off u) 0L
  done;
  Region.persist region 0 heap_start;
  (* Magic last: a region is an allocator arena only once fully formatted. *)
  Region.write_int64_atomic region off_magic magic;
  Region.persist region off_magic 8;
  Obs.Attrib.restore_component sc

(* Weak registry of open arenas feeding the capacity gauges below
   (registered at the end of this file, once the accessors exist).  An
   arena re-opened over the same region replaces its predecessor's
   slot, so restart loops do not double-count. *)
let arenas : t Weak.t = Weak.create 64
let arenas_lock = Mutex.create ()

let register_arena t =
  Mutex.lock arenas_lock;
  let n = Weak.length arenas in
  let slot = ref (-1) in
  for i = 0 to n - 1 do
    match Weak.get arenas i with
    | None -> if !slot < 0 then slot := i
    | Some a ->
      if Region.id a.region = Region.id t.region then begin
        Weak.set arenas i None;
        if !slot < 0 then slot := i
      end
  done;
  Weak.set arenas (if !slot >= 0 then !slot else 0) (Some t);
  Mutex.unlock arenas_lock

let live_arenas () =
  let l = ref [] in
  for i = Weak.length arenas - 1 downto 0 do
    match Weak.get arenas i with Some a -> l := a :: !l | None -> ()
  done;
  !l

let create ?(size = 64 * 1024 * 1024) () =
  let region = Scm.Registry.create ~size in
  format region;
  let t =
    { region; mutex = Mutex.create (); allocs = 0; frees = 0;
      v_bump = heap_start; v_free_bytes = 0 }
  in
  register_arena t;
  t

exception Out_of_scm

(* ---- allocation ---- *)

let alloc t ~(into : Pptr.Loc.loc) size =
  if size <= 0 then invalid_arg "Palloc.alloc: size must be positive";
  let units = (size + unit_size - 1) / unit_size in
  if units > max_units then invalid_arg "Palloc.alloc: size too large";
  if Scm.Fault.fires Alloc_crash then raise Scm.Fault.Crash_injected;
  if Scm.Fault.fires Alloc_full then raise Out_of_scm;
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  let sc = Obs.Attrib.set_component Obs.Attrib.comp_alloc_meta in
  let r = t.region in
  let from_free_list = read_head t units <> 0 in
  let block =
    if from_free_list then read_head t units
    else begin
      let bump = read_bump t in
      if bump + gross_span units > Region.size r then raise Out_of_scm;
      bump
    end
  in
  (* 1. publish intent *)
  log_publish t ~state:log_alloc ~dest:into ~block ~units;
  (* 2. detach the block from its source *)
  if from_free_list then write_head t units (block_next t block)
  else write_bump t (block + gross_span units);
  (* 3. mark allocated *)
  write_block_header t block ~units ~allocated:true;
  (* 4. hand the block to its owner, persistently *)
  Pptr.Loc.write_persist into
    (Pptr.of_region r ~off:(payload_of_block block));
  (* 5. retire the log *)
  log_clear t;
  if t.v_bump >= 0 then
    if from_free_list then t.v_free_bytes <- t.v_free_bytes - gross_span units
    else t.v_bump <- block + gross_span units;
  t.allocs <- t.allocs + 1;
  Obs.Counter.incr g_allocs;
  Obs.Attrib.restore_component sc

let free t ~(from : Pptr.Loc.loc) =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  let sc = Obs.Attrib.set_component Obs.Attrib.comp_alloc_meta in
  let r = t.region in
  let p = Pptr.Loc.read from in
  if Pptr.is_null p then invalid_arg "Palloc.free: pointer already null";
  if p.Pptr.region_id <> Scm.Region.id r then
    invalid_arg "Palloc.free: pointer does not belong to this arena";
  let block = block_of_payload p.Pptr.off in
  let header = block_header t block in
  if not (block_allocated header) then invalid_arg "Palloc.free: double free";
  let units = block_units header in
  (* 1. publish intent *)
  log_publish t ~state:log_free ~dest:from ~block ~units;
  (* 2. persistently null the owner's pointer: the free is now visible *)
  Pptr.Loc.write_persist from Pptr.null;
  (* 3. return the block to its free list *)
  write_block_header t block ~units ~allocated:false;
  write_block_next t block (read_head t units);
  write_head t units block;
  (* 4. retire the log *)
  log_clear t;
  if t.v_bump >= 0 then t.v_free_bytes <- t.v_free_bytes + gross_span units;
  t.frees <- t.frees + 1;
  Obs.Counter.incr g_frees;
  Obs.Attrib.restore_component sc

(** Crash-safe reclamation of an orphan: a block that is allocated in
    the heap but referenced by no persistent pointer (fsck's repair
    path).  The orphan's address is first parked, persistently, in the
    header's scratch pointer cell, which then acts as the owning
    pointer for a regular {!free}.  A crash at any point either leaves
    the orphan allocated (a later fsck finds and reclaims it again) or
    completes the free via the operation log. *)
let free_orphan t ~payload =
  let sc = Obs.Attrib.set_component Obs.Attrib.comp_alloc_meta in
  Pptr.write_persist t.region off_scratch
    (Pptr.of_region t.region ~off:payload);
  Obs.Attrib.restore_component sc;
  free t ~from:(Pptr.Loc.make t.region off_scratch)

(* ---- recovery ---- *)

let recover_alloc t =
  let sc = Obs.Attrib.set_component Obs.Attrib.comp_alloc_meta in
  let r = t.region in
  let block = Int64.to_int (Region.read_int64 r off_log_block) in
  let units = Int64.to_int (Region.read_int64 r off_log_units) in
  let dest_region =
    Scm.Registry.find (Int64.to_int (Region.read_int64 r off_log_dest_region))
  in
  let dest_off = Int64.to_int (Region.read_int64 r off_log_dest_off) in
  let header = block_header t block in
  if block_allocated header && block_units header = units then begin
    (* Crashed at/after step 3: complete the handover. *)
    Pptr.write_persist dest_region dest_off
      (Pptr.of_region r ~off:(payload_of_block block));
    log_clear t
  end
  else if read_head t units = block then
    (* Step 2 not reached (free-list path): nothing changed; roll back. *)
    log_clear t
  else if read_bump t <= block then
    (* Step 2 not reached (bump path): nothing changed; roll back. *)
    log_clear t
  else begin
    (* Source was detached but the block not yet marked: redo 3..5. *)
    write_block_header t block ~units ~allocated:true;
    Pptr.write_persist dest_region dest_off
      (Pptr.of_region r ~off:(payload_of_block block));
    log_clear t
  end;
  Obs.Attrib.restore_component sc

let recover_free t =
  let sc = Obs.Attrib.set_component Obs.Attrib.comp_alloc_meta in
  let r = t.region in
  let block = Int64.to_int (Region.read_int64 r off_log_block) in
  let units = Int64.to_int (Region.read_int64 r off_log_units) in
  let dest_region =
    Scm.Registry.find (Int64.to_int (Region.read_int64 r off_log_dest_region))
  in
  let dest_off = Int64.to_int (Region.read_int64 r off_log_dest_off) in
  (* Redo from step 2; every sub-step is idempotent. *)
  Pptr.write_persist dest_region dest_off Pptr.null;
  let header = block_header t block in
  if block_allocated header then begin
    write_block_header t block ~units ~allocated:false;
    write_block_next t block (read_head t units);
    write_head t units block
  end
  else if read_head t units <> block then begin
    write_block_next t block (read_head t units);
    write_head t units block
  end;
  log_clear t;
  Obs.Attrib.restore_component sc

(* Detach [block] from its size-class free list if present (no-op
   otherwise) — shared by tail reclamation and its recovery, which must
   be idempotent. *)
let unlink_free t ~block ~units =
  let head = read_head t units in
  if head = block then write_head t units (block_next t block)
  else begin
    let p = ref head in
    while !p <> 0 && block_next t !p <> block do
      p := block_next t !p
    done;
    if !p <> 0 then write_block_next t !p (block_next t block)
  end

let recover_reclaim t =
  let sc = Obs.Attrib.set_component Obs.Attrib.comp_reclaim in
  let r = t.region in
  let block = Int64.to_int (Region.read_int64 r off_log_block) in
  let units = Int64.to_int (Region.read_int64 r off_log_units) in
  (* Redo: unlink if still linked, lower the bump if still above.  Both
     idempotent, so a crash inside this recovery converges on rerun. *)
  unlink_free t ~block ~units;
  if read_bump t > block then write_bump t block;
  log_clear t;
  Obs.Attrib.restore_component sc

(* Walk the blocks carved below [bump], in address order: [f] gets
   each one's payload offset, payload bytes and allocation bit. *)
let walk_blocks t ~bump f =
  let off = ref heap_start in
  while !off < bump do
    let header = block_header t !off in
    let units = block_units header in
    if units = 0 || units > max_units then
      failwith "Palloc: corrupt block header";
    f ~payload:(payload_of_block !off) ~bytes:(units * unit_size)
      ~allocated:(block_allocated header);
    off := !off + gross_span units
  done

(** Iterate all blocks ever carved from the heap, in address order. *)
let iter_blocks t f = walk_blocks t ~bump:(read_bump t) f

(* Rebuild the volatile capacity shadows from the persistent heap.
   O(blocks) region reads, so NOT run eagerly at open (the baselines'
   instant-recovery bound counts every line): [of_region] leaves the
   shadows stale ([v_bump = -1]) and the first capacity query pays for
   the walk, under [mutex]. *)
let recompute_shadows t =
  let bump = read_bump t in
  let free = ref 0 in
  walk_blocks t ~bump (fun ~payload:_ ~bytes ~allocated ->
      if not allocated then free := !free + unit_size + bytes);
  t.v_free_bytes <- !free;
  (* bump last: a concurrent [bytes_free] treats the shadows as valid
     the instant it sees [v_bump >= 0] *)
  t.v_bump <- bump

(* Valid-shadow fast path reads two immutable-once-rebuilt ints; the
   stale path rebuilds under the mutex (double-checked). *)
let ensure_shadows t =
  if t.v_bump < 0 then begin
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
    if t.v_bump < 0 then recompute_shadows t
  end

(** Re-attach an allocator to a region after a restart, completing or
    rolling back any in-flight operation. *)
let of_region region =
  if Region.read_int64 region off_magic <> magic then
    failwith "Palloc.of_region: not an allocator arena";
  let t =
    { region; mutex = Mutex.create (); allocs = 0; frees = 0;
      v_bump = -1; v_free_bytes = 0 }
  in
  (match Region.read_int64 region off_log_state with
  | s when s = log_idle -> ()
  | s when s = log_alloc -> recover_alloc t
  | s when s = log_free -> recover_free t
  | s when s = log_reclaim -> recover_reclaim t
  | s -> failwith (Printf.sprintf "Palloc: corrupt log state %Ld" s));
  register_arena t;
  t

(* ---- application root anchor ---- *)

let root t = Pptr.read t.region off_root

(** Persistently set the application root pointer.  Meant for one-time
    initialization (the 16-byte store is not atomic by itself). *)
let set_root t p =
  let sc = Obs.Attrib.set_component Obs.Attrib.comp_tree_meta in
  Pptr.write_persist t.region off_root p;
  Obs.Attrib.restore_component sc

let root_loc t = Pptr.Loc.make t.region off_root

(* ---- introspection: heap walk, leak audit, memory accounting ---- *)

(** Gross SCM bytes currently held by allocated blocks (headers included). *)
let live_bytes t =
  let total = ref 0 in
  iter_blocks t (fun ~payload:_ ~bytes ~allocated ->
      if allocated then total := !total + bytes + unit_size);
  !total

(** Payload offsets of allocated blocks not present in [reachable]:
    persistent memory leaks. *)
let leaked_blocks t ~reachable =
  let set = Hashtbl.create (List.length reachable * 2 + 16) in
  List.iter (fun off -> Hashtbl.replace set off ()) reachable;
  let leaks = ref [] in
  iter_blocks t (fun ~payload ~bytes:_ ~allocated ->
      if allocated && not (Hashtbl.mem set payload) then
        leaks := payload :: !leaks);
  let r = List.rev !leaks in
  Atomic.set g_leaked (List.length r);
  r

let alloc_count t = t.allocs
let free_count t = t.frees

(* ---- capacity accounting, admission control, tail reclamation ---- *)

let size t = Region.size t.region
let usable_bytes t = Region.size t.region - heap_start

(* Pure DRAM arithmetic (shadow fields + a plain [Region.size] field
   read) once the shadows are valid: callable from hot paths without
   perturbing the instrumented SCM counter traces, and allocation-free.
   The one-time rebuild after [of_region] is the only path that reads
   the region. *)
let bytes_free t =
  ensure_shadows t;
  Region.size t.region - t.v_bump + t.v_free_bytes

let bytes_live t =
  ensure_shadows t;
  t.v_bump - heap_start - t.v_free_bytes

(** Gross SCM footprint (header line included) of a [size]-byte
    allocation — the quantum callers use to size hard reserves. *)
let gross_bytes sz = gross_span ((sz + unit_size - 1) / unit_size)

(* The soft watermark: the fraction of the usable bytes past which
   allocating operations are refused. *)
let soft_watermark = 0.9

(* Bytes that must stay free for the arena to count as below the soft
   watermark: usable * (1 - soft_watermark). *)
let slack_bytes t =
  let usable = usable_bytes t in
  usable - truncate (soft_watermark *. float_of_int usable)

(** Admission check for an allocating operation: [true] iff the arena
    is below the soft watermark AND at least [reserve] bytes are free
    (the hard reserve — sized by the caller to its worst-case
    allocation footprint, so every admitted operation can complete).
    Allocation-free; no SCM accessor calls. *)
let admit t ~reserve =
  let free = bytes_free t in
  free >= slack_bytes t && free >= reserve

(** 0 = below the soft watermark, 1 = past it but small allocations
    still possible, 2 = exhausted (not even a 1-unit block fits). *)
let watermark_state t =
  let free = bytes_free t in
  if free >= slack_bytes t then 0
  else if free >= gross_span 1 then 1
  else 2

(** Tail reclamation: persistently lower the bump pointer over every
    trailing free block, returning their gross bytes to the unallocated
    frontier (where any size class can be carved from them — free-list
    blocks only serve their own class).  Each step is exactly-once via
    the operation log (state {!log_reclaim}): publish (block, units),
    unlink from the size-class free list, lower the bump, retire the
    log.  A crash anywhere replays idempotently in {!recover_reclaim}.
    Returns the bytes reclaimed. *)
let reclaim t =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
  let sc = Obs.Attrib.set_component Obs.Attrib.comp_reclaim in
  let reclaimed = ref 0 in
  let again = ref true in
  while !again do
    let bump = read_bump t in
    if bump <= heap_start then again := false
    else begin
      (* Find the heap's tail block (the one ending at [bump]). *)
      let off = ref heap_start in
      let last_off = ref heap_start and last_units = ref 0 in
      let last_allocated = ref true in
      while !off < bump do
        let header = block_header t !off in
        let units = block_units header in
        if units = 0 || units > max_units then
          failwith "Palloc.reclaim: corrupt block header";
        last_off := !off;
        last_units := units;
        last_allocated := block_allocated header;
        off := !off + gross_span units
      done;
      if !last_allocated then again := false
      else begin
        let block = !last_off and units = !last_units in
        log_publish t ~state:log_reclaim
          ~dest:(Pptr.Loc.make t.region off_scratch) ~block ~units;
        unlink_free t ~block ~units;
        write_bump t block;
        log_clear t;
        if t.v_bump >= 0 then begin
          t.v_bump <- block;
          t.v_free_bytes <- t.v_free_bytes - gross_span units
        end;
        reclaimed := !reclaimed + gross_span units
      end
    end
  done;
  Obs.Attrib.restore_component sc;
  !reclaimed

(* Capacity gauges over all open arenas (the weak registry above):
   total free bytes, and the worst watermark state. *)
let () =
  Obs.Registry.gauge "palloc_bytes_free"
    ~help:"free SCM bytes across open arenas (frontier + free lists)"
    (fun () -> List.fold_left (fun acc a -> acc + bytes_free a) 0
        (live_arenas ()));
  Obs.Registry.gauge "palloc_watermark_state"
    ~help:"worst arena watermark state: 0 below, 1 past soft, 2 exhausted"
    (fun () -> List.fold_left (fun acc a -> max acc (watermark_state a)) 0
        (live_arenas ()))
