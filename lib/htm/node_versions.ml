(** Per-node version words: the read-set half of the TSX emulation.

    Hardware TSX detects conflicts at cache-line granularity — a reader
    aborts only when a writer touches a line it actually read.  The
    repository's original emulation collapsed every conflict onto one
    tree-global version word, so any writer invalidated every
    concurrent reader.  This module restores the hardware granularity:

    - every tree node (DRAM inner node or SCM leaf) embeds a version
      {!cell} in its own DRAM record, so observing a node's version
      touches memory the traversal is already reading — the same
      co-location real TSX gets for free by using the data's cache
      lines as the read set;
    - an optimistic reader {!observe}s the version of each node it
      descends through, recording (cell, version) pairs into a
      per-domain preallocated {!readset} — the emulated read set;
    - a writer brackets its mutation of a node with
      {!begin_write}/{!end_write} on that node's cell only;
    - the reader {!validate}s its read set at commit: any recorded cell
      whose version moved is a precise conflict — the emulation of a
      TSX read-set invalidation confined to the lines the transaction
      read.

    {b Version encoding.}  The low 8 bits of a version word count the
    writers currently inside a phase on that cell, the next 8 count
    {!begin_hold} holds, and the upper bits are a sequence number
    bumped by every [begin_write] {e and} [end_write].  [observe]
    waits, for a bounded time, while either count is non-zero (a
    writer is inside — the line is locked in the coherence sense — or
    a hold asks newcomers to queue) and aborts if the word is still
    busy; [validate] fails when anything but the hold count changed.
    Counting instead of odd/even parity lets one writer nest phases on
    the same cell (leaf split: the leaf's phase stays open across the
    inner-node update so no reader can observe the half-moved state as
    stable) and keeps overlapping phases by distinct writers
    well-formed.

    {b Waiting on a busy word.}  A busy word means a writer is about to
    change the node, not that anything the reader already recorded
    moved.  Aborting at once only to re-descend into the same busy
    node wastes the retry budget (and counts a precise conflict per
    retry), so {!observe_id} first spins, relaxing the CPU, until the
    word is quiet or {!busy_wait_ns} has passed; only a word still busy
    then aborts the section.  The reader records the word it finally
    saw quiet, so validation is as strict as before: had the writer
    touched a node recorded earlier on the path, that entry fails.
    Under the model checker ({!Sched.on}) the wait is skipped and the
    observation aborts at once: a spinning fiber would stall the
    cooperative scheduler, and an observation after a wait is the
    same as one made later in the schedule, which the checker already
    explores.

    {b Holds.}  A hold ({!begin_hold}/{!end_hold}) marks a node
    busy to newcomers without invalidating the readers that already
    recorded it: the hold count is outside what {!validate} compares.
    A leaf split holds the split leaf's parent from before the split
    starts until the parent references the new sibling, so readers
    queue above the leaf whose routing is about to change instead of
    descending into it and failing validation once the parent moves.
    A hold never changes the node, so it cannot make a stale read
    validate; it only delays or aborts readers.

    {b False positives.}  A cell is private to its node, so the only
    false positives left are writer phases that did not actually
    change what this reader read (e.g. an insert into a leaf slot the
    reader's key does not hash to) — the same line-granular
    imprecision real TSX has.

    {b Layout.}  A cell is a boxed [int Atomic.t] allocated together
    with its node record, so it shares the node's cache neighbourhood:
    a version read after the node's key search is effectively free,
    and a writer's bump invalidates lines that the node's mutation was
    about to invalidate anyway. *)

type cell = int Atomic.t

let fresh () = Atomic.make 0

exception Conflict

(* Writer count in bits 0-7, hold count in bits 8-15, sequence number
   from bit 16. *)
let hold_one = 1 lsl 8
let seq_one = 1 lsl 16
let hold_mask = 0xFF00
let writer_mask = 0xFF
let count_mask = 0xFFFF

(** Open a write phase on [c]: increments the writer count and the
    sequence number.  Phases on the same cell may nest (same writer) or
    overlap; the cell reads busy until every phase closed, and any
    overlapping reader's validation fails. *)
let[@inline] begin_write (c : cell) =
  ignore (Atomic.fetch_and_add c (seq_one + 1))

let[@inline] end_write (c : cell) =
  ignore (Atomic.fetch_and_add c (seq_one - 1))

(** Hold [c]: it reads busy to {!observe_id} until the matching
    {!end_hold}, but readers that recorded it earlier still validate.
    Holds nest and overlap like phases; they are not schedule points
    (no caller takes one under the model checker). *)
let begin_hold (c : cell) = ignore (Atomic.fetch_and_add c hold_one)

let end_hold (c : cell) = ignore (Atomic.fetch_and_add c (-hold_one))

(** {!begin_write}/{!end_write} under a node identity: the bump yields
    to the model checker ({!Sched.point}) before touching the cell, so
    writer phases are schedule points.  All tree writers use these; the
    anonymous forms stay for callers outside the checked protocol. *)
let[@inline] begin_write_id (c : cell) id =
  Sched.point ~obj:(Sched.obj_ver id) ~write:true;
  ignore (Atomic.fetch_and_add c (seq_one + 1))

let[@inline] end_write_id (c : cell) id =
  Sched.point ~obj:(Sched.obj_ver id) ~write:true;
  ignore (Atomic.fetch_and_add c (seq_one - 1))

(* ---- per-domain read sets ---- *)

type readset = {
  mutable rs_cells : cell array;
  mutable rs_vers : int array;
  mutable rs_ids : int array;
      (** caller-chosen node identities, parallel to [rs_cells]; only
          read when attributing a failed section (flight recorder) *)
  mutable rs_n : int;
  mutable rs_busy_id : int;
  mutable rs_busy : bool;
      (** true when the section's last abort came from {!observe}
          finding a busy cell (identity in [rs_busy_id]); false when
          it came from a failed {!validate} (identity recovered by
          scanning, see {!failure}) *)
  mutable rs_fallback : bool;
      (** fallback mode ({!fallback}): set and cleared by the driver,
          read only on {!observe_id}'s busy branch *)
  mutable rs_park : int;
      (** the busy object a section named ({!name_busy}); [no_obj]
          until then, read only by a failed fallback attempt *)
}

(* [rs_park] when no object is named. *)
let no_obj = min_int

(* Shared inert filler for unused capacity; never observed. *)
let dummy_cell : cell = Atomic.make 0

(* One buffer per domain, reused by every optimistic section: the find
   path must not allocate, and tree heights are tiny (root→leaf plus
   the leaf itself), so 16 entries never grow in practice. *)
let fresh_readset () =
  {
    rs_cells = Array.make 16 dummy_cell;
    rs_vers = Array.make 16 0;
    rs_ids = Array.make 16 0;
    rs_n = 0;
    rs_busy_id = 0;
    rs_busy = false;
    rs_fallback = false;
    rs_park = no_obj;
  }

let rs_key = Domain.DLS.new_key fresh_readset

(* Under the model checker every fiber shares one real domain, so the
   DLS buffer would be shared by all logical threads; buffers are keyed
   by the scheduler's logical thread id instead.  Single real domain,
   so the table needs no synchronization. *)
let mc_sets : (int, readset) Hashtbl.t = Hashtbl.create 8

let mc_readset () =
  let tid = Sched.tid () in
  match Hashtbl.find_opt mc_sets tid with
  | Some rs -> rs
  | None ->
    let rs = fresh_readset () in
    Hashtbl.add mc_sets tid rs;
    rs

(** The calling domain's read-set buffer, emptied.  Allocates only on
    the domain's first call (DLS initialization).  Under the model
    checker ({!Sched.on}) the buffer is per logical thread instead. *)
let scratch () =
  let rs = if Sched.on () then mc_readset () else Domain.DLS.get rs_key in
  rs.rs_n <- 0;
  rs.rs_busy <- false;
  rs

(** The calling domain's read-set buffer {e as left by the previous
    section} — not emptied.  Retry handlers use this to attribute the
    abort that just happened ({!failure}) before the next attempt's
    {!scratch} wipes the evidence.  Same one-section-per-domain
    constraint as {!scratch}. *)
let current () = if Sched.on () then mc_readset () else Domain.DLS.get rs_key

(** {!scratch} for an attempt under the fallback mutex: the buffer in
    fallback mode, with no object named.  The mode outlives [scratch]
    (which never touches it) until {!end_fallback}. *)
let fallback () =
  let rs = scratch () in
  rs.rs_fallback <- true;
  rs.rs_park <- no_obj;
  rs

let end_fallback rs = rs.rs_fallback <- false

let name_busy rs obj = rs.rs_park <- obj

(** Park a failed fallback attempt under the model checker: until
    another thread writes the version word {!observe_id} found a
    writer inside, else the object given to {!name_busy}.  Nothing to
    wait for after a failed validation. *)
let await_busy rs =
  if rs.rs_busy then Sched.await ~obj:(Sched.obj_ver rs.rs_busy_id)
  else if rs.rs_park <> no_obj then Sched.await ~obj:rs.rs_park

let grow rs =
  let n = Array.length rs.rs_cells in
  let s = Array.make (2 * n) dummy_cell
  and v = Array.make (2 * n) 0
  and ids = Array.make (2 * n) 0 in
  Array.blit rs.rs_cells 0 s 0 n;
  Array.blit rs.rs_vers 0 v 0 n;
  Array.blit rs.rs_ids 0 ids 0 n;
  rs.rs_cells <- s;
  rs.rs_vers <- v;
  rs.rs_ids <- ids

let[@inline] record rs c v id =
  if rs.rs_n = Array.length rs.rs_cells then grow rs;
  Array.unsafe_set rs.rs_cells rs.rs_n c;
  Array.unsafe_set rs.rs_vers rs.rs_n v;
  Array.unsafe_set rs.rs_ids rs.rs_n id;
  rs.rs_n <- rs.rs_n + 1

(** How long {!observe_id} waits for a busy word before aborting.
    Long enough to outlast a leaf split whose writer was descheduled
    part-way (with more domains than CPUs that is a scheduler time
    slice, not the microseconds the split itself takes); short enough
    that a stuck section still reaches its fallback. *)
let busy_wait_ns = 1_000_000

let rec spin_until_quiet (c : cell) deadline i =
  let v = Atomic.get c in
  if v land count_mask = 0 then v
  else if i land 63 = 0 && Obs.Clock.now_ns () > deadline then v
  else begin
    Domain.cpu_relax ();
    spin_until_quiet c deadline (i + 1)
  end

(* The busy branch of {!observe_id}, out of line so the quiet path
   stays a load, a test and the record.  In fallback mode nothing is
   waited for: a word that is only held is recorded without its hold
   bits (the holder may be queued on the fallback mutex), and a word
   with a writer inside fails at once. *)
let observe_busy rs (c : cell) id v =
  let v =
    if rs.rs_fallback then
      if v land writer_mask = 0 then v land lnot hold_mask else v
    else if Sched.on () then v
    else spin_until_quiet c (Obs.Clock.now_ns () + busy_wait_ns) 1
  in
  if v land count_mask <> 0 then begin
    rs.rs_busy <- true;
    rs.rs_busy_id <- id;
    raise Conflict
  end;
  record rs c v id

(** Add [c] to the read set under node identity [id] (the tree's
    convention: 0 = root pointer cell, > 0 = leaf SCM offset, < 0 =
    DRAM inner-node id).  The identity costs one extra array store on
    the hot path and is only read back on aborts.  A busy word is
    waited on first (see the header).
    @raise Conflict if a writer is inside a phase on [c], or [c] is
    held, after {!busy_wait_ns}. *)
let[@inline] observe_id rs (c : cell) id =
  Sched.point ~obj:(Sched.obj_ver id) ~write:false;
  let v = Atomic.get c in
  if v land count_mask <> 0 then observe_busy rs c id v else record rs c v id

(** {!observe_id} with an anonymous identity (callers that do not
    participate in abort attribution). *)
let[@inline] observe rs (c : cell) = observe_id rs c 0

(** Attribute the abort that ended the section recorded in [rs]:
    [(node identity, descent depth)] of the failing cell.  For a busy
    cell the observe path stored both directly; for a validation
    failure the first moved cell is found by rescanning — sequence
    numbers only ever grow, so the failing entry is still detectable.
    Returns identity -1 when nothing is attributable (no moved cell:
    not called after an actual failure). *)
let failure rs =
  if rs.rs_busy then (rs.rs_busy_id, rs.rs_n)
  else begin
    let rec scan i =
      if i >= rs.rs_n then (-1, rs.rs_n)
      else if
        Atomic.get (Array.unsafe_get rs.rs_cells i) land lnot hold_mask
        <> Array.unsafe_get rs.rs_vers i
      then (Array.unsafe_get rs.rs_ids i, i)
      else scan (i + 1)
    in
    scan 0
  end

(** [true] iff no recorded cell's version moved: everything this
    transaction read is still current, so its result is a consistent
    snapshot.  A hold taken since the observation is not a move (a
    recorded word has a zero hold count).  Allocation-free. *)
let rec validate_from rs i =
  i >= rs.rs_n
  || (Sched.point ~obj:(Sched.obj_ver (Array.unsafe_get rs.rs_ids i))
        ~write:false;
      Atomic.get (Array.unsafe_get rs.rs_cells i) land lnot hold_mask
      = Array.unsafe_get rs.rs_vers i
      && validate_from rs (i + 1))

let validate rs = validate_from rs 0

(** The cell most recently recorded in [rs] and its identity, if
    any: after a section that descended to a leaf without observing
    the leaf itself, the leaf's parent (or the root pointer cell).
    Allocates; for the rare paths (leaf splits) only. *)
let last_recorded rs =
  if rs.rs_n = 0 then None
  else
    Some
      ( Array.unsafe_get rs.rs_cells (rs.rs_n - 1),
        Array.unsafe_get rs.rs_ids (rs.rs_n - 1) )
