(** Micro-logs (Section 5).

    A micro-log is a cache-line-aligned pair of persistent pointers in
    SCM that makes one structural operation (leaf split, leaf delete,
    group get, group free) recoverable.  The first pointer doubles as
    the armed/idle flag: a null first pointer means the log is idle, so
    it is always set first and reset last, each with its own persist.

    The concurrent FPTree owns an array of micro-logs handed out by a
    lock-free slot pool (the paper's "transient lock-free queues"). *)

type t = { region : Scm.Region.t; off : int }
(** A single micro-log: two persistent-pointer fields at [off] and
    [off + 16], padded to a 64-byte line. *)

let slot_bytes = 64

let make region off =
  if off mod Scm.Cacheline.line_size <> 0 then
    invalid_arg "Microlog.make: log must be cache-line aligned";
  { region; off }

let fst_loc t = Pmem.Pptr.Loc.make t.region t.off
let snd_loc t = Pmem.Pptr.Loc.make t.region (t.off + Pmem.Pptr.size_bytes)

let read_fst t = Pmem.Pptr.read t.region t.off
let read_snd t = Pmem.Pptr.read t.region (t.off + Pmem.Pptr.size_bytes)

(* Fields are published crash-atomically: a torn pointer must never be
   dereferenced by recovery. *)
let set_fst t p =
  let c = Scope.enter Obs.Attrib.comp_microlog in
  Pmem.Pptr.write_committed t.region t.off p;
  Scope.leave c;
  Obs.Flight.log_arm ~region:(Scm.Region.id t.region) ~log:t.off

let set_snd t p =
  let c = Scope.enter Obs.Attrib.comp_microlog in
  Pmem.Pptr.write_committed t.region (t.off + Pmem.Pptr.size_bytes) p;
  Scope.leave c

let is_idle t = Pmem.Pptr.is_null (read_fst t)

(* Null one log word, skipping the store + persist when the word is
   already null.  Safe because log words are only ever written through
   committed/persisted stores (set_fst/set_snd, the allocator's
   published handover, reset itself), so a volatile zero is also a
   durable zero.  This saves 2 persists per retirement whenever the
   second field was never armed (leaf deletes at the list head, group
   gets) — a redundant-flush site found by the pmcheck analyzer. *)
let reset_word t off =
  if Scm.Region.read_word t.region off <> 0 then begin
    let c = Scope.enter Obs.Attrib.comp_microlog in
    Scm.Region.write_word_atomic t.region off 0;
    Scope.persist_in_scope t.region off 8;
    Scope.leave c
  end

(* Null one log word without persisting; returns whether it was dirty. *)
let zap_word t off =
  Scm.Region.read_word t.region off <> 0
  && begin
       let c = Scope.enter Obs.Attrib.comp_microlog in
       Scm.Region.write_word_atomic t.region off 0;
       Scope.leave c;
       true
     end

(** Retire the log: the first field is the armed flag, so it is
    retracted first; a crash in between leaves a disarmed log with a
    stale second field, which recovery ignores.  Once the disarm word
    is durable the remaining three words are dead, so their nulling
    has no ordering constraint and shares a single flush of the log
    line (a batchable-flush site found by the pmcheck analyzer: the
    word-by-word version cost 3 persists here). *)
let reset t =
  reset_word t t.off;                              (* fst id: disarm *)
  let region = Scm.Region.id t.region in
  Obs.Flight.publish ~region ~off:t.off ~len:8
    ~site:Obs.Event.publish_log_reset;
  Obs.Flight.log_reset ~region ~log:t.off;
  let d1 = zap_word t (t.off + 8) in               (* fst off *)
  let d2 = zap_word t (t.off + 16) in              (* snd id *)
  let d3 = zap_word t (t.off + 24) in              (* snd off *)
  if d1 || d2 || d3 then
    Scope.persist ~comp:Obs.Attrib.comp_microlog t.region (t.off + 8) 24

let format t = reset t

(* ---- lock-free pool of log slots ---- *)

module Pool = struct
  type log = t

  (* The free bitmask goes through [Htm.Sched.Opaque]: a CAS-loop
     allocator is linearizable by construction, so the model checker
     treats each acquire/release as one atomic step (see the Sched
     header's modeling boundary). *)
  type t = {
    logs : log array;
    free : int Htm.Sched.atom; (* bitmask: bit i set <=> slot i free *)
  }

  let create logs =
    let n = Array.length logs in
    if n < 1 || n > 62 then invalid_arg "Microlog.Pool.create: 1..62 slots";
    { logs; free = Htm.Sched.Opaque.make ((1 lsl n) - 1) }

  let rec acquire t =
    let m = Htm.Sched.Opaque.get t.free in
    if m = 0 then begin
      (* All slots in flight: extremely rare (as many concurrent
         structural ops as slots); spin until one retires. *)
      Domain.cpu_relax ();
      acquire t
    end
    else
      let bit = m land -m in
      if Htm.Sched.Opaque.cas t.free m (m lxor bit) then begin
        let rec log2 i b = if b = 1 then i else log2 (i + 1) (b lsr 1) in
        t.logs.(log2 0 bit)
      end
      else acquire t

  let release t log =
    let idx =
      let rec find i =
        if i >= Array.length t.logs then
          invalid_arg "Microlog.Pool.release: unknown log"
        else if t.logs.(i) == log then i
        else find (i + 1)
      in
      find 0
    in
    let rec cas () =
      let m = Htm.Sched.Opaque.get t.free in
      if not (Htm.Sched.Opaque.cas t.free m (m lor (1 lsl idx))) then cas ()
    in
    cas ()

  let iter f t = Array.iter f t.logs
end
