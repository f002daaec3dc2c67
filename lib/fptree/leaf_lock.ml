(* Leaf locks and per-leaf version phases (Selective Concurrency,
   Section 4.4).  Both words live in the leaf's DRAM [Inner.leaf_ref];
   the region is needed only to name the leaf in pmcheck trace
   events. *)

module Nv = Htm.Node_versions
module Sched = Htm.Sched

(* The lock-transition trace events bracket the lock's critical
   section from the analyzer's point of view: acquire is announced
   after a successful CAS, release before the flag drops — so another
   domain's acquire can never appear before our release in the trace
   order. *)
let try_lock r (l : Inner.leaf_ref) =
  (* Test-and-test-and-set: a contended attempt fails on the plain
     load without dirtying the lock line.  This also keeps the model
     checker's wake-ups tied to real lock-word transitions — a failed
     CAS would count as a write and let contending fibers wake each
     other forever. *)
  let obj = Sched.obj_lock l.Inner.off in
  let ok =
    (not (Sched.get ~obj l.Inner.lock))
    && Sched.cas ~obj l.Inner.lock false true
  in
  if ok then
    Obs.Flight.lock_acquire ~region:(Scm.Region.id r) ~leaf:l.Inner.off;
  ok

let unlock r (l : Inner.leaf_ref) =
  Obs.Flight.lock_release ~region:(Scm.Region.id r) ~leaf:l.Inner.off;
  Sched.set ~obj:(Sched.obj_lock l.Inner.off) l.Inner.lock false

let is_locked (l : Inner.leaf_ref) =
  Sched.get ~obj:(Sched.obj_lock l.Inner.off) l.Inner.lock

(* A write phase on the leaf's version word is the precise analogue of
   "this leaf's cache lines are in a TSX writer's write set":
   concurrent optimistic readers that observed the word abort, later
   ones abort on the busy count.  The phases are count-encoded, so
   nesting (insert-into-nonfull inside a split bracket) is safe.

   The trace events sit inside the version phase — emitted after
   [begin_write] and before [end_write] — so in the recorded history
   every store to the leaf falls strictly between them and the
   analyzer's unversioned-leaf-store check is exact. *)
let ver_begin r (l : Inner.leaf_ref) =
  Nv.begin_write_id l.Inner.ver l.Inner.off;
  Obs.Flight.ver_begin ~region:(Scm.Region.id r) ~leaf:l.Inner.off

let ver_end r (l : Inner.leaf_ref) =
  Obs.Flight.ver_end ~region:(Scm.Region.id r) ~leaf:l.Inner.off;
  Nv.end_write_id l.Inner.ver l.Inner.off
