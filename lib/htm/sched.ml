(** Cooperative-scheduler shim for the mcheck model checker.

    The optimistic-concurrency protocol (per-node version cells,
    leaf-lock words, the fallback mutex, the [root]/[root_ver] swap) is
    correct only across {e interleavings} of its shared accesses, so a
    model checker needs to preempt the protocol at exactly those
    accesses.  This module is the seam: every shared access of the
    protocol goes through an instrumented operation here that, when
    the [model_check] bit of [Obs.Gate]'s mode word is on (set by
    [Scm.Config.set_model_check]), first {e yields} to a
    scheduler installed via {!install} (lib/mcheck's DPOR explorer —
    this library cannot depend on it, hence the hook record) and only
    performs the access when the scheduler resumes it.  When the gate
    is off, each operation costs one mask test over the raw [Atomic]
    call — the same pattern [Scm.Pmtrace] uses for the
    persistence instrumentation.

    {b Object identity.}  The scheduler distinguishes accesses by an
    integer object id, encoded as [id * 4 + class] so the protocol's
    existing node-identity convention (0 = root version cell, > 0 =
    leaf SCM offset, < 0 = DRAM inner id) injects without collisions:
    class 0 = version cells ({!obj_ver}), class 1 = leaf-lock words
    ({!obj_lock}), class 3 = the singleton {!obj_mutex}.

    {b Modeling boundary.}  Only the protocol's cross-thread state
    yields.  Lock-free sub-allocators that are linearizable by
    construction (the micro-log free bitmask's CAS loop, baseline
    trees' private lock words) run through the {!Opaque} pass-throughs:
    the checker treats each such operation as one atomic step.  The
    source lint ([tools/lint.ml]) forbids raw [Atomic.] tokens in
    lib/fptree and lib/baselines so every shared access makes this
    choice explicitly. *)

type hooks = {
  h_point : obj:int -> write:bool -> unit;
      (** Yield before a shared read ([write = false]) or write; the
          access runs when the scheduler resumes the fiber. *)
  h_await : obj:int -> unit;
      (** Block the fiber until another thread writes [obj] — the
          model-checked form of a spin-wait (a spinning fiber would
          otherwise livelock the cooperative scheduler). *)
  h_lock : obj:int -> unit;  (** Virtual mutex acquire (see below). *)
  h_unlock : obj:int -> unit;
  h_tid : unit -> int;
      (** Logical thread id of the running fiber; keys the per-thread
          read-set buffers while every fiber shares one real domain. *)
}

let noop_hooks =
  {
    h_point = (fun ~obj:_ ~write:_ -> ());
    h_await = (fun ~obj:_ -> ());
    h_lock = (fun ~obj:_ -> ());
    h_unlock = (fun ~obj:_ -> ());
    h_tid = (fun () -> 0);
  }

let hooks = ref noop_hooks
let install h = hooks := h
let uninstall () = hooks := noop_hooks

let[@inline] on () = Obs.Gate.any Obs.Gate.model_check

(* ---- object identities ---- *)

let[@inline] obj_ver id = id * 4
let[@inline] obj_lock off = (off * 4) + 1

(** The [Speculative_lock] fallback mutex. *)
let obj_mutex = 3

(* ---- yield points ---- *)

let[@inline] point ~obj ~write = if on () then !hooks.h_point ~obj ~write
let[@inline] await ~obj = if on () then !hooks.h_await ~obj
let[@inline] tid () = if on () then !hooks.h_tid () else 0

(* ---- instrumented atomics ----

   [atom] aliases [Atomic.t] so client records carry no [Atomic.]
   token; [make] needs no yield (an unpublished cell races with
   nothing). *)

type 'a atom = 'a Atomic.t

let make = Atomic.make

let[@inline] get ~obj (a : 'a atom) =
  point ~obj ~write:false;
  Atomic.get a

let[@inline] set ~obj (a : 'a atom) v =
  point ~obj ~write:true;
  Atomic.set a v

let[@inline] cas ~obj (a : 'a atom) old nu =
  point ~obj ~write:true;
  Atomic.compare_and_set a old nu

let[@inline] fetch_and_add ~obj (a : int atom) n =
  point ~obj ~write:true;
  Atomic.fetch_and_add a n

(* ---- virtual mutex ----

   Under the checker every fiber shares one real domain, so taking the
   real [Mutex.t] from two fibers would deadlock the process; the
   scheduler provides blocked-until-free lock semantics instead and the
   real mutex is never touched. *)

let[@inline] mutex_lock ~obj (m : Mutex.t) =
  if on () then !hooks.h_lock ~obj else Mutex.lock m

let[@inline] mutex_unlock ~obj (m : Mutex.t) =
  if on () then !hooks.h_unlock ~obj else Mutex.unlock m

(* ---- opaque pass-throughs (one atomic step in the model) ---- *)

module Opaque = struct
  let make = Atomic.make
  let get = Atomic.get
  let set = Atomic.set
  let cas = Atomic.compare_and_set
  let fetch_and_add = Atomic.fetch_and_add
  let incr = Atomic.incr
end
