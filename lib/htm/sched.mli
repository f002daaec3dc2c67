(** Cooperative-scheduler shim: the seam between the
    optimistic-concurrency protocol and the mcheck model checker.

    Every shared access of the protocol (version cells, leaf-lock
    words, fallback mutex, root swap) routes through an operation here.
    With the [model_check] bit of [Obs.Gate]'s mode word off
    (production) each costs one mask test over the raw [Atomic] call; with it on, the
    operation yields to the installed scheduler before performing the
    access, so a DPOR explorer controls the interleaving.  See the
    implementation header for the modeling boundary ({!Opaque}). *)

type hooks = {
  h_point : obj:int -> write:bool -> unit;
      (** Yield before a shared read/write on object [obj]. *)
  h_await : obj:int -> unit;
      (** Block until another thread writes [obj] (spin-wait shim). *)
  h_lock : obj:int -> unit;  (** Virtual mutex acquire. *)
  h_unlock : obj:int -> unit;
  h_tid : unit -> int;  (** Logical id of the running fiber. *)
}

val install : hooks -> unit
(** Install the scheduler's hooks (lib/mcheck).  The hooks only fire
    while the [model_check] switch is on. *)

val uninstall : unit -> unit

val on : unit -> bool
(** The [model_check] bit of [Obs.Gate]'s mode word (written by
    [Scm.Config.set_model_check]) — the gate every instrumented
    operation checks. *)

(** {1 Object identities}

    [id * 4 + class], injective over the protocol's node-identity
    convention (0 = root version cell, > 0 = leaf SCM offset, < 0 =
    DRAM inner id). *)

val obj_ver : int -> int
(** Version cell of the node with the given identity. *)

val obj_lock : int -> int
(** Leaf-lock word of the leaf at the given SCM offset. *)

val obj_mutex : int
(** The [Speculative_lock] fallback mutex. *)

(** {1 Yield points} *)

val point : obj:int -> write:bool -> unit
(** Yield before a shared access (no-op when the gate is off). *)

val await : obj:int -> unit
(** Block until another thread writes [obj]; no-op when off — callers
    keep their real spin/relax structure around it. *)

val tid : unit -> int
(** Logical thread id under the checker; 0 otherwise.  Keys per-thread
    state (read-set buffers) while fibers share one real domain. *)

(** {1 Instrumented atomics}

    [atom] aliases [Atomic.t] so client records carry no [Atomic.]
    token (the lint forbids it in lib/fptree and lib/baselines). *)

type 'a atom = 'a Atomic.t

val make : 'a -> 'a atom
val get : obj:int -> 'a atom -> 'a
val set : obj:int -> 'a atom -> 'a -> unit
val cas : obj:int -> 'a atom -> 'a -> 'a -> bool
val fetch_and_add : obj:int -> int atom -> int -> int

(** {1 Virtual mutex}

    Under the checker all fibers share one real domain: the real mutex
    is never touched and the scheduler provides blocked-until-free
    semantics instead. *)

val mutex_lock : obj:int -> Mutex.t -> unit
val mutex_unlock : obj:int -> Mutex.t -> unit

(** {1 Opaque pass-throughs}

    Raw atomics the model treats as a single atomic step: for
    linearizable-by-construction helpers (CAS-loop sub-allocators,
    baseline trees' private locks) whose internal interleavings are not
    what mcheck checks. *)

module Opaque : sig
  val make : 'a -> 'a atom
  val get : 'a atom -> 'a
  val set : 'a atom -> 'a -> unit
  val cas : 'a atom -> 'a -> 'a -> bool
  val fetch_and_add : int atom -> int -> int
  val incr : int atom -> unit
end
