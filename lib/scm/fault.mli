(** The fault injector: the crash sweeps' one source of faults.

    A closed set of sites, each a self-disarming countdown.
    [arm site n] makes the [n]-th event of [site] from now (1-based)
    fire.  The site then disarms itself, so at most one fault fires per
    arming.  Process-wide and unsynchronized, like the rest of the
    simulator's configuration: arm it from one domain.

    | site            | event counted                        | what firing does |
    | [Persist_crash] | a persist not dropped by [Persist_skip] | raises {!Crash_injected}; nothing reaches the persistence domain |
    | [Persist_skip]  | every [Region.persist]               | the persist is dropped: no flush, no event, no crash point |
    | [Torn_store]    | a tearable store: multi-byte and not p-atomic, on the instrumented path | a seeded byte prefix becomes durable, the rest is lost, {!Crash_injected} is raised |
    | [Alloc_crash]   | every [Palloc.alloc]                 | raises {!Crash_injected} before any persistent mutation |
    | [Alloc_full]    | a [Palloc.alloc] that [Alloc_crash] let through | raises [Palloc.Out_of_scm] before any persistent mutation |

    With nothing armed, each hook costs one load and one test of the
    word of armed bits. *)

type site =
  | Persist_crash
  | Persist_skip
  | Torn_store
  | Alloc_crash
  | Alloc_full

(** Raised at a [Persist_crash], [Torn_store] or [Alloc_crash] site
    when it fires. *)
exception Crash_injected

(** [arm ?seed site n]: the [n]-th event of [site] from now fires.
    [seed] (default 0) is handed back by {!seed}; [Torn_store] draws
    its tear point from it.  Re-arming restarts the countdown.
    @raise Invalid_argument if [n < 1]. *)
val arm : ?seed:int -> site -> int -> unit

(** Count one event of [site].  [true] when this is the armed event,
    which disarms the site.  The one test the simulator's hooks call. *)
val fires : site -> bool

(** [true] while [site] is armed.  A site that fired is no longer
    armed. *)
val armed : site -> bool

(** The seed of [site]'s last {!arm}. *)
val seed : site -> int

(** Disarm every site. *)
val reset : unit -> unit

(** [inject ?seed site n f] arms [site] at [n], runs [f], disarms
    [site], and tells whether it fired.  A {!Crash_injected} from the
    fired site ends [f] and is absorbed; any other exception disarms
    [site] and propagates. *)
val inject : ?seed:int -> site -> int -> (unit -> unit) -> bool

(** [sweep ?stride site run] calls [run k (inject site k)] for
    k = 1, 1 + stride, ...  [run] does its uncounted setup, injects
    once, and judges the outcome: after a fault (the injection
    returned [true]) or after a clean completion.  The sweep stops
    after the first run in which [site] was not reached and returns
    the number of runs in which it fired.  [stride] (default 1)
    samples every [stride]-th event.
    @raise Invalid_argument if [stride < 1] or a run does not inject. *)
val sweep :
  ?stride:int -> site -> (int -> ((unit -> unit) -> bool) -> unit) -> int
