(** Software emulation of HTM lock elision (Intel TSX speculative
    spin mutex), used by Selective Concurrency (Section 4.4).

    Hardware TSX runs a critical section as an optimistic transaction:
    the lines it reads form its read set, a conflicting write aborts
    it, and after a retry threshold the elided lock is taken for real.
    The OCaml runtime has no HTM, so the emulation is split in two:

    - {!Node_versions} is the read set: every tree node embeds a
      version cell, optimistic readers record the cells they traverse
      and validate them at commit, and writers bump only the cells of
      the nodes they modify (cache-line-granular conflict detection);
    - this module is the elided lock: the {!Section} driver runs a
      section's one body optimistically against a fresh read set,
      retries it with bounded backoff, and after [retry_threshold]
      aborts runs the same body under the real fallback mutex —
      releasing the mutex whenever that run finds a leaf lock or
      version word busy, as in the paper's Algorithm 1, so a thread
      holding a leaf lock can still enter its structure-updating
      writer section (no deadlock).  Structural writers serialize on
      the same mutex ({!with_write}).

    This preserves the property the FPTree design depends on: read-only
    traversals of the DRAM part run lock-free and scale, while
    persistence primitives (flushes) are kept outside the speculative
    region because on real hardware they would abort the transaction.

    {b Telemetry.}  Abort accounting is domain-sharded
    ({!Obs.Counter}) and broken down by reason, the shape of the
    paper's Appendix B abort analysis:

    - {e precise conflict}: a node in the read set was busy or moved —
      a writer touched a node the transaction actually read;
    - {e explicit}: the body found a lock it needs held ({!Abort}), the
      analogue of an XABORT;
    - {e fallback}: entries into the real mutex after the retry budget.

    Each lock keeps its own shards ([stats] / [shard_stats]); the same
    events also feed process-wide [htm_*_total] registry counters so a
    metrics dump carries per-domain abort behaviour. *)

(* Process-wide registry counters (all locks aggregated). *)
let g_aborts =
  Obs.Registry.counter "htm_aborts_total"
    ~help:"speculative transaction aborts, all reasons"

let g_precise_conflicts =
  Obs.Registry.counter "htm_precise_conflict_aborts_total"
    ~help:"aborts from per-node read-set invalidation (precise)"

let g_explicit =
  Obs.Registry.counter "htm_explicit_aborts_total"
    ~help:"self-inflicted aborts (lock held / explicit XABORT)"

let g_fallbacks =
  Obs.Registry.counter "htm_fallbacks_total"
    ~help:"entries into the fallback mutex after the retry budget"

let g_backoff_waits =
  Obs.Registry.counter "htm_backoff_waits_total"
    ~help:"bounded-exponential backoff waits between speculative retries"

(* Per-domain backoff-jitter state: [jitter_shards] slots of
   [jitter_stride] boxed atomics so concurrently backing-off domains
   advance their PRNG state on distinct cache lines. *)
let jitter_shards = 64
let jitter_stride = 8

(* Ceiling of the exponential backoff between speculative retries
   (relax-loop iterations per wait). *)
let backoff_ceiling = 1024

type t = {
  fallback : Mutex.t;
  retry_threshold : int;
  jitter : int Atomic.t array;
  (* per-lock sharded statistics (exact under domains) *)
  aborts : Obs.Counter.t;
  precise_conflicts : Obs.Counter.t;
  explicit_aborts : Obs.Counter.t;
  fallbacks : Obs.Counter.t;
  backoff_waits : Obs.Counter.t;
}

let create ?(retry_threshold = 8) () =
  {
    fallback = Mutex.create ();
    retry_threshold;
    jitter = Array.init (jitter_shards * jitter_stride) (fun _ -> Atomic.make 0);
    aborts = Obs.Counter.make ();
    precise_conflicts = Obs.Counter.make ();
    explicit_aborts = Obs.Counter.make ();
    fallbacks = Obs.Counter.make ();
    backoff_waits = Obs.Counter.make ();
  }

(* Flight-recorder wiring: every abort and fallback of every caller
   passes through the driver below, so this is the single place that
   emits them.  A precise conflict is attributed to the failing node's
   identity and descent depth, read back from the domain's read set
   ([Node_versions.current]/[failure]) before the next attempt's
   [scratch] wipes the evidence. *)

let[@inline] count_precise_conflict t =
  Obs.Counter.incr t.precise_conflicts;
  Obs.Counter.incr g_precise_conflicts;
  Obs.Counter.incr t.aborts;
  Obs.Counter.incr g_aborts;
  if Obs.Gate.enabled () then begin
    let node, depth = Node_versions.failure (Node_versions.current ()) in
    Obs.Flight.htm_abort ~reason:Obs.Event.abort_precise ~node ~depth
  end

let[@inline] count_explicit t =
  Obs.Counter.incr t.explicit_aborts;
  Obs.Counter.incr g_explicit;
  Obs.Counter.incr t.aborts;
  Obs.Counter.incr g_aborts;
  if Obs.Gate.enabled () then
    Obs.Flight.htm_abort ~reason:Obs.Event.abort_explicit ~node:(-1)
      ~depth:(-1)

let cpu_relax () = Domain.cpu_relax ()

(** Bounded exponential backoff before retry [attempt] (0-based: the
    first retry waits ~2 relax iterations, doubling up to
    {!backoff_ceiling}).  The jitter term comes from a per-domain
    Weyl-sequence PRNG cell that advances on {e every} wait, so each lock
    acquisition sees a fresh jitter sequence: domains that abort on
    the same conflict twice do not replay identical wait schedules and
    re-collide in lockstep (the old jitter was a pure function of
    (domain, attempt), i.e. seeded once per domain lifetime).
    Allocation-free.  Counted in the per-lock stats.

    With [Scm.Config.current.backoff_seed = Some s] the jitter is
    instead a pure function of (s, attempt, domain slot) — no Weyl
    state is read or advanced — so equal-seed runs report identical
    [backoff_waits] and identical flight [backoff_wait] payloads (the
    determinism the chaos and mcheck harnesses pin).  Under the model
    checker the wait itself is skipped: simulated time is schedule
    order, and a spinning fiber would stall the cooperative scheduler
    without changing any reachable interleaving. *)
let backoff t attempt =
  Obs.Counter.incr t.backoff_waits;
  Obs.Counter.incr g_backoff_waits;
  if not (Sched.on ()) then begin
    let spins = min backoff_ceiling (1 lsl min (attempt + 1) 20) in
    let d = (Domain.self () :> int) land (jitter_shards - 1) in
    let s =
      match Scm.Config.current.backoff_seed with
      | Some seed ->
        seed + ((attempt + 1) * 0x9E3779B97F4A7C1) + (d * 0x3F58476D1CE4E5B9)
      | None ->
        let cell = Array.unsafe_get t.jitter (d * jitter_stride) in
        (* Weyl step + splitmix-style finalizer; the state survives
           across acquisitions, which is what re-seeds the sequence. *)
        let s = Atomic.get cell + 0x9E3779B97F4A7C1 in
        Atomic.set cell s;
        s
    in
    let h = (s lxor (s lsr 29)) * 0x3F58476D1CE4E5B9 in
    let h = h lxor (h lsr 32) in
    let jitter = (h land max_int) mod (spins + 1) in
    if Obs.Gate.enabled () then
      Obs.Flight.backoff_wait ~attempt ~spins:(spins + jitter);
    for _ = 1 to spins + jitter do
      cpu_relax ()
    done
  end

(* ---- the fallback mutex ---- *)

let lock_fallback t =
  Obs.Counter.incr t.fallbacks;
  Obs.Counter.incr g_fallbacks;
  if Obs.Gate.enabled () then Obs.Flight.fallback_lock ();
  Sched.mutex_lock ~obj:Sched.obj_mutex t.fallback

let unlock_fallback t = Sched.mutex_unlock ~obj:Sched.obj_mutex t.fallback

exception Abort

let abort rs ~obj =
  Node_versions.name_busy rs obj;
  raise Abort

(* ---- the section driver ---- *)

module type SECTION = sig
  type ctx
  type arg
  type aux
  type res

  val lock : ctx -> t
  val body : ctx -> arg -> aux -> Node_versions.readset -> res
  val committed : int -> unit
end

(* A functor rather than a closure-taking function: the build has no
   flambda, so a per-call closure over the caller's arguments would be
   a minor-heap allocation on every find.  The step functions are
   reached through the functor argument — an indirect call, no
   allocation — and the per-call arguments travel as plain
   parameters. *)
module Section (S : SECTION) = struct
  (* Algorithm 1 under the global lock: the body runs in fallback mode
     ([Node_versions.fallback]), and an attempt that fails releases
     the mutex, relaxes and relocks.  Structural writers are excluded,
     so only a leaf writer can fail it.  Under the model checker the
     attempt first parks on the busy object it named: a spinning fiber
     would make the schedule space unbounded. *)
  let rec locked l ctx a b =
    let rs = Node_versions.fallback () in
    match S.body ctx a b rs with
    | r ->
      leave l rs;
      r
    | exception (Node_versions.Conflict | Abort) -> relock l ctx a b rs
    | exception e ->
      if Node_versions.validate rs then begin
        leave l rs;
        raise e
      end
      else relock l ctx a b rs

  and relock l ctx a b rs =
    unlock_fallback l;
    Node_versions.await_busy rs;
    cpu_relax ();
    Sched.mutex_lock ~obj:Sched.obj_mutex l.fallback;
    locked l ctx a b

  and leave l rs =
    Node_versions.end_fallback rs;
    unlock_fallback l;
    S.committed l.retry_threshold

  let rec attempt l ctx a b n =
    if n >= l.retry_threshold then begin
      lock_fallback l;
      locked l ctx a b
    end
    else
      let rs = Node_versions.scratch () in
      match S.body ctx a b rs with
      | r ->
        S.committed n;
        r
      | exception Node_versions.Conflict -> conflict l ctx a b n
      | exception Abort ->
        if Node_versions.validate rs then begin
          count_explicit l;
          backoff l n;
          attempt l ctx a b (n + 1)
        end
        else conflict l ctx a b n
      | exception e ->
        (* Exceptions during speculation may be artifacts of racing
           with a writer; only trust them if the read set validates. *)
        if Node_versions.validate rs then begin
          S.committed n;
          raise e
        end
        else conflict l ctx a b n

  and conflict l ctx a b n =
    count_precise_conflict l;
    backoff l n;
    attempt l ctx a b (n + 1)

  let run ctx a b = attempt (S.lock ctx) ctx a b 0
end

(** Run [f] as a writing transaction.  Writers to the transient
    structure always serialize on the mutex; concurrent optimistic
    readers are invalidated by the per-node version bumps [f] makes.
    (On real TSX small writers could also commit speculatively;
    serializing them is the fallback behaviour and only affects
    scalability of structure modifications, i.e. splits.) *)
let with_write t f =
  Sched.mutex_lock ~obj:Sched.obj_mutex t.fallback;
  Fun.protect ~finally:(fun () -> unlock_fallback t) f

type stats = {
  aborts : int;
  precise_conflicts : int;
  explicit_aborts : int;
  fallbacks : int;
  backoff_waits : int;
}

(** Merged (all-domain) totals for this lock. *)
let stats (t : t) =
  {
    aborts = Obs.Counter.value t.aborts;
    precise_conflicts = Obs.Counter.value t.precise_conflicts;
    explicit_aborts = Obs.Counter.value t.explicit_aborts;
    fallbacks = Obs.Counter.value t.fallbacks;
    backoff_waits = Obs.Counter.value t.backoff_waits;
  }

let stats_assoc t =
  let s = stats t in
  [ ("aborts", s.aborts);
    ("precise_conflicts", s.precise_conflicts);
    ("explicit_aborts", s.explicit_aborts);
    ("fallbacks", s.fallbacks);
    ("backoff_waits", s.backoff_waits) ]

let merge a b =
  {
    aborts = a.aborts + b.aborts;
    precise_conflicts = a.precise_conflicts + b.precise_conflicts;
    explicit_aborts = a.explicit_aborts + b.explicit_aborts;
    fallbacks = a.fallbacks + b.fallbacks;
    backoff_waits = a.backoff_waits + b.backoff_waits;
  }

let zero_stats =
  { aborts = 0; precise_conflicts = 0; explicit_aborts = 0; fallbacks = 0;
    backoff_waits = 0 }

(** Per-domain-shard breakdown: [(shard, stats)] for every shard with
    at least one non-zero counter (shard = domain id mod
    [Obs.Counter.shards]).  Folding with {!merge} reproduces
    {!stats}. *)
let shard_stats (t : t) =
  let tbl = Hashtbl.create 8 in
  let get s =
    match Hashtbl.find_opt tbl s with Some r -> r | None -> zero_stats
  in
  List.iter
    (fun (s, v) -> Hashtbl.replace tbl s { (get s) with aborts = v })
    (Obs.Counter.per_shard t.aborts);
  List.iter
    (fun (s, v) -> Hashtbl.replace tbl s { (get s) with precise_conflicts = v })
    (Obs.Counter.per_shard t.precise_conflicts);
  List.iter
    (fun (s, v) -> Hashtbl.replace tbl s { (get s) with explicit_aborts = v })
    (Obs.Counter.per_shard t.explicit_aborts);
  List.iter
    (fun (s, v) -> Hashtbl.replace tbl s { (get s) with fallbacks = v })
    (Obs.Counter.per_shard t.fallbacks);
  List.iter
    (fun (s, v) -> Hashtbl.replace tbl s { (get s) with backoff_waits = v })
    (Obs.Counter.per_shard t.backoff_waits);
  Hashtbl.fold (fun s r acc -> (s, r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
