(** Stateless model checker for the optimistic-concurrency protocol
    (dscheck-style dynamic partial-order reduction).

    The tree's shared accesses — version cells, leaf-lock words, the
    fallback mutex, the root swap — all route through the {!Htm.Sched}
    shim.  With the [model_check] gate on, this module installs hooks
    that turn each access into an effect ([Yield]), so every thread of
    a scenario runs as a cooperative fiber that pauses {e before} each
    shared access.  A pause-with-pending-label is exactly DPOR's "next
    transition" notion: the scheduler picks which pending access
    executes next, and the access runs atomically on resume, up to the
    fiber's next shared access.

    {b Exploration} is stateless and replay-based: one full execution
    per schedule, driven by a persistent stack of frames (one per
    step).  Each frame records the enabled threads, a backtrack set
    (choices still to explore), a done set, and a sleep set.  After an
    execution, the explorer truncates to the deepest frame with an
    unexplored backtrack choice and replays the forced prefix.
    Backtrack points are inserted by the classic DPOR race rule over a
    happens-before relation tracked with vector clocks: when thread [p]
    executes an access that conflicts with an earlier access [e_j] of
    another thread not ordered before [p]'s current point, [p] (or, if
    [p] was not enabled there, every enabled thread) is added to the
    backtrack set of the state [e_j] executed from.  Sleep sets prune
    schedules that only commute independent accesses.

    {b Modeling boundary.}  Only the protocol words are interleaved;
    leaf/inner {e content} accesses between two yield points execute
    atomically, so byte-level tearing inside a leaf is not modeled —
    the races the protocol must order all manifest at the version and
    lock words.  [Htm.Sched.Opaque] accesses (CAS-loop sub-allocators,
    baseline-private locks) are likewise single atomic steps. *)

module Sched = Htm.Sched

(* ---------- labels: pending shared accesses ---------- *)

type label =
  | Point of { obj : int; write : bool }  (** one shared load/store *)
  | Lock of int  (** virtual-mutex acquire; enabled iff free *)
  | Unlock of int
  | Await of int
      (** spin-wait; enabled once another thread has written [obj]
          since the await was registered *)

let obj_of = function
  | Point { obj; _ } | Lock obj | Unlock obj | Await obj -> obj

let writes = function
  | Point { write; _ } -> write
  | Lock _ | Unlock _ -> true
  | Await _ -> false

(* Dependence: two accesses to the same object, at least one a write.
   An [Await] reads the object's write stamp, so it is ordered against
   writes (the enabling edge) but commutes with other reads. *)
let conflict a b = obj_of a = obj_of b && (writes a || writes b)

let obj_name o =
  if o = Sched.obj_mutex then "fallback-mutex"
  else
    let id = o asr 2 in
    match o land 3 with
    | 0 ->
      if id = 0 then "root-ver"
      else if id > 0 then Printf.sprintf "ver(leaf@%d)" id
      else Printf.sprintf "ver(inner%d)" id
    | 1 -> Printf.sprintf "lock(leaf@%d)" id
    | _ -> Printf.sprintf "obj%d" o

let label_name = function
  | Point { obj; write } ->
    (if write then "write  " else "read   ") ^ obj_name obj
  | Lock o -> "lock   " ^ obj_name o
  | Unlock o -> "unlock " ^ obj_name o
  | Await o -> "await  " ^ obj_name o

(* ---------- fibers ---------- *)

type _ Effect.t += Yield : label -> unit Effect.t

type fiber =
  | Paused of label * (unit, fiber) Effect.Deep.continuation
  | Finished
  | Crashed of exn

let fiber_handler : (unit, fiber) Effect.Deep.handler =
  {
    retc = (fun () -> Finished);
    exnc = (fun e -> Crashed e);
    effc =
      (fun (type c) (eff : c Effect.t) ->
        match eff with
        | Yield l ->
          Some
            (fun (k : (c, fiber) Effect.Deep.continuation) -> Paused (l, k))
        | _ -> None);
  }

let cur_tid = ref 0

let checker_hooks =
  {
    Sched.h_point =
      (fun ~obj ~write -> Effect.perform (Yield (Point { obj; write })));
    h_await = (fun ~obj -> Effect.perform (Yield (Await obj)));
    h_lock = (fun ~obj -> Effect.perform (Yield (Lock obj)));
    h_unlock = (fun ~obj -> Effect.perform (Yield (Unlock obj)));
    h_tid = (fun () -> !cur_tid);
  }

(* ---------- scenarios ---------- *)

type scenario = {
  name : string;
  nthreads : int;
  prepare : unit -> (unit -> unit) array * (unit -> (unit, string) result);
      (** Build a fresh deterministic initial state and return the
          thread bodies plus the terminal check.  Runs with the
          [model_check] gate {e off}; the gate is raised only around
          the fibers themselves. *)
}

(* ---------- small growable vector ---------- *)

module Vec = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let na = Array.make (max 8 (2 * v.n)) x in
      Array.blit v.a 0 na 0 v.n;
      v.a <- na
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let len v = v.n
  let truncate v n = v.n <- n
end

(* ---------- one execution ---------- *)

type outcome =
  | Passed
  | Check_failed of string
  | Crashed_thread of int * exn
  | Deadlocked
  | Abandoned  (** the picker declined: sleep-blocked or infeasible *)
  | Bound_exceeded

type exec = { outcome : outcome; trace : (int * label) array }

type thread = { tid : int; mutable st : fiber; mutable await_stamp : int }

let is_failure = function
  | Check_failed _ | Crashed_thread _ | Deadlocked -> true
  | Passed | Abandoned | Bound_exceeded -> false

(* Run one schedule of [sc].  [pick] chooses among the enabled pending
   accesses at each step (None abandons the execution); [on_exec] sees
   each access as it is committed, before the fiber resumes. *)
let execute (sc : scenario) ~max_steps
    ~(pick : step:int -> enabled:(int * label) list -> last:int -> int option)
    ~(on_exec : step:int -> tid:int -> label:label -> unit) : exec =
  let bodies, check = sc.prepare () in
  let n = sc.nthreads in
  if Array.length bodies <> n then
    invalid_arg "Dpor.execute: bodies <> nthreads";
  let threads = Array.init n (fun i -> { tid = i; st = Finished; await_stamp = 0 }) in
  let locks : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let wstamp : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let stamp o = match Hashtbl.find_opt wstamp o with Some s -> s | None -> 0 in
  let register_await t =
    match t.st with
    | Paused (Await o, _) -> t.await_stamp <- stamp o
    | _ -> ()
  in
  let trace = ref [] in
  let nsteps = ref 0 in
  Sched.install checker_hooks;
  Scm.Config.set_model_check true;
  let finish outcome =
    Scm.Config.set_model_check false;
    Sched.uninstall ();
    { outcome; trace = Array.of_list (List.rev !trace) }
  in
  (* Spawn: runs each body's thread-local prefix up to its first shared
     access (yield-before-access means no shared access runs here). *)
  let crashed = ref None in
  Array.iteri
    (fun i body ->
      if !crashed = None then begin
        cur_tid := i;
        let st = Effect.Deep.match_with body () fiber_handler in
        threads.(i).st <- st;
        register_await threads.(i);
        match st with Crashed e -> crashed := Some (i, e) | _ -> ()
      end)
    bodies;
  let rec loop last =
    if !nsteps > max_steps then finish Bound_exceeded
    else begin
      let paused =
        Array.to_list threads
        |> List.filter (fun t -> match t.st with Paused _ -> true | _ -> false)
      in
      if paused = [] then begin
        (* All fibers done: the terminal check runs outside the gate
           (its tree ops must not perform effects). *)
        Scm.Config.set_model_check false;
        match check () with
        | Ok () -> finish Passed
        | Error m -> finish (Check_failed m)
        | exception e ->
          finish (Check_failed ("check raised: " ^ Printexc.to_string e))
      end
      else begin
        let enabled =
          List.filter_map
            (fun t ->
              match t.st with
              | Paused (l, _) ->
                let ok =
                  match l with
                  | Point _ | Unlock _ -> true
                  | Lock o -> not (Hashtbl.mem locks o)
                  | Await o -> stamp o > t.await_stamp
                in
                if ok then Some (t.tid, l) else None
              | _ -> None)
            paused
        in
        if enabled = [] then finish Deadlocked
        else
          match pick ~step:!nsteps ~enabled ~last with
          | None -> finish Abandoned
          | Some p -> (
            match threads.(p).st with
            | Paused (l, k) -> (
              on_exec ~step:!nsteps ~tid:p ~label:l;
              (match l with
              | Lock o -> Hashtbl.replace locks o p
              | Unlock o -> Hashtbl.remove locks o
              | _ -> ());
              if writes l then
                Hashtbl.replace wstamp (obj_of l) (stamp (obj_of l) + 1);
              trace := (p, l) :: !trace;
              incr nsteps;
              cur_tid := p;
              let st = Effect.Deep.continue k () in
              threads.(p).st <- st;
              register_await threads.(p);
              match st with
              | Crashed e -> finish (Crashed_thread (p, e))
              | _ -> loop p)
            | _ -> assert false)
      end
    end
  in
  try
    match !crashed with
    | Some (i, e) -> finish (Crashed_thread (i, e))
    | None -> loop (-1)
  with e ->
    Scm.Config.set_model_check false;
    Sched.uninstall ();
    raise e

(* ---------- exploration ---------- *)

type frame = {
  f_enabled : (int * label) list;  (* tid, pending label at this state *)
  mutable f_backtrack : int list;
  mutable f_done : int list;
  f_sleep : (int * label) list;  (* sleep set inherited at state entry *)
  mutable f_choice : int;  (* choice taken on the current path *)
}

type failure = {
  f_outcome : string;
  f_trace : (int * label) array;
  f_schedule : int;  (** 1-based index of the failing execution *)
}

type report = {
  scenario : string;
  schedules : int;  (** executions run to a terminal state *)
  abandoned : int;  (** prefixes pruned as sleep-set-redundant *)
  bound_hits : int;
  deepest : int;  (** longest schedule, in shared accesses *)
  truncated : bool;  (** stopped at the execution limit *)
  failure : failure option;
}

let outcome_name = function
  | Passed -> "passed"
  | Check_failed m -> "check failed: " ^ m
  | Crashed_thread (i, e) ->
    Printf.sprintf "thread %d raised %s" i (Printexc.to_string e)
  | Deadlocked -> "deadlock: pending accesses but none enabled"
  | Abandoned -> "abandoned"
  | Bound_exceeded -> "step bound exceeded"

let explore ?(dpor = true) ?(max_steps = 5_000) ?(limit = 400_000)
    (sc : scenario) : report =
  let frames : frame Vec.t = Vec.create () in
  let nt = sc.nthreads in
  let schedules = ref 0 and abandoned = ref 0 and bound_hits = ref 0 in
  let deepest = ref 0 in
  let failure = ref None in
  let truncated = ref false in
  let finished = ref false in
  while (not !finished) && !failure = None do
    let total = !schedules + !abandoned + !bound_hits in
    if total >= limit then begin
      truncated := true;
      finished := true
    end
    else begin
      (* Pick the next divergence: the deepest frame with an unexplored,
         non-sleeping backtrack choice.  First execution runs free. *)
      let diverge = ref (-1) and dchoice = ref (-1) in
      let k = ref (Vec.len frames - 1) in
      while !diverge < 0 && !k >= 0 do
        let fr = Vec.get frames !k in
        let sleeping = List.map fst fr.f_sleep in
        (match
           List.find_opt
             (fun t -> (not (List.mem t fr.f_done)) && not (List.mem t sleeping))
             fr.f_backtrack
         with
        | Some c ->
          diverge := !k;
          dchoice := c
        | None -> ());
        decr k
      done;
      if Vec.len frames > 0 && !diverge < 0 then finished := true
      else begin
        if !diverge >= 0 then begin
          Vec.truncate frames (!diverge + 1);
          let fr = Vec.get frames !diverge in
          fr.f_choice <- !dchoice;
          fr.f_done <- !dchoice :: fr.f_done
        end;
        (* Per-execution happens-before state. *)
        let cur_sleep = ref [] in
        let seqs = Array.make nt 0 in
        let tclock = Array.init nt (fun _ -> Array.make nt 0) in
        let objw : (int, int array) Hashtbl.t = Hashtbl.create 32 in
        let objr : (int, int array) Hashtbl.t = Hashtbl.create 32 in
        let events : (int * label * int) Vec.t = Vec.create () in
        let pick ~step ~enabled ~last =
          if step < Vec.len frames then begin
            let fr = Vec.get frames step in
            if fr.f_enabled <> enabled then
              failwith
                (Printf.sprintf
                   "mcheck: nondeterministic replay at step %d of %s" step
                   sc.name);
            let choice = fr.f_choice in
            if dpor then
              (* Sleep for this branch: inherited sleep plus every
                 already-explored sibling choice. *)
              cur_sleep :=
                fr.f_sleep
                @ List.filter_map
                    (fun t ->
                      if t <> choice then
                        match List.assoc_opt t fr.f_enabled with
                        | Some l -> Some (t, l)
                        | None -> None
                      else None)
                    fr.f_done;
            Some choice
          end
          else begin
            let sleeping = if dpor then List.map fst !cur_sleep else [] in
            let avail =
              List.filter (fun (t, _) -> not (List.mem t sleeping)) enabled
            in
            match avail with
            | [] -> None  (* every enabled access is asleep: redundant *)
            | _ ->
              let choice =
                if List.mem_assoc last avail then last
                else fst (List.hd avail)
              in
              Vec.push frames
                {
                  f_enabled = enabled;
                  f_backtrack =
                    (if dpor then [ choice ] else List.map fst enabled);
                  f_done = [ choice ];
                  f_sleep = !cur_sleep;
                  f_choice = choice;
                };
              Some choice
          end
        in
        let on_exec ~step:_ ~tid ~label =
          if dpor then begin
            cur_sleep :=
              List.filter
                (fun (t, l) -> t <> tid && not (conflict l label))
                !cur_sleep;
            (* Race rule: latest conflicting access by another thread
               that is not happens-before this one. *)
            let cb = tclock.(tid) in
            let j = ref (Vec.len events - 1) in
            let hit = ref (-1) in
            while !hit < 0 && !j >= 0 do
              let et, el, es = Vec.get events !j in
              if et <> tid && conflict el label && es > cb.(et) then hit := !j
              else decr j
            done;
            if !hit >= 0 then begin
              let fr = Vec.get frames !hit in
              let add t =
                if not (List.mem t fr.f_backtrack) then
                  fr.f_backtrack <- t :: fr.f_backtrack
              in
              if List.mem_assoc tid fr.f_enabled then add tid
              else List.iter (fun (t, _) -> add t) fr.f_enabled
            end;
            (* Vector clocks: join the last writer (and, for writes,
               all readers since) of the object. *)
            let o = obj_of label in
            let cl = Array.copy cb in
            let join src =
              match Hashtbl.find_opt src o with
              | Some c -> Array.iteri (fun i v -> if v > cl.(i) then cl.(i) <- v) c
              | None -> ()
            in
            join objw;
            if writes label then join objr;
            seqs.(tid) <- seqs.(tid) + 1;
            cl.(tid) <- seqs.(tid);
            tclock.(tid) <- cl;
            if writes label then begin
              Hashtbl.replace objw o (Array.copy cl);
              Hashtbl.remove objr o
            end
            else begin
              let r =
                match Hashtbl.find_opt objr o with
                | Some r -> Array.copy r
                | None -> Array.make nt 0
              in
              Array.iteri (fun i v -> if v > r.(i) then r.(i) <- v) cl;
              Hashtbl.replace objr o r
            end;
            Vec.push events (tid, label, seqs.(tid))
          end
        in
        let res = execute sc ~max_steps ~pick ~on_exec in
        if Array.length res.trace > !deepest then
          deepest := Array.length res.trace;
        (match res.outcome with
        | Abandoned -> incr abandoned
        | Bound_exceeded -> incr bound_hits
        | Passed -> incr schedules
        | Check_failed _ | Crashed_thread _ | Deadlocked ->
          incr schedules;
          failure :=
            Some
              {
                f_outcome = outcome_name res.outcome;
                f_trace = res.trace;
                f_schedule = !schedules + !abandoned + !bound_hits;
              });
        if Vec.len frames = 0 then finished := true
      end
    end
  done;
  {
    scenario = sc.name;
    schedules = !schedules;
    abandoned = !abandoned;
    bound_hits = !bound_hits;
    deepest = !deepest;
    truncated = !truncated;
    failure = !failure;
  }

(* ---------- replay and counterexample minimization ---------- *)

let replay (sc : scenario) ~max_steps (choices : int array) : exec =
  execute sc ~max_steps
    ~pick:(fun ~step ~enabled ~last ->
      if step < Array.length choices then begin
        let c = choices.(step) in
        if List.mem_assoc c enabled then Some c else None
      end
      else if List.mem_assoc last enabled then Some last
      else Some (fst (List.hd enabled)))
    ~on_exec:(fun ~step:_ ~tid:_ ~label:_ -> ())

let switches ch =
  let s = ref 0 in
  Array.iteri (fun i t -> if i > 0 && ch.(i - 1) <> t then incr s) ch;
  !s

(* Greedy context-switch reduction: repeatedly swap adjacent runs of
   different threads when doing so merges with a neighboring run
   (strictly fewer switches) and the replay still fails. *)
let minimize (sc : scenario) ?(max_steps = 5_000) ?(budget = 300)
    (trace : (int * label) array) : (int * label) array =
  let budget = ref budget in
  let best = ref (Array.map fst trace) in
  let try_sched cand =
    !budget > 0
    && begin
         decr budget;
         is_failure (replay sc ~max_steps cand).outcome
       end
  in
  let runs ch =
    let out = ref [] in
    Array.iter
      (fun t ->
        match !out with
        | (t', n) :: rest when t' = t -> out := (t', n + 1) :: rest
        | _ -> out := (t, 1) :: !out)
      ch;
    Array.of_list (List.rev !out)
  in
  let flatten rs =
    Array.concat (Array.to_list (Array.map (fun (t, n) -> Array.make n t) rs))
  in
  let improved = ref true in
  while !improved do
    improved := false;
    let rs = runs !best in
    let k = Array.length rs in
    let i = ref 0 in
    while (not !improved) && !i < k - 1 do
      let t1, _ = rs.(!i) and t2, _ = rs.(!i + 1) in
      if t1 <> t2 then begin
        let swapped = Array.copy rs in
        swapped.(!i) <- rs.(!i + 1);
        swapped.(!i + 1) <- rs.(!i);
        let cand = flatten swapped in
        if switches cand < switches !best && try_sched cand then begin
          best := cand;
          improved := true
        end
      end;
      incr i
    done
  done;
  (replay sc ~max_steps !best).trace

let render_trace (trace : (int * label) array) : string =
  let b = Buffer.create 256 in
  let last = ref (-1) in
  Array.iter
    (fun (t, l) ->
      if t <> !last then Buffer.add_string b (Printf.sprintf "T%d:\n" t);
      last := t;
      Buffer.add_string b ("    " ^ label_name l ^ "\n"))
    trace;
  Buffer.contents b
