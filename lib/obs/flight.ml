(* ---- ring ---- *)

let words_per_event = 6

(** Events retained per domain; power of two so the slot index is a
    mask.  4096 x 6 words = 192 KiB per domain. *)
let capacity = 4096

type ring = {
  r_dom : int;  (** domain id at ring creation (ids may be reused) *)
  r_buf : int array;
  r_cursor : int Atomic.t;
      (** monotone count of events ever written; slot [seq mod
          capacity] holds event [seq].  Published {e after} the slot
          contents. *)
  mutable r_last_us : int;
      (** last fresh monotonic-clock reading taken on this ring's
          domain.  {!op_mark} stamps events with this instead of
          reading the clock: under real cache pressure a clock read
          costs ~70-90 ns (rdtsc plus the calibration state and TLS
          lines it drags in), which alone blows the find path's 10%
          tracing budget.  Every fresh-clock emission refreshes it, so
          marker timestamps lag by at most one sampling interval and
          never move backwards within the ring. *)
  mutable r_persist_run : int;
      (** persists counted on this domain since the ring was made; the
          recorder owns this so [Scm.Stats] needs no [Domain.DLS] slot
          of its own (per-domain keys are confined to lib/htm and
          lib/obs — see tools/lint.ml). *)
}

let rings : ring list ref = ref []
let rings_lock = Mutex.create ()

let make_ring () =
  let r =
    {
      r_dom = (Domain.self () :> int);
      r_buf = Array.make (capacity * words_per_event) 0;
      r_cursor = Atomic.make 0;
      r_last_us = Clock.now_us_int ();
      r_persist_run = 0;
    }
  in
  Mutex.lock rings_lock;
  rings := r :: !rings;
  Mutex.unlock rings_lock;
  r

let ring_key = Domain.DLS.new_key make_ring

(* ---- write path ---- *)

let[@inline] emit_ring r t_us ~tag ~a ~b ~c ~d =
  let cur = Atomic.get r.r_cursor in
  let base = (cur land (capacity - 1)) * words_per_event in
  let buf = r.r_buf in
  Array.unsafe_set buf base tag;
  Array.unsafe_set buf (base + 1) t_us;
  Array.unsafe_set buf (base + 2) a;
  Array.unsafe_set buf (base + 3) b;
  Array.unsafe_set buf (base + 4) c;
  Array.unsafe_set buf (base + 5) d;
  Atomic.set r.r_cursor (cur + 1)

let[@inline] emit_at t_us ~tag ~a ~b ~c ~d =
  let r = Domain.DLS.get ring_key in
  if t_us > r.r_last_us then r.r_last_us <- t_us;
  emit_ring r t_us ~tag ~a ~b ~c ~d

let[@inline] emit ~tag ~a ~b ~c ~d =
  emit_at (Clock.now_us_int ()) ~tag ~a ~b ~c ~d

(* ---- typed emission helpers (see Event for payload layouts) ---- *)

(** Returns the begin timestamp (us), to be passed to {!op_end}. *)
let op_begin ~op ~key =
  let t0 = Clock.now_us_int () in
  emit_at t0 ~tag:Event.op_begin ~a:op ~b:key ~c:0 ~d:0;
  t0

(** Returns the op duration in microseconds (callers that do not feed
    a histogram [ignore] it). *)
let op_end ~op ~key ~t0 ~ok =
  let t1 = Clock.now_us_int () in
  emit_at t1 ~tag:Event.op_end ~a:op ~b:key ~c:(t1 - t0)
    ~d:(if ok then 1 else 0);
  t1 - t0

(** Completed-op marker without a measured latency (c = -1 sentinel)
    and without a clock read: the event is stamped with the ring's
    cached [r_last_us], refreshed by every fresh-clock emission (in
    particular the sampled {!op_begin}/{!op_end} pairs interleaved by
    hot read paths), so the stamp lags by at most one sampling
    interval and stays nondecreasing within the ring.  Hot read paths
    emit this for every op and the measured pair only on a sample —
    percentile math skips the sentinel, event counts still see every
    op, per-domain ordering is exact via [seq]. *)
let op_mark ~op ~key ~ok =
  let r = Domain.DLS.get ring_key in
  emit_ring r r.r_last_us ~tag:Event.op_end ~a:op ~b:key ~c:(-1)
    ~d:(if ok then 1 else 0)

let htm_abort ~reason ~node ~depth =
  emit ~tag:Event.htm_abort ~a:reason ~b:node ~c:depth ~d:0

let fallback_lock () = emit ~tag:Event.fallback_lock ~a:0 ~b:0 ~c:0 ~d:0

let backoff_wait ~attempt ~spins =
  emit ~tag:Event.backoff_wait ~a:attempt ~b:spins ~c:0 ~d:0

let split ~left ~right = emit ~tag:Event.split ~a:left ~b:right ~c:0 ~d:0
let merge ~leaf ~prev = emit ~tag:Event.merge ~a:leaf ~b:prev ~c:0 ~d:0

let root_grow = 1
let root_collapse = 2
let root_swap ~dir = emit ~tag:Event.root_swap ~a:dir ~b:0 ~c:0 ~d:0

let persist_batch ~batch ~total =
  emit ~tag:Event.persist_batch ~a:batch ~b:total ~c:0 ~d:0

(** Count one persist on the calling domain and emit a {!persist_batch}
    event every [batch]-th call — the cadence marker [Scm.Stats] feeds
    from [incr_persists] when the gate is on.  The run counter lives in
    the per-domain ring so the caller carries no DLS state. *)
let persist_tick ~batch =
  let r = Domain.DLS.get ring_key in
  let n = r.r_persist_run + 1 in
  r.r_persist_run <- n;
  if n mod batch = 0 then persist_batch ~batch ~total:n

(* ---- span-name interning (cold path: recovery phases etc.) ---- *)

let names : string list ref = ref []  (* reverse order; index = id *)
let names_n = ref 0
let names_lock = Mutex.create ()

let intern s =
  Mutex.lock names_lock;
  let rec find i = function
    | [] -> -1
    | x :: _ when String.equal x s -> i
    | _ :: tl -> find (i - 1) tl
  in
  let id = find (!names_n - 1) !names in
  let id =
    if id >= 0 then id
    else begin
      names := s :: !names;
      let id = !names_n in
      incr names_n;
      id
    end
  in
  Mutex.unlock names_lock;
  id

let name_table () =
  Mutex.lock names_lock;
  let l = List.rev !names in
  Mutex.unlock names_lock;
  l

(** A completed span (e.g. a recovery phase): [t_us] is the start. *)
let span ~name ~start_us ~dur_us =
  emit_at start_us ~tag:Event.span ~a:(intern name) ~b:dur_us ~c:0 ~d:0

(** Run the cold-path phase [f] (a recovery phase, say) and record its
    duration in microseconds into [hist], always — also when [f]
    raises.  With the gate on, the phase is also emitted as a {!span}
    named [name], so a crash dump carries it next to per-op events. *)
let timed ~name hist f =
  let t0 = Clock.now_us_int () in
  Fun.protect f ~finally:(fun () ->
      let dur_us = Clock.now_us_int () - t0 in
      Histogram.record hist dur_us;
      if Gate.enabled () then span ~name ~start_us:t0 ~dur_us)

(* ---- drain ---- *)

type event = {
  dom : int;
  seq : int;  (** per-domain monotone sequence number *)
  t_us : int;
  tag : int;
  a : int;
  b : int;
  c : int;
  d : int;
}

let drain_ring r =
  let c1 = Atomic.get r.r_cursor in
  let snap = Array.copy r.r_buf in
  let c2 = Atomic.get r.r_cursor in
  let lo = max 0 (c2 + 1 - capacity) in
  let acc = ref [] in
  for seq = c1 - 1 downto lo do
    let base = (seq land (capacity - 1)) * words_per_event in
    acc :=
      {
        dom = r.r_dom;
        seq;
        t_us = snap.(base + 1);
        tag = snap.(base);
        a = snap.(base + 2);
        b = snap.(base + 3);
        c = snap.(base + 4);
        d = snap.(base + 5);
      }
      :: !acc
  done;
  !acc

(** Snapshot of every registered ring, merged and sorted by timestamp
    (ties by domain then sequence).  Writers keep running; each ring's
    slice is internally consistent per the epoch protocol above. *)
let drain () =
  Mutex.lock rings_lock;
  let rs = !rings in
  Mutex.unlock rings_lock;
  let evs = List.concat_map drain_ring rs in
  List.sort
    (fun x y ->
      let c = compare x.t_us y.t_us in
      if c <> 0 then c
      else
        let c = compare x.dom y.dom in
        if c <> 0 then c else compare x.seq y.seq)
    evs

(** Zero every ring's cursor (stale slot contents become unreachable).
    Only meaningful while no other domain is emitting. *)
let reset () =
  Mutex.lock rings_lock;
  List.iter (fun r -> Atomic.set r.r_cursor 0) !rings;
  Mutex.unlock rings_lock

(* ---- exporters ---- *)

(** Round-trippable dump: everything {!drain} knows, plus the interned
    name table and metadata.  [written_at_unix_s] is the only
    wall-clock field in the flight subsystem — dump metadata, never
    subtracted from anything. *)
let to_json ~reason () =
  let evs = drain () in
  Json.Obj
    [
      ( "flight",
        Json.Obj
          [
            ("reason", Json.Str reason);
            ("written_at_unix_s", Json.Float (Clock.wall_s ()));
            ("capacity", Json.Int capacity);
            ("names", Json.Arr (List.map (fun s -> Json.Str s) (name_table ())));
            ( "events",
              Json.Arr
                (List.map
                   (fun e ->
                     Json.Obj
                       [
                         ("dom", Json.Int e.dom);
                         ("seq", Json.Int e.seq);
                         ("t_us", Json.Int e.t_us);
                         ("tag", Json.Int e.tag);
                         ("kind", Json.Str (Event.tag_name e.tag));
                         ("a", Json.Int e.a);
                         ("b", Json.Int e.b);
                         ("c", Json.Int e.c);
                         ("d", Json.Int e.d);
                       ])
                   evs) );
          ] );
    ]

(** Parse a {!to_json} dump back into events (the [fptree trace]
    summarizer and round-trip tests).  Returns (events, name table,
    reason).  Raises [Json.Parse_error] / [Failure] on malformed
    input. *)
let of_json j =
  let fl = Json.member "flight" j in
  let reason = Json.to_string_val (Json.member "reason" fl) in
  let names = List.map Json.to_string_val (Json.to_list (Json.member "names" fl)) in
  let evs =
    List.map
      (fun e ->
        let f k = Json.to_int (Json.member k e) in
        {
          dom = f "dom";
          seq = f "seq";
          t_us = f "t_us";
          tag = f "tag";
          a = f "a";
          b = f "b";
          c = f "c";
          d = f "d";
        })
      (Json.to_list (Json.member "events" fl))
  in
  (evs, names, reason)

(** Chrome [trace_event] export for chrome://tracing / Perfetto:
    op_end and span records become complete ("X") events, everything
    else becomes an instant ("i") event on its domain's track. *)
let to_chrome () =
  let evs = drain () in
  let names = Array.of_list (name_table ()) in
  let args l = ("args", Json.Obj l) in
  let common ~name ~ph ~ts e rest =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("ph", Json.Str ph);
         ("ts", Json.Int ts);
         ("pid", Json.Int 0);
         ("tid", Json.Int e.dom);
       ]
      @ rest)
  in
  let render e =
    if e.tag = Event.op_end && e.c >= 0 then
      common ~name:(Event.op_name e.a) ~ph:"X" ~ts:(e.t_us - e.c) e
        [
          ("dur", Json.Int e.c);
          args [ ("key_fp", Json.Int e.b); ("ok", Json.Int e.d) ];
        ]
    else if e.tag = Event.span then
      let nm =
        if e.a >= 0 && e.a < Array.length names then names.(e.a)
        else "span_" ^ string_of_int e.a
      in
      common ~name:nm ~ph:"X" ~ts:e.t_us e [ ("dur", Json.Int e.b) ]
    else
      let name =
        match () with
        | () when e.tag = Event.htm_abort ->
          "abort:" ^ Event.abort_name e.a
        | () when e.tag = Event.op_begin -> "begin:" ^ Event.op_name e.a
        | () when e.tag = Event.op_end ->
          (* unsampled op_mark: no duration to draw, keep the dot *)
          "end:" ^ Event.op_name e.a
        | () -> Event.tag_name e.tag
      in
      common ~name ~ph:"i" ~ts:e.t_us e
        [
          ("s", Json.Str "t");
          args
            [
              ("a", Json.Int e.a);
              ("b", Json.Int e.b);
              ("c", Json.Int e.c);
              ("d", Json.Int e.d);
            ];
        ]
  in
  Json.Obj [ ("traceEvents", Json.Arr (List.map render evs)) ]

(** Write a dump to [path] ('-' = stdout).  [`Json] is the
    round-trippable format; [`Chrome] loads in chrome://tracing. *)
let dump ?(format = `Json) ~reason path =
  let v =
    match format with `Json -> to_json ~reason () | `Chrome -> to_chrome ()
  in
  let s = Json.to_string v in
  if String.equal path "-" then print_string s
  else begin
    let oc = open_out path in
    output_string oc s;
    close_out oc
  end

(* ---- crash-time dumping ---- *)

(* Configured once at startup (CLI --flight-dump); read from failure
   paths on any domain.  A plain ref is fine: set before the workload
   starts, read-only afterwards. *)
let crash_path : string option ref = ref None

let set_crash_dump p = crash_path := p

(** Write the flight dump to the configured crash path, if any.
    Returns the path written so failure reports can name it.
    Best-effort by design: a dump failure while already handling a
    crash is reported on stderr, never raised into the failure path
    being reported. *)
let crash_dump ~reason =
  match !crash_path with
  | None -> None
  | Some p -> (
    try
      dump ~reason p;
      Some p
    with e ->
      Printf.eprintf "flight: crash dump to %s failed: %s\n%!" p
        (Printexc.to_string e);
      None)
