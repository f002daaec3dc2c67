(** A memcached-style key-value cache whose internal index is one of
    the evaluated trees (Section 6.4, memcached experiments).

    Like the paper's modified memcached: the hash table is replaced by
    a tree, the full string key is stored in the index (not its hash,
    to avoid collisions), and the bucket-lock scheme is replaced by
    either the tree's own concurrency control (concurrent trees) or a
    global lock (single-threaded trees).  Items (the values) stay in a
    DRAM item store, as in memcached. *)

(* Op latency histograms (microseconds), recorded only when the
   observability gate is on so the cache benches pay nothing by
   default. *)
let h_get_us =
  Obs.Registry.histogram "kvstore_get_us" ~help:"GET latency, microseconds"

let h_set_us =
  Obs.Registry.histogram "kvstore_set_us" ~help:"SET latency, microseconds"

let h_delete_us =
  Obs.Registry.histogram "kvstore_delete_us"
    ~help:"DELETE latency, microseconds"

type t = {
  index : Tree_ops.t;
  items : string array Atomic.t; (* grow-only item store *)
  next_item : int Atomic.t;
  grow_lock : Mutex.t;
  global_lock : Mutex.t option; (* Some for non-concurrent indexes *)
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create index =
  {
    index;
    items = Atomic.make (Array.make 4096 "");
    next_item = Atomic.make 0;
    grow_lock = Mutex.create ();
    global_lock = (if index.Tree_ops.concurrent then None else Some (Mutex.create ()));
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

(* Key fingerprint for flight-recorder events: any stable small hash
   will do, the events only need to correlate ops on the same key. *)
let[@inline] key_fp key = Hashtbl.hash key

let with_global t f =
  match t.global_lock with
  | None -> f ()
  | Some m ->
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let store_item t value =
  let id = Atomic.fetch_and_add t.next_item 1 in
  let rec place () =
    let arr = Atomic.get t.items in
    if id < Array.length arr then arr.(id) <- value
    else begin
      Mutex.lock t.grow_lock;
      let arr = Atomic.get t.items in
      (if id >= Array.length arr then begin
         let bigger = Array.make (max (Array.length arr * 2) (id + 1)) "" in
         Array.blit arr 0 bigger 0 (Array.length arr);
         Atomic.set t.items bigger
       end);
      Mutex.unlock t.grow_lock;
      place ()
    end
  in
  place ();
  id

(* Index half of a SET: insert, falling back to update when the key is
   already present.  A refusal from either leg surfaces as
   [`Out_of_space]; the index itself is unchanged in that case. *)
let set_index t key id =
  match t.index.Tree_ops.insert key id with
  | Ok true -> Ok ()
  | Ok false -> (
    match t.index.Tree_ops.update key id with
    | Ok _ -> Ok ()
    | Error _ as e -> e)
  | Error _ as e -> e

(** SET: insert or overwrite.  [Error `Out_of_space] when the index
    refused the write (its arena is past the watermark or exhausted);
    the cache keeps serving GETs and overwrites of existing keys may
    still succeed. *)
let set t key value =
  if not (Obs.Gate.enabled ()) then begin
    let id = store_item t value in
    with_global t (fun () -> set_index t key id)
  end
  else begin
    let fp = key_fp key in
    let t0 = Obs.Flight.op_begin ~op:Obs.Event.op_set ~key:fp in
    let id = store_item t value in
    let r = with_global t (fun () -> set_index t key id) in
    let dur =
      Obs.Flight.op_end ~op:Obs.Event.op_set ~key:fp ~t0 ~ok:(r = Ok ())
    in
    Obs.Histogram.record h_set_us dur;
    r
  end

(** [set] for callers that treat exhaustion as fatal (benches, tests
    on arenas sized to the workload). *)
let set_exn t key value =
  match set t key value with
  | Ok () -> ()
  | Error `Out_of_space -> failwith "Cache.set: index out of space"

(** GET. *)
let get t key =
  if not (Obs.Gate.enabled ()) then begin
    match with_global t (fun () -> t.index.Tree_ops.find key) with
    | Some id ->
      Atomic.incr t.hits;
      Some (Atomic.get t.items).(id)
    | None ->
      Atomic.incr t.misses;
      None
  end
  else begin
    let fp = key_fp key in
    let t0 = Obs.Flight.op_begin ~op:Obs.Event.op_get ~key:fp in
    let r = with_global t (fun () -> t.index.Tree_ops.find key) in
    let r =
      match r with
      | Some id ->
        Atomic.incr t.hits;
        Some (Atomic.get t.items).(id)
      | None ->
        Atomic.incr t.misses;
        None
    in
    let dur =
      Obs.Flight.op_end ~op:Obs.Event.op_get ~key:fp ~t0 ~ok:(r <> None)
    in
    Obs.Histogram.record h_get_us dur;
    r
  end

let delete t key =
  if not (Obs.Gate.enabled ()) then
    with_global t (fun () -> t.index.Tree_ops.delete key)
  else begin
    let fp = key_fp key in
    let t0 = Obs.Flight.op_begin ~op:Obs.Event.op_kv_delete ~key:fp in
    let r = with_global t (fun () -> t.index.Tree_ops.delete key) in
    let dur =
      Obs.Flight.op_end ~op:Obs.Event.op_kv_delete ~key:fp ~t0 ~ok:r
    in
    Obs.Histogram.record h_delete_us dur;
    r
  end

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
