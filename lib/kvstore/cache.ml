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
  hits : Obs.Counter.t;  (* sharded: client domains do not share a line *)
  misses : Obs.Counter.t;
}

let create index =
  {
    index;
    items = Atomic.make (Array.make 4096 "");
    next_item = Atomic.make 0;
    grow_lock = Mutex.create ();
    global_lock = (if index.Tree_ops.concurrent then None else Some (Mutex.create ()));
    hits = Obs.Counter.make ();
    misses = Obs.Counter.make ();
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

(* Store the item, then insert it into the index, falling back to
   update when the key is already present.  A refusal from either leg
   surfaces as [`Out_of_space]; the index itself is unchanged in that
   case. *)
let set_body t key value =
  let id = store_item t value in
  with_global t (fun () ->
      match t.index.Tree_ops.insert key id with
      | Ok true -> Ok ()
      | Ok false -> Result.map ignore (t.index.Tree_ops.update key id)
      | Error _ as e -> e)

(** SET: insert or overwrite.  [Error `Out_of_space] when the index
    refused the write (its arena is past the watermark or exhausted);
    the cache keeps serving GETs and overwrites of existing keys may
    still succeed. *)
let set t key value =
  if not (Obs.Gate.enabled ()) then set_body t key value
  else
    Obs.Flight.bracket ~op:Obs.Event.op_set ~key:(key_fp key) ~hist:h_set_us
      ~ok:Result.is_ok (fun () -> set_body t key value)

(** [set] for callers that treat exhaustion as fatal (benches, tests
    on arenas sized to the workload). *)
let set_exn t key value =
  match set t key value with
  | Ok () -> ()
  | Error `Out_of_space -> failwith "Cache.set: index out of space"

(* A concurrent index is called directly: no closure for
   [with_global], so a hit allocates only the two options. *)
let get_body t key =
  let found =
    match t.global_lock with
    | None -> t.index.Tree_ops.find key
    | Some _ -> with_global t (fun () -> t.index.Tree_ops.find key)
  in
  match found with
  | Some id ->
    Obs.Counter.incr t.hits;
    Some (Atomic.get t.items).(id)
  | None ->
    Obs.Counter.incr t.misses;
    None

(** GET. *)
let get t key =
  if not (Obs.Gate.enabled ()) then get_body t key
  else
    Obs.Flight.bracket ~op:Obs.Event.op_get ~key:(key_fp key) ~hist:h_get_us
      ~ok:Option.is_some (fun () -> get_body t key)

let delete_body t key = with_global t (fun () -> t.index.Tree_ops.delete key)

let delete t key =
  if not (Obs.Gate.enabled ()) then delete_body t key
  else
    Obs.Flight.bracket ~op:Obs.Event.op_kv_delete ~key:(key_fp key)
      ~hist:h_delete_us ~ok:Fun.id (fun () -> delete_body t key)

let hits t = Obs.Counter.value t.hits
let misses t = Obs.Counter.value t.misses
