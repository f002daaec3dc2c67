type db = {
  kind : Index.kind;
  subscribers : int;
  cols : Scm.Region.t;
  (* Subscriber *)
  sub_index : Index.t;
  sub_nbr : Column.t;
  sub_bits : Column.t;
  sub_vlr : Column.t;
  sub_msc : Column.t;
  (* Access_Info: key = s_id * 4 + (ai_type - 1) -> row *)
  ai_index : Index.t;
  ai_data12 : Column.t;
  ai_data34 : Column.t;
  (* Special_Facility: key = s_id * 4 + (sf_type - 1) -> row *)
  sf_index : Index.t;
  sf_active : Column.t;
  sf_data : Column.t;
  (* Call_Forwarding: key = (sf row) * 3 + start_time/8 -> row *)
  cf_index : Index.t;
  cf_end_time : Column.t;
  cf_numberx : Column.t;
  (* row allocation cursors *)
  mutable ai_rows : int;
  mutable sf_rows : int;
  mutable cf_rows : int;
}

let ai_key s_id ai_type = (s_id * 4) + (ai_type - 1)
let sf_key s_id sf_type = (s_id * 4) + (sf_type - 1)
let cf_key sf_row start_slot = (sf_row * 3) + start_slot

(* deterministic per-row "random" attribute *)
let attr seed a b = (seed * 2654435761) lxor (a * 40503) lxor b land 0x3fffffff

(* Population and restart-rebuild treat exhaustion as fatal: the DB
   arenas are sized to the subscriber count, so a refusal here is a
   setup error, not a runtime condition to degrade through. *)
let ins (idx : Index.t) k row =
  match idx.Index.insert k row with
  | Ok b -> b
  | Error `Out_of_space -> failwith "Tatp: index arena out of space"

let populate ?(arena_bytes = 64 * 1024 * 1024) ~subscribers kind =
  (* column footprint: 4 subscriber + 2x4 access-info + 2x4 special-
     facility + 2x12 call-forwarding 8-byte columns, plus slack *)
  let cols =
    Scm.Registry.create
      ~size:(Scm.Cacheline.align_up ((subscribers * 8 * 48) + 65536) 64)
  in
  Column.init_region cols;
  let carve rows = Column.carve cols ~rows in
  let db =
    {
      kind; subscribers; cols;
      sub_index = Index.create ~arena_bytes kind;
      sub_nbr = carve subscribers;
      sub_bits = carve subscribers;
      sub_vlr = carve subscribers;
      sub_msc = carve subscribers;
      ai_index = Index.create ~arena_bytes kind;
      ai_data12 = carve (subscribers * 4);
      ai_data34 = carve (subscribers * 4);
      sf_index = Index.create ~arena_bytes kind;
      sf_active = carve (subscribers * 4);
      sf_data = carve (subscribers * 4);
      cf_index = Index.create ~arena_bytes kind;
      cf_end_time = carve (subscribers * 12);
      cf_numberx = carve (subscribers * 12);
      ai_rows = 0; sf_rows = 0; cf_rows = 0;
    }
  in
  let rng = Random.State.make [| 424242 |] in
  for s_id = 1 to subscribers do
    let row = s_id - 1 in
    (* sequential population: the pattern that hurts the NV-Tree *)
    ignore (ins db.sub_index s_id row);
    Column.set db.sub_nbr row (attr s_id 1 0);
    Column.set db.sub_bits row (attr s_id 2 0);
    Column.set db.sub_vlr row (attr s_id 3 0);
    Column.set db.sub_msc row (attr s_id 4 0);
    (* 1..4 access-info rows *)
    let n_ai = 1 + Random.State.int rng 4 in
    for ai_type = 1 to n_ai do
      let r = db.ai_rows in
      db.ai_rows <- r + 1;
      ignore (ins db.ai_index (ai_key s_id ai_type) r);
      Column.set db.ai_data12 r (attr s_id 5 ai_type);
      Column.set db.ai_data34 r (attr s_id 6 ai_type)
    done;
    (* 1..4 special-facility rows, each with 0..3 call forwardings *)
    let n_sf = 1 + Random.State.int rng 4 in
    for sf_type = 1 to n_sf do
      let r = db.sf_rows in
      db.sf_rows <- r + 1;
      ignore (ins db.sf_index (sf_key s_id sf_type) r);
      Column.set db.sf_active r (if Random.State.int rng 100 < 85 then 1 else 0);
      Column.set db.sf_data r (attr s_id 7 sf_type);
      let n_cf = Random.State.int rng 4 in
      for cf = 0 to n_cf - 1 do
        let cr = db.cf_rows in
        db.cf_rows <- cr + 1;
        ignore (ins db.cf_index (cf_key r cf) cr);
        Column.set db.cf_end_time cr ((cf * 8) + 8);
        Column.set db.cf_numberx cr (attr s_id 8 cf)
      done
    done
  done;
  Scm.Region.persist_all cols;
  db

(* ---- read-only transactions ---- *)

(** GET_SUBSCRIBER_DATA: point lookup + full row read. *)
let get_subscriber_data db s_id =
  match db.sub_index.Index.find s_id with
  | None -> 0
  | Some row ->
    Column.get db.sub_nbr row
    + Column.get db.sub_bits row
    + Column.get db.sub_vlr row
    + Column.get db.sub_msc row

(** GET_NEW_DESTINATION: special facility must be active, then scan the
    matching call-forwarding rows. *)
let get_new_destination db s_id sf_type start_slot =
  match db.sf_index.Index.find (sf_key s_id sf_type) with
  | None -> 0
  | Some sf_row ->
    if Column.get db.sf_active sf_row = 0 then 0
    else begin
      match db.cf_index.Index.find (cf_key sf_row start_slot) with
      | None -> 0
      | Some cf_row ->
        if Column.get db.cf_end_time cf_row > start_slot * 8 then
          Column.get db.cf_numberx cf_row
        else 0
    end

(** GET_ACCESS_DATA. *)
let get_access_data db s_id ai_type =
  match db.ai_index.Index.find (ai_key s_id ai_type) with
  | None -> 0
  | Some row -> Column.get db.ai_data12 row + Column.get db.ai_data34 row

let h_txn_us =
  Obs.Registry.histogram "dbproto_txn_us"
    ~help:"TATP transaction latency, microseconds"

(** One transaction of the read-only mix (35/10/35 re-normalized).
    Latency is recorded only when the observability gate is on. *)
let run_one db rng sink =
  if not (Obs.Gate.enabled ()) then begin
    let s_id = 1 + Random.State.int rng db.subscribers in
    let dice = Random.State.int rng 80 in
    let v =
      if dice < 35 then get_subscriber_data db s_id
      else if dice < 45 then
        get_new_destination db s_id (1 + Random.State.int rng 4)
          (Random.State.int rng 3)
      else get_access_data db s_id (1 + Random.State.int rng 4)
    in
    sink := !sink + v
  end
  else begin
    (* The begin event predates the parameter draw so the recorded
       latency matches what the histogram always measured; the end
       event carries the drawn subscriber as key fingerprint. *)
    let t0 = Obs.Flight.op_begin ~op:Obs.Event.op_txn ~key:0 in
    let s_id = 1 + Random.State.int rng db.subscribers in
    let dice = Random.State.int rng 80 in
    let v =
      if dice < 35 then get_subscriber_data db s_id
      else if dice < 45 then
        get_new_destination db s_id (1 + Random.State.int rng 4)
          (Random.State.int rng 3)
      else get_access_data db s_id (1 + Random.State.int rng 4)
    in
    sink := !sink + v;
    let dur =
      Obs.Flight.op_end ~op:Obs.Event.op_txn ~key:(s_id land 0xFFFF) ~t0
        ~ok:true
    in
    Obs.Histogram.record h_txn_us dur
  end

(** Run [n_tx] transactions over [clients] parallel workers; returns
    transactions per second. *)
let run_benchmark ?(clients = 8) ~n_tx db =
  let elapsed =
    Workloads.Domain_pool.run ~domains:clients (fun d ->
        let lo, hi = Workloads.Domain_pool.slice ~domains:clients ~total:n_tx d in
        let rng = Random.State.make [| 999; d |] in
        let sink = ref 0 in
        for _ = lo to hi - 1 do
          run_one db rng sink
        done;
        ignore (Sys.opaque_identity !sink))
  in
  float_of_int n_tx /. elapsed

(* ---- restart (Figure 12b) ---- *)

(** Simulate a crash-restart: recover every index (parallelized over
    [workers] domains, like the paper's 8-core recovery) and sanity-
    scan the SCM columns.  For the transient STXTree the indexes are
    rebuilt from base data.  Returns (new db, seconds). *)
let restart ?(workers = 4) db =
  let t0 = Obs.Clock.now_s () in
  let db' =
    match db.kind with
    | Index.STXTree ->
      (* full rebuild: reinsert every key *)
      let sub_index = Index.create Index.STXTree in
      let ai_index = Index.create Index.STXTree in
      let sf_index = Index.create Index.STXTree in
      let cf_index = Index.create Index.STXTree in
      for s_id = 1 to db.subscribers do
        ignore (ins sub_index s_id (s_id - 1))
      done;
      (* conservative: rebuild the other indexes from their old handles *)
      let reinsert (src : Index.t) (dst : Index.t) upper =
        for key = 0 to upper do
          match src.Index.find key with
          | Some row -> ignore (ins dst key row)
          | None -> ()
        done
      in
      reinsert db.ai_index ai_index ((db.subscribers + 1) * 4);
      reinsert db.sf_index sf_index ((db.subscribers + 1) * 4);
      reinsert db.cf_index cf_index (db.sf_rows * 3);
      { db with sub_index; ai_index; sf_index; cf_index }
    | _ ->
      let indexes = [| db.sub_index; db.ai_index; db.sf_index; db.cf_index |] in
      let out = Array.make 4 None in
      let workers = max 1 (min workers 4) in
      let elapsed_ignore =
        Workloads.Domain_pool.run ~domains:workers (fun d ->
            let i = ref d in
            while !i < 4 do
              out.(!i) <- Some (Index.recover indexes.(!i));
              i := !i + workers
            done)
      in
      ignore elapsed_ignore;
      { db with
        sub_index = Option.get out.(0);
        ai_index = Option.get out.(1);
        sf_index = Option.get out.(2);
        cf_index = Option.get out.(3) }
  in
  (* sanity scan of SCM base data *)
  let sum = Column.fold db'.sub_vlr (fun a v -> a + v) 0 in
  ignore (Sys.opaque_identity sum);
  (db', Obs.Clock.now_s () -. t0)
