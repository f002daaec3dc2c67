(* Decoder from flight records to the analyzer's events.  Scope labels
   are rebuilt offline from each domain's open op records. *)

module E = Obs.Event
module F = Obs.Flight

type kind =
  | Store of { off : int; len : int; silent : bool }
  | Flush of { off : int; len : int }
  | Fence
  | Publish of { off : int; len : int; what : string }
  | Link_write of { off : int; len : int }
  | Log_arm of { log : int }
  | Log_reset of { log : int }
  | Lock_acquire of { leaf : int }
  | Lock_release of { leaf : int }
  | Leaf_retired of { leaf : int }
  | Leaf_layout of { bytes : int }
  | Track_reset
  | Ver_begin of { leaf : int }
  | Ver_end of { leaf : int }
  | Scope_begin of { op : string }
  | Scope_end of { op : string }

type event = { domain : int; region : int; site : string; kind : kind }

let persistence_kind (e : F.event) =
  let t = e.F.tag and off = e.F.b and len = e.F.c in
  if t = E.store then Some (Store { off; len; silent = e.F.d <> 0 })
  else if t = E.flush then Some (Flush { off; len })
  else if t = E.fence then Some Fence
  else if t = E.publish then
    Some (Publish { off; len; what = E.publish_name e.F.d })
  else if t = E.link_write then Some (Link_write { off; len })
  else if t = E.log_arm then Some (Log_arm { log = off })
  else if t = E.log_reset then Some (Log_reset { log = off })
  else if t = E.lock_acquire then Some (Lock_acquire { leaf = off })
  else if t = E.lock_release then Some (Lock_release { leaf = off })
  else if t = E.leaf_retired then Some (Leaf_retired { leaf = off })
  else if t = E.leaf_layout then Some (Leaf_layout { bytes = off })
  else if t = E.track_reset then Some Track_reset
  else if t = E.ver_begin then Some (Ver_begin { leaf = off })
  else if t = E.ver_end then Some (Ver_end { leaf = off })
  else None

let decode (records : F.event list) =
  let scopes : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let stack dom = Option.value ~default:[] (Hashtbl.find_opt scopes dom) in
  let site dom = match stack dom with s :: _ -> s | [] -> "" in
  let edge (e : F.event) update kind =
    Hashtbl.replace scopes e.F.dom (update (stack e.F.dom));
    Some { domain = e.F.dom; region = -1; site = site e.F.dom; kind }
  in
  List.filter_map
    (fun (e : F.event) ->
      if e.F.tag = E.op_begin then
        let op = E.op_name e.F.a in
        edge e (List.cons op) (Scope_begin { op })
      else if e.F.tag = E.op_end && e.F.c >= 0 then
        edge e
          (function _ :: tl -> tl | [] -> [])
          (Scope_end { op = E.op_name e.F.a })
      else
        Option.map
          (fun kind ->
            { domain = e.F.dom; region = e.F.a; site = site e.F.dom; kind })
          (persistence_kind e))
    records
  |> Array.of_list

let load path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let d = F.of_json (Obs.Json.parse s) in
  (decode d.F.events, d.F.dropped)
