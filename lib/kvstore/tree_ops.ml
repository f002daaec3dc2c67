type t = {
  name : string;
  insert : string -> int -> (bool, [ `Out_of_space ]) result;
  update : string -> int -> (bool, [ `Out_of_space ]) result;
  find : string -> int option;
  delete : string -> bool;
  concurrent : bool;
  htm_stats : unit -> (string * int) list;
}

(** The cache index over any variable-key tree; [name] labels the
    backend in reports. *)
let of_tree (type a) ~name ~concurrent
    (module T : Fptree.Tree_intf.VAR with type t = a) (tr : a) =
  {
    name;
    insert = (fun k v -> T.try_insert tr k v);
    update = (fun k v -> T.try_update tr k v);
    find = (fun k -> T.find tr k);
    delete = (fun k -> T.delete tr k);
    concurrent;
    htm_stats = (fun () -> T.htm_stats tr);
  }

let of_fptree_concurrent tr =
  of_tree ~name:"FPTreeC" ~concurrent:true (module Fptree.Var) tr

(** The vanilla-memcached stand-in: a plain DRAM hash table behind a
    bucket-style lock. *)
let of_hashmap () =
  let h : (string, int) Hashtbl.t = Hashtbl.create (1 lsl 16) in
  let m = Mutex.create () in
  let with_m f = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) f in
  {
    name = "HashMap";
    insert =
      (fun k v ->
        with_m (fun () ->
            if Hashtbl.mem h k then Ok false
            else begin
              Hashtbl.replace h k v;
              Ok true
            end));
    update =
      (fun k v ->
        with_m (fun () ->
            if Hashtbl.mem h k then begin
              Hashtbl.replace h k v;
              Ok true
            end
            else Ok false));
    find = (fun k -> with_m (fun () -> Hashtbl.find_opt h k));
    delete =
      (fun k ->
        with_m (fun () ->
            if Hashtbl.mem h k then begin
              Hashtbl.remove h k;
              true
            end
            else false));
    concurrent = true;
    htm_stats = (fun () -> []);
  }
