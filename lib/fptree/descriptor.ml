(* The persistent tree descriptor: the configuration words, the list
   anchors and the micro-log slots every FPTree image starts with, and
   the leaf and group geometry they imply.  Key-representation
   independent, so offline tools (fsck) parse an image without the
   tree functor. *)

module Region = Scm.Region
module Pptr = Pmem.Pptr

type config = {
  m : int;
  value_bytes : int;
  inner_keys : int;
  fingerprints : bool;
  split_arrays : bool;
  use_groups : bool;
  group_size : int;
  n_split_logs : int;
  n_delete_logs : int;
  htm_retries : int;
  checksums : bool;
}

let meta_status = 0
let meta_m = 8
let meta_value_bytes = 16
let meta_key_kind = 24
let meta_flags = 32
let meta_n_split = 40
let meta_n_delete = 48
let meta_group_size = 56
let meta_head = 64
let meta_group_head = 80
let meta_group_tail = 96
let meta_logs = 128

type log_slot = Split of int | Delete of int | Get_leaf | Free_leaf

let n_log_slots cfg = cfg.n_split_logs + cfg.n_delete_logs + 2

let meta_bytes cfg = meta_logs + (n_log_slots cfg * Microlog.slot_bytes)

let log_off cfg ~meta slot =
  let i =
    match slot with
    | Split i -> i
    | Delete i -> cfg.n_split_logs + i
    | Get_leaf -> cfg.n_split_logs + cfg.n_delete_logs
    | Free_leaf -> cfg.n_split_logs + cfg.n_delete_logs + 1
  in
  meta + meta_logs + (i * Microlog.slot_bytes)

let log_slots cfg =
  List.init cfg.n_split_logs (fun i -> Split i)
  @ List.init cfg.n_delete_logs (fun i -> Delete i)
  @ [ Get_leaf; Free_leaf ]

let flags_of cfg =
  (if cfg.fingerprints then 1 else 0)
  lor (if cfg.split_arrays then 2 else 0)
  lor (if cfg.use_groups then 4 else 0)
  lor (if cfg.checksums then 8 else 0)

let key_cell_bytes_of_kind kind = if kind = 0 then 8 else Pptr.size_bytes

let layout_of ~key_cell_bytes cfg =
  let l =
    Layout.make ~m:cfg.m ~key_bytes:key_cell_bytes ~value_bytes:cfg.value_bytes
      ~fingerprints:cfg.fingerprints ~split_arrays:cfg.split_arrays
  in
  if cfg.checksums then Layout.with_checksums l else l

(* A group is a 64-byte header (its persistent next pointer) followed
   by [group_size] cache-line-aligned leaves. *)
let leaf_span layout = Scm.Cacheline.align_up layout.Layout.bytes 64
let group_bytes cfg layout = 64 + (cfg.group_size * leaf_span layout)
let group_leaf layout g i = g + 64 + (i * leaf_span layout)

let read_word r ~meta off = Int64.to_int (Region.read_int64 r (meta + off))
let initialized r ~meta = read_word r ~meta meta_status = 1
let key_kind r ~meta = read_word r ~meta meta_key_kind

let config_of_meta region meta ~avail base_cfg =
  let w off = read_word region ~meta off in
  let kind = w meta_key_kind and flags = w meta_flags in
  let cfg =
    { base_cfg with
      m = w meta_m;
      value_bytes = w meta_value_bytes;
      fingerprints = flags land 1 <> 0;
      split_arrays = flags land 2 <> 0;
      use_groups = flags land 4 <> 0;
      checksums = flags land 8 <> 0;
      n_split_logs = w meta_n_split;
      n_delete_logs = w meta_n_delete;
      group_size = w meta_group_size;
    }
  in
  let size = Region.size region in
  (* Microlog.Pool's slot range *)
  let logs_ok n = n >= 1 && n <= 62 in
  let leaf_span () =
    leaf_span (layout_of ~key_cell_bytes:(key_cell_bytes_of_kind kind) cfg)
  in
  if cfg.m < 2 || cfg.m > 64 then Error "leaf capacity m"
  else if cfg.value_bytes < 8 || cfg.value_bytes mod 8 <> 0
          || cfg.value_bytes > size
  then Error "value width"
  else if kind <> 0 && kind <> 1 then Error "key kind"
  else if flags land lnot 15 <> 0 then Error "flags"
  else if not (logs_ok cfg.n_split_logs && logs_ok cfg.n_delete_logs) then
    Error "micro-log counts"
  else if meta_bytes cfg > avail then Error "descriptor larger than its block"
  else if leaf_span () > size then Error "leaf larger than the region"
  else if cfg.use_groups
          && (cfg.group_size < 1 || cfg.group_size > (size - 64) / leaf_span ())
  then Error "group size"
  else Ok cfg

(* The seven configuration words live in one contiguous span
   ([meta_m, meta_group_size]) with no ordering constraints among
   them — nothing reads them until [meta_status] (written last, with
   its own persist) flips to 1.  Batching them under a single persist
   replaces 7 flush+fence pairs with 1: a batchable-flush finding of
   the pmcheck analyzer on the creation path. *)
let write_config r ~meta ~kind cfg =
  let sc = Scope.enter Obs.Attrib.comp_tree_meta in
  let w off v = Region.write_int64_atomic r (meta + off) (Int64.of_int v) in
  w meta_m cfg.m;
  w meta_value_bytes cfg.value_bytes;
  w meta_key_kind kind;
  w meta_flags (flags_of cfg);
  w meta_n_split cfg.n_split_logs;
  w meta_n_delete cfg.n_delete_logs;
  w meta_group_size cfg.group_size;
  Scope.persist_in_scope r (meta + meta_m) (meta_group_size + 8 - meta_m);
  Scope.leave sc

let mark_initialized r ~meta =
  let sc = Scope.enter Obs.Attrib.comp_tree_meta in
  Region.write_int64_atomic r (meta + meta_status) 1L;
  Scope.persist_in_scope r (meta + meta_status) 8;
  Scope.leave sc

let write_anchor r cell p =
  let sc = Scope.enter Obs.Attrib.comp_tree_meta in
  Pptr.write_committed r cell p;
  Scope.leave sc

(* ---- the two persistent lists ----

   The leaf chain and the group list are one kind of list: a head cell
   in the descriptor and a next cell at a fixed offset in each node.
   They differ in how a node's next cell is overwritten: a leaf's with
   the logged 16-byte store of DeleteLeaf (only legal under an armed
   micro-log), a group header's with a committed publish. *)

type plist = {
  region : Region.t;
  what : string;
  head : int;
  next_cell : int;
  span : int;
  set_next : int -> Pptr.t -> unit;
}

let leaf_list r ~meta layout =
  { region = r; what = "leaf"; head = meta + meta_head;
    next_cell = layout.Layout.next_off; span = layout.Layout.bytes;
    set_next = (fun leaf p -> Layout.write_next_persist r ~leaf layout p) }

let group_list r ~meta cfg layout =
  { region = r; what = "group"; head = meta + meta_group_head; next_cell = 0;
    span = group_bytes cfg layout; set_next = write_anchor r }

let next l node = Pptr.read l.region (node + l.next_cell)

let refuse l ~cell p fault =
  Format.kasprintf failwith "Tree.recover: %s %s link %a at offset %d"
    (match fault with Pptr.Dangling -> "dangling" | Pptr.Revisit -> "repeated")
    l.what Pptr.pp p cell

let walk ?(ok = fun _ -> true) ~bad l visit =
  Pptr.walk l.region ~span:l.span ~next_cell:l.next_cell ~ok ~bad visit l.head

(* The node whose next cell names the non-head [node]. *)
let pred l node =
  let exception Found of int in
  match
    walk ~bad:(refuse l) l (fun ~cell ~next n ->
        if n = node then raise_notrace (Found (cell - l.next_cell)) else next)
  with
  | exception Found p -> p
  | _ -> invalid_arg "Descriptor.unlink: node not on its list"

(* DeleteLeaf (Algorithm 6) and FreeLeaf's group unlink (Algorithm 12):
   arm [log] with the node, then with its predecessor unless it is the
   head, and move the head or the predecessor's next cell past it. *)
let unlink l log ?prev node =
  let np = Pptr.of_region l.region ~off:node in
  Microlog.set_fst log np;
  if Pptr.equal (Pptr.read l.region l.head) np then
    (write_anchor l.region l.head (next l node); Pptr.null)
  else begin
    let p = match prev with Some f -> f () | None -> pred l node in
    let pp = Pptr.of_region l.region ~off:p in
    Microlog.set_snd log pp;
    l.set_next p (next l node);
    pp
  end

(* Their recovery (Algorithms 7 and 13): redo whichever step the crash
   cut, release the node from the log unless the unlink never
   started, and retire the log. *)
let redo_unlink l log ~release =
  if not (Microlog.is_idle log) then begin
    let np = Microlog.read_fst log in
    let node = np.Pptr.off in
    let prev = Microlog.read_snd log in
    let head = Pptr.read l.region l.head in
    let started =
      if not (Pptr.is_null prev) then (* the predecessor was logged *)
        (l.set_next prev.Pptr.off (next l node); true)
      else if Pptr.equal np head then (* the node is still the head *)
        (write_anchor l.region l.head (next l node); true)
      else (* the head already moved past it, or nothing started *)
        Pptr.equal (next l node) head
    in
    if started then release (Microlog.fst_loc log);
    Microlog.reset log
  end
