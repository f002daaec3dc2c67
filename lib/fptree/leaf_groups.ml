(* Amortized leaf-group allocation (Section 4.3, Algorithms 10–13):
   leaves are carved out of [group_size]-leaf blocks that form a
   persistent linked list anchored in the descriptor, and a volatile
   pool hands out the free ones.  Two micro-logs (get-leaf and
   free-leaf) make the group list's updates crash-consistent. *)

module Region = Scm.Region
module Pptr = Pmem.Pptr
module D = Descriptor

(* Node of the volatile free-leaf pool: an intrusive circular
   doubly-linked list with a sentinel, so that [free_group] can evict
   one group's leaves in O(group_size) instead of filtering the whole
   pool, while keeping the exact LIFO order of the original list. *)
type free_node = {
  fl_leaf : int;
  mutable fl_prev : free_node;
  mutable fl_next : free_node;
}

type t = {
  region : Region.t;
  alloc : Pmem.Palloc.t;
  meta : int;
  config : D.config;
  layout : Layout.t;
  list : D.plist;
  getleaf_log : Microlog.t;
  freeleaf_log : Microlog.t;
  free_head : free_node;                  (* sentinel of the free-leaf pool *)
  mutable n_free : int;                   (* pool size, maintained *)
  free_nodes : (int, free_node) Hashtbl.t; (* leaf off -> pool node *)
  leaf_group : (int, int) Hashtbl.t;      (* leaf off -> group off *)
  group_free : (int, int ref) Hashtbl.t;  (* group off -> #free leaves *)
}

let create (ctx : Keys.ctx) ~meta config layout =
  let region = ctx.Keys.region in
  let rec s = { fl_leaf = -1; fl_prev = s; fl_next = s } in
  {
    region; alloc = ctx.Keys.alloc; meta; config; layout;
    list = D.group_list region ~meta config layout;
    getleaf_log = Microlog.make region (D.log_off config ~meta D.Get_leaf);
    freeleaf_log = Microlog.make region (D.log_off config ~meta D.Free_leaf);
    free_head = s;
    n_free = 0;
    free_nodes = Hashtbl.create 64;
    leaf_group = Hashtbl.create 64;
    group_free = Hashtbl.create 16;
  }

let pptr_of t off = Pptr.of_region t.region ~off
let group_leaf t g i = D.group_leaf t.layout g i

let read_group_tail t = Pptr.read t.region (t.meta + D.meta_group_tail)
let write_group_tail t p = D.write_anchor t.region (t.meta + D.meta_group_tail) p

let register_group t g =
  Hashtbl.replace t.group_free g (ref 0);
  for i = t.config.D.group_size - 1 downto 0 do
    let l = group_leaf t g i in
    Hashtbl.replace t.leaf_group l g
  done

(* Push at the head: same LIFO discipline as the original cons list. *)
let add_free_leaf t l =
  let s = t.free_head in
  let n = { fl_leaf = l; fl_prev = s; fl_next = s.fl_next } in
  s.fl_next.fl_prev <- n;
  s.fl_next <- n;
  Hashtbl.replace t.free_nodes l n;
  t.n_free <- t.n_free + 1;
  incr (Hashtbl.find t.group_free (Hashtbl.find t.leaf_group l))

let unlink_free_node t n =
  n.fl_prev.fl_next <- n.fl_next;
  n.fl_next.fl_prev <- n.fl_prev;
  Hashtbl.remove t.free_nodes n.fl_leaf;
  t.n_free <- t.n_free - 1

(* Append group [g], its next pointer cleared first, to the persistent
   group list; idempotent so that recovery can redo it. *)
let link_group t g =
  let gp = pptr_of t g in
  let sc = Scope.enter Obs.Attrib.comp_tree_meta in
  Pptr.reset_committed t.region g; (* group.next = null *)
  Scope.leave sc;
  let tail = read_group_tail t in
  if Pptr.is_null tail then D.write_anchor t.region t.list.D.head gp
  else t.list.D.set_next tail.Pptr.off gp;
  write_group_tail t gp

(* GetLeaf (Algorithm 10): take a free leaf, allocating and linking a
   fresh group of [group_size] leaves when the pool is empty. *)
let get_leaf t =
  if t.n_free = 0 then begin
    let log = t.getleaf_log in
    Pmem.Palloc.alloc t.alloc ~into:(Microlog.fst_loc log) t.list.D.span;
    let g = (Microlog.read_fst log).Pptr.off in
    link_group t g;
    Microlog.reset log;
    register_group t g;
    for i = 0 to t.config.D.group_size - 1 do
      add_free_leaf t (group_leaf t g i)
    done
  end;
  let n = t.free_head.fl_next in
  assert (n != t.free_head);
  unlink_free_node t n;
  let l = n.fl_leaf in
  decr (Hashtbl.find t.group_free (Hashtbl.find t.leaf_group l));
  l

let recover_getleaf t =
  let log = t.getleaf_log in
  if not (Microlog.is_idle log) then begin
    let g = (Microlog.read_fst log).Pptr.off in
    let tail = read_group_tail t in
    if Pptr.is_null tail || tail.Pptr.off <> g then begin
      (* Crashed before the group was fully linked: redo. *)
      link_group t g
    end;
    Microlog.reset log
  end

(* Follow the group list from the descriptor: [f g] on each group.  A
   link the walk will not follow (dangling, or closing a cycle) ends
   recovery with [Failure "Tree.recover: …"]. *)
let iter_groups t f =
  ignore
    (D.walk ~bad:(D.refuse t.list) t.list (fun ~cell:_ ~next g -> f g; next))

(* Unlink and deallocate a fully-free group (Algorithm 12). *)
let free_group t g =
  (* Evict this group's leaves from the pool in O(group_size); unlinking
     preserves the relative order of the survivors, exactly like the
     List.filter this replaces. *)
  for i = 0 to t.config.D.group_size - 1 do
    let l = group_leaf t g i in
    Option.iter (unlink_free_node t) (Hashtbl.find_opt t.free_nodes l);
    Hashtbl.remove t.leaf_group l
  done;
  Hashtbl.remove t.group_free g;
  let log = t.freeleaf_log in
  let prev = D.unlink t.list log g in
  if (read_group_tail t).Pptr.off = g then write_group_tail t prev;
  Pmem.Palloc.free t.alloc ~from:(Microlog.fst_loc log);
  Microlog.reset log

(* A crash-cut group free leaves the tail as it was; {!rebuild}
   derives it again. *)
let recover t =
  recover_getleaf t;
  D.redo_unlink t.list t.freeleaf_log ~release:(fun from ->
      Pmem.Palloc.free t.alloc ~from)

(* FreeLeaf (Algorithm 12): return a leaf to the volatile pool and
   deallocate its group once fully free. *)
let free_leaf t l =
  Obs.Flight.leaf_retired ~region:(Region.id t.region) ~leaf:l;
  add_free_leaf t l;
  let g = Hashtbl.find t.leaf_group l in
  if !(Hashtbl.find t.group_free g) = t.config.D.group_size then free_group t g

let free_idle_groups t =
  let full =
    Hashtbl.fold
      (fun g n acc -> if !n = t.config.D.group_size then g :: acc else acc)
      t.group_free []
  in
  List.iter (fun g -> free_group t g) full

let rebuild t ~in_use =
  let s = t.free_head in
  s.fl_next <- s;
  s.fl_prev <- s;
  Hashtbl.reset t.free_nodes;
  t.n_free <- 0;
  Hashtbl.reset t.leaf_group;
  Hashtbl.reset t.group_free;
  let last = ref Pptr.null in
  iter_groups t (fun g ->
      last := pptr_of t g;
      register_group t g;
      for i = 0 to t.config.D.group_size - 1 do
        let l = group_leaf t g i in
        if not (in_use l) then add_free_leaf t l
      done);
  (* The tail is derived from the walk, not trusted: a crash-cut group
     free or a damaged image can leave it naming another block. *)
  if not (Pptr.equal (read_group_tail t) !last) then write_group_tail t !last

let dram_bytes t = (t.n_free * 8) + (Hashtbl.length t.leaf_group * 16)

let logs_idle t =
  Microlog.is_idle t.getleaf_log && Microlog.is_idle t.freeleaf_log
