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

let read_group_head t = Pptr.read t.region (t.meta + D.meta_group_head)
let write_group_head t p = D.write_anchor t.region (t.meta + D.meta_group_head) p
let read_group_tail t = Pptr.read t.region (t.meta + D.meta_group_tail)
let write_group_tail t p = D.write_anchor t.region (t.meta + D.meta_group_tail) p

let group_next t g = Pptr.read t.region g
let write_group_next t g p = D.write_anchor t.region g p

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

(* Append group [g] to the persistent group list; idempotent so that
   recovery can redo it. *)
let link_group t g =
  let gp = pptr_of t g in
  let tail = read_group_tail t in
  if Pptr.is_null tail then write_group_head t gp
  else write_group_next t tail.Pptr.off gp;
  write_group_tail t gp

(* GetLeaf (Algorithm 10): take a free leaf, allocating and linking a
   fresh group of [group_size] leaves when the pool is empty. *)
let get_leaf t =
  if t.n_free = 0 then begin
    let log = t.getleaf_log in
    Pmem.Palloc.alloc t.alloc ~into:(Microlog.fst_loc log)
      (D.group_bytes t.config t.layout);
    let g = (Microlog.read_fst log).Pptr.off in
    let sc = Scope.enter Obs.Attrib.comp_tree_meta in
    Pptr.reset_committed t.region g; (* group.next = null *)
    Scope.leave sc;
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
      let sc = Scope.enter Obs.Attrib.comp_tree_meta in
      Pptr.reset_committed t.region g;
      Scope.leave sc;
      link_group t g
    end;
    Microlog.reset log
  end

(* Recompute the persistent group-list tail by walking from the head
   (recovery helper for group frees; idempotent). *)
let fix_group_tail t =
  let rec last p =
    if Pptr.is_null p then Pptr.null
    else
      let next = group_next t p.Pptr.off in
      if Pptr.is_null next then p else last next
  in
  let tail = last (read_group_head t) in
  if not (Pptr.equal (read_group_tail t) tail) then write_group_tail t tail

(* Unlink and deallocate a fully-free group (Algorithm 12). *)
let free_group t g =
  (* Evict this group's leaves from the pool in O(group_size); unlinking
     preserves the relative order of the survivors, exactly like the
     List.filter this replaces. *)
  for i = 0 to t.config.D.group_size - 1 do
    let l = group_leaf t g i in
    (match Hashtbl.find_opt t.free_nodes l with
    | Some n -> unlink_free_node t n
    | None -> ());
    Hashtbl.remove t.leaf_group l
  done;
  Hashtbl.remove t.group_free g;
  let log = t.freeleaf_log in
  Microlog.set_fst log (pptr_of t g);
  let head = read_group_head t in
  (if head.Pptr.off = g then write_group_head t (group_next t g)
   else begin
     (* find the predecessor group *)
     let rec pred p =
       let next = group_next t p.Pptr.off in
       if next.Pptr.off = g then p else pred next
     in
     let prev = pred head in
     Microlog.set_snd log prev;
     write_group_next t prev.Pptr.off (group_next t g)
   end);
  if (read_group_tail t).Pptr.off = g then fix_group_tail t;
  Pmem.Palloc.free t.alloc ~from:(Microlog.fst_loc log);
  Microlog.reset log

let recover_freeleaf t =
  let log = t.freeleaf_log in
  if not (Microlog.is_idle log) then begin
    let gp = Microlog.read_fst log in
    let g = gp.Pptr.off in
    let prev = Microlog.read_snd log in
    let head = read_group_head t in
    let finish () =
      fix_group_tail t;
      Pmem.Palloc.free t.alloc ~from:(Microlog.fst_loc log);
      Microlog.reset log
    in
    if not (Pptr.is_null prev) then begin
      write_group_next t prev.Pptr.off (group_next t g);
      finish ()
    end
    else if (not (Pptr.is_null head)) && head.Pptr.off = g then begin
      write_group_head t (group_next t g);
      finish ()
    end
    else if Pptr.equal (group_next t g) head then finish ()
    else Microlog.reset log
  end

let recover t =
  recover_getleaf t;
  recover_freeleaf t

(* FreeLeaf (Algorithm 12): return a leaf to the volatile pool and
   deallocate its group once fully free. *)
let free_leaf t l =
  if Scm.Pmtrace.enabled () then
    Scm.Pmtrace.leaf_retired ~region:(Region.id t.region) ~leaf:l;
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

let iter_groups t f =
  let rec scan p =
    if not (Pptr.is_null p) then begin
      f p.Pptr.off;
      scan (group_next t p.Pptr.off)
    end
  in
  scan (read_group_head t)

let rebuild t ~in_use =
  let s = t.free_head in
  s.fl_next <- s;
  s.fl_prev <- s;
  Hashtbl.reset t.free_nodes;
  t.n_free <- 0;
  Hashtbl.reset t.leaf_group;
  Hashtbl.reset t.group_free;
  iter_groups t (fun g ->
      register_group t g;
      for i = 0 to t.config.D.group_size - 1 do
        let l = group_leaf t g i in
        if not (in_use l) then add_free_leaf t l
      done)

let dram_bytes t = (t.n_free * 8) + (Hashtbl.length t.leaf_group * 16)

let logs_idle t =
  Microlog.is_idle t.getleaf_log && Microlog.is_idle t.freeleaf_log
