module Region = Scm.Region
module Pptr = Pmem.Pptr
module Spec = Htm.Speculative_lock
module Nv = Htm.Node_versions

(* persistent leaf layout *)
let off_count = 0 (* 8B p-atomic commit word *)
let off_next = 8 (* 16B pptr *)
let entries_off = 32

let flag_live = 1L
let flag_dead = 2L

module Make (K : Fptree.Keys.KEY) = struct
  type key = K.t

  type leaf = {
    off : int; (* payload offset of the leaf in SCM *)
    lock : bool Htm.Sched.atom;
        (* via Htm.Sched.Opaque: this baseline is not model-checked,
           so its private lock words are one atomic step to mcheck *)
  }

  type pln = {
    mutable n : int;
    seps : K.t array; (* min key of each child leaf *)
    leaves : leaf array;
  }

  type t = {
    ctx : Fptree.Keys.ctx;
    meta : int;
    cap : int;               (* entries per leaf *)
    pln_cap : int;           (* leaves per PLN *)
    value_bytes : int;
    entry_bytes : int;
    spec : Spec.t;
    dir : Nv.cell;
        (* version of the whole PLN directory: optimistic sections
           observe it, the one structural writer (split / rebuild)
           bumps it *)
    mutable plns : pln array;     (* sorted by seps.(0) *)
    mutable pln_mins : K.t array; (* pln_mins.(i) = plns.(i).seps.(0) *)
    mutable n_pln : int;
    mutable rebuilds : int;
    mutable key_probes : int;
  }

  let name = "NV-Tree"

  let region t = t.ctx.Fptree.Keys.region
  let alloc t = t.ctx.Fptree.Keys.alloc

  (* meta block: head pptr (committed) + two scratch pptr cells used
     for leaf allocation (the NV-Tree does not micro-log allocations;
     the paper calls out the resulting leak-proneness). *)
  let meta_head = 0
  let meta_scratch1 = 16
  let meta_scratch2 = 32
  let meta_bytes = 64

  (* Entries are padded to a power of two so they never straddle a
     cache line (the paper's "leaf entries cache-line-aligned", which
     costs the NV-Tree ~1.6x the FPTree's SCM for the same data). *)
  let entry_bytes_of ~value_bytes =
    let raw = 8 + K.cell_bytes + value_bytes in
    let rec pow2 p = if p >= raw || p >= 64 then p else pow2 (p * 2) in
    if raw > 64 then Scm.Cacheline.align_up raw 64 else pow2 16

  let leaf_bytes t = entries_off + (t.cap * t.entry_bytes)

  let entry_off t leaf i = leaf + entries_off + (i * t.entry_bytes)
  let flag_off e = e
  let key_cell_off e = e + 8
  let value_off e = e + 8 + K.cell_bytes

  let read_count t leaf = Int64.to_int (Region.read_int64 (region t) (leaf + off_count))

  let commit_count t leaf c =
    Region.write_int64_atomic (region t) (leaf + off_count) (Int64.of_int c);
    Region.persist (region t) (leaf + off_count) 8

  let read_next t leaf = Pptr.read (region t) (leaf + off_next)

  let write_next_persist t leaf p =
    Pptr.write (region t) (leaf + off_next) p;
    Region.persist (region t) (leaf + off_next) Pptr.size_bytes

  let read_head t = Pptr.read (region t) (t.meta + meta_head)
  let write_head t p = Pptr.write_committed (region t) (t.meta + meta_head) p

  let alloc_leaf t ~scratch =
    let loc = Pmem.Pptr.Loc.make (region t) (t.meta + scratch) in
    Pmem.Palloc.alloc (alloc t) ~into:loc (leaf_bytes t);
    let off = (Pmem.Pptr.Loc.read loc).Pptr.off in
    Region.fill (region t) off (leaf_bytes t) '\000';
    Region.persist (region t) off (leaf_bytes t);
    (* The scratch cell is reused: drop the reference (leak-prone by
       design, as in the original NV-Tree). *)
    Pmem.Pptr.Loc.write loc Pptr.null;
    off

  (* ---- DRAM directory ---- *)

  let new_pln t =
    { n = 0; seps = Array.make t.pln_cap K.dummy;
      leaves = Array.make t.pln_cap { off = -1; lock = Htm.Sched.Opaque.make false } }

  (* last index with arr.(i) <= k (arrays sorted ascending, n used) *)
  let upper_index cmp arr n k =
    let lo = ref 0 and hi = ref n in
    (* first index with arr.(i) > k *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cmp arr.(mid) k <= 0 then lo := mid + 1 else hi := mid
    done;
    max 0 (!lo - 1)

  let find_pln t k = t.plns.(upper_index K.compare t.pln_mins t.n_pln k)

  let find_leaf t k =
    let p = find_pln t k in
    let i = upper_index K.compare p.seps p.n k in
    (p, i, p.leaves.(i))

  (* ---- leaf scans ---- *)

  (* Reverse scan: Some (value, live) of the most recent version. *)
  let scan_leaf t leaf k =
    let r = region t in
    let c = min (read_count t leaf.off) t.cap in
    let rec go i =
      if i < 0 then None
      else begin
        let e = entry_off t leaf.off i in
        if Scm.Config.current.Scm.Config.stats then t.key_probes <- t.key_probes + 1;
        if K.matches t.ctx ~off:(key_cell_off e) k then
          let live = Region.read_int64 r (flag_off e) = flag_live in
          let v = Int64.to_int (Region.read_int64 r (value_off e)) in
          Some (v, live)
        else go (i - 1)
      end
    in
    go (c - 1)

  (* Latest version of every key in the leaf, live entries only,
     as (key, value, entry index) - used by splits and count. *)
  let live_entries t leaf_off =
    let r = region t in
    let c = min (read_count t leaf_off) t.cap in
    let seen = Hashtbl.create (2 * c) in
    let out = ref [] in
    for i = c - 1 downto 0 do
      let e = entry_off t leaf_off i in
      let k = K.read t.ctx ~off:(key_cell_off e) in
      if not (Hashtbl.mem seen k) then begin
        Hashtbl.replace seen k ();
        if Region.read_int64 r (flag_off e) = flag_live then
          out := (k, Int64.to_int (Region.read_int64 r (value_off e)), i) :: !out
      end
    done;
    !out

  (* ---- appends ---- *)

  let append_entry t leaf_off slot ~flag k v =
    let r = region t in
    let e = entry_off t leaf_off slot in
    Region.write_int64 r (flag_off e) flag;
    K.write t.ctx ~off:(key_cell_off e) k;
    Region.write_int64 r (value_off e) (Int64.of_int v);
    if t.value_bytes > 8 then
      Region.fill r (value_off e + 8) (t.value_bytes - 8) '\000';
    Region.persist r e t.entry_bytes;
    commit_count t leaf_off (slot + 1)

  (* ---- splits and rebuilds (under the writer lock) ---- *)

  let rebuild_from_pairs t (all : (K.t * leaf) array) =
    t.rebuilds <- t.rebuilds + 1;
    let fill = max 1 (t.pln_cap / 2) in
    let groups = (Array.length all + fill - 1) / fill in
    let plns =
      Array.init (max 1 groups) (fun g ->
          let p = new_pln t in
          let base = g * fill in
          let cnt = min fill (Array.length all - base) in
          for i = 0 to cnt - 1 do
            p.seps.(i) <- fst all.(base + i);
            p.leaves.(i) <- snd all.(base + i)
          done;
          p.n <- max cnt 0;
          p)
    in
    t.plns <- plns;
    t.n_pln <- Array.length plns;
    t.pln_mins <- Array.map (fun p -> p.seps.(0)) plns

  let all_leaves t =
    let acc = ref [] in
    for gi = t.n_pln - 1 downto 0 do
      let p = t.plns.(gi) in
      for i = p.n - 1 downto 0 do
        acc := (p.seps.(i), p.leaves.(i)) :: !acc
      done
    done;
    !acc

  (* Replace leaf (pln,i) by the given new (sep,leaf) pairs. *)
  let replace_in_directory t pln i repl =
    match repl with
    | [ (s, l) ] ->
      pln.seps.(i) <- s;
      pln.leaves.(i) <- l
    | [ (s1, l1); (s2, l2) ] ->
      if pln.n < t.pln_cap then begin
        Array.blit pln.seps (i + 1) pln.seps (i + 2) (pln.n - i - 1);
        Array.blit pln.leaves (i + 1) pln.leaves (i + 2) (pln.n - i - 1);
        pln.seps.(i) <- s1;
        pln.leaves.(i) <- l1;
        pln.seps.(i + 1) <- s2;
        pln.leaves.(i + 1) <- l2;
        pln.n <- pln.n + 1
      end
      else begin
        (* PLN overflow: full rebuild of the inner structure. *)
        let all =
          all_leaves t
          |> List.concat_map (fun (s, l) ->
                 if l == pln.leaves.(i) then repl else [ (s, l) ])
        in
        (* NB: the replaced leaf appears once in the directory *)
        rebuild_from_pairs t (Array.of_list all)
      end
    | _ -> assert false

  (* The old leaf [victim] (at directory position pln.(i)) is full:
     compact its live entries into one or two fresh leaves. *)
  let split_leaf t pln i (victim : leaf) prev_leaf =
    let live = live_entries t victim.off in
    let live = List.sort (fun (a, _, _) (b, _, _) -> K.compare a b) live in
    let n_live = List.length live in
    let make_leaf entries =
      let off = alloc_leaf t ~scratch:meta_scratch1 in
      List.iteri
        (fun j (k, v, _) -> append_entry t off j ~flag:flag_live k v)
        entries;
      { off; lock = Htm.Sched.Opaque.make false }
    in
    let old_sep = pln.seps.(i) in
    let repl =
      if n_live > t.cap / 2 && n_live >= 2 then begin
        let rec take n = function
          | [] -> ([], [])
          | x :: tl when n > 0 ->
            let a, b = take (n - 1) tl in
            (x :: a, b)
          | l -> ([], l)
        in
        let lo, hi = take (n_live / 2) live in
        let la = make_leaf lo and lb = make_leaf hi in
        let sep_b = match hi with (k, _, _) :: _ -> k | [] -> assert false in
        [ (old_sep, la); (sep_b, lb) ]
      end
      else [ (old_sep, make_leaf live) ]
    in
    (* link the replacements into the persistent leaf list *)
    let first = snd (List.hd repl) in
    let last = snd (List.nth repl (List.length repl - 1)) in
    (match repl with
    | [ _; (_, b) ] -> write_next_persist t first.off (Pptr.of_region (region t) ~off:b.off)
    | _ -> ());
    write_next_persist t last.off (read_next t victim.off);
    (match prev_leaf with
    | None -> write_head t (Pptr.of_region (region t) ~off:first.off)
    | Some p -> write_next_persist t p.off (Pptr.of_region (region t) ~off:first.off));
    (* free the victim (its live keys were copied) *)
    let loc = Pmem.Pptr.Loc.make (region t) (t.meta + meta_scratch2) in
    Pmem.Pptr.Loc.write loc (Pptr.of_region (region t) ~off:victim.off);
    (if not K.inline then
       (* free dead key blocks (live ones were re-allocated by copy) *)
       let c = min (read_count t victim.off) t.cap in
       for j = 0 to c - 1 do
         let e = entry_off t victim.off j in
         let cell = key_cell_off e in
         match K.cell_ref t.ctx ~off:cell with
         | Some p when not (Pptr.is_null p) -> K.dealloc t.ctx ~off:cell
         | _ -> ()
       done);
    Pmem.Palloc.free (alloc t) ~from:loc;
    replace_in_directory t pln i repl

  (* Previous leaf in directory order, for linked-list maintenance.
     The PLN is located by identity (separator keys may repeat). *)
  let prev_leaf_of t pln i =
    if i > 0 then Some pln.leaves.(i - 1)
    else begin
      let gi = ref (-1) in
      for g = 0 to t.n_pln - 1 do
        if t.plns.(g) == pln then gi := g
      done;
      if !gi > 0 then
        let q = t.plns.(!gi - 1) in
        Some q.leaves.(q.n - 1)
      else None
    end

  (* ---- base operations (Selective-Concurrency style protocol) ---- *)

  let try_lock l = Htm.Sched.Opaque.cas l.lock false true
  let unlock l = Htm.Sched.Opaque.set l.lock false

  (* Sections read the directory with [dir] in the read set and take
     leaf locks (or observe them free) inside it.  Under the fallback
     mutex the structural writer is excluded, so a run there fails
     only on a held leaf lock.  The leaf locks are opaque to the model
     checker, so a held one is a plain [Spec.Abort], naming nothing to
     park on. *)
  module Find_section = Spec.Section (struct
    type ctx = t
    type arg = K.t
    type aux = unit
    type res = int option

    let lock t = t.spec
    let committed _ = ()

    (* A leaf lock held around the scan is an explicit abort. *)
    let probe t k =
      let _, _, leaf = find_leaf t k in
      if Htm.Sched.Opaque.get leaf.lock then raise Spec.Abort;
      let r = scan_leaf t leaf k in
      if Htm.Sched.Opaque.get leaf.lock then raise Spec.Abort;
      match r with Some (v, true) -> Some v | _ -> None

    let body t k () rs =
      Nv.observe rs t.dir;
      let r = probe t k in
      if Nv.validate rs then r else raise Nv.Conflict
  end)

  let find t k = Find_section.run t k ()

  module Lock_section = Spec.Section (struct
    type ctx = t
    type arg = K.t
    type aux = unit
    type res = pln * int * leaf

    let lock t = t.spec
    let committed _ = ()

    let body t k () rs =
      Nv.observe rs t.dir;
      let (_, _, leaf) as r = find_leaf t k in
      if not (try_lock leaf) then raise Spec.Abort;
      if Nv.validate rs then r
      else begin
        unlock leaf;
        raise Nv.Conflict
      end
  end)

  let lock_leaf_for t k = Lock_section.run t k ()

  module Range_start_section = Spec.Section (struct
    type ctx = t
    type arg = K.t
    type aux = unit
    type res = leaf

    let lock t = t.spec
    let committed _ = ()

    let body t lo () rs =
      Nv.observe rs t.dir;
      let _, _, leaf = find_leaf t lo in
      if Nv.validate rs then leaf else raise Nv.Conflict
  end)

  (* Append [mk_entry] to the leaf holding [k], splitting first if the
     leaf is full.  Returns false if [precond] fails on the current
     live value.  An exception from the split or the append (arena
     exhaustion: a split's fresh leaves, a variable key's block) leaves
     the entry uncommitted and releases the leaf lock before it
     propagates; a held lock would stall every later op on the leaf. *)
  let rec append_op t k ~precond ~flag v =
    let pln, i, leaf = lock_leaf_for t k in
    let current = scan_leaf t leaf k in
    let live = match current with Some (_, l) -> l | None -> false in
    if not (precond live) then begin
      unlock leaf;
      false
    end
    else begin
      let c = read_count t leaf.off in
      if c >= t.cap then begin
        ignore (pln, i);
        (* Split under the structural writer lock; the directory
           position is re-resolved inside it because a concurrent
           rebuild may have replaced the PLN array (the leaf itself
           cannot have moved: we hold its lock). *)
        (match
           Spec.with_write t.spec (fun () ->
               Nv.begin_write t.dir;
               Fun.protect
                 ~finally:(fun () -> Nv.end_write t.dir)
                 (fun () ->
                   let pln', i', leaf' = find_leaf t k in
                   assert (leaf' == leaf);
                   let prev = prev_leaf_of t pln' i' in
                   split_leaf t pln' i' leaf prev))
         with
        | () -> unlock leaf
        | exception e ->
          unlock leaf;
          raise e);
        append_op t k ~precond ~flag v
      end
      else
        match append_entry t leaf.off c ~flag k v with
        | () ->
          unlock leaf;
          true
        | exception e ->
          unlock leaf;
          raise e
    end

  let insert t k v = append_op t k ~precond:(fun live -> not live) ~flag:flag_live v
  let update t k v = append_op t k ~precond:(fun live -> live) ~flag:flag_live v
  let delete t k = append_op t k ~precond:(fun live -> live) ~flag:flag_dead 0
  let try_insert t k v = Fptree.Tree.guard_space (fun () -> insert t k v)
  let try_update t k v = Fptree.Tree.guard_space (fun () -> update t k v)

  let range t ~lo ~hi =
    if K.compare lo hi > 0 then []
    else begin
      let start = Range_start_section.run t lo () in
      let acc = ref [] in
      let rec walk off =
        let live = live_entries t off in
        let any_le_hi = ref (live = []) in
        List.iter
          (fun (k, v, _) ->
            if K.compare k hi <= 0 then begin
              any_le_hi := true;
              if K.compare lo k <= 0 then acc := (k, v) :: !acc
            end)
          live;
        if !any_le_hi then
          let next = read_next t off in
          if not (Pptr.is_null next) then walk next.Pptr.off
      in
      walk start.off;
      List.sort (fun (a, _) (b, _) -> K.compare a b) !acc
    end

  let count t =
    let n = ref 0 in
    let rec walk p =
      if not (Pptr.is_null p) then begin
        n := !n + List.length (live_entries t p.Pptr.off);
        walk (read_next t p.Pptr.off)
      end
    in
    walk (read_head t);
    !n

  let scm_bytes t = Pmem.Palloc.live_bytes (alloc t)

  let htm_stats t = Spec.stats_assoc t.spec

  let dram_bytes t =
    let per_pln = (t.pln_cap * (K.dram_bytes K.dummy + 16)) + 24 in
    (t.n_pln * per_pln) + (t.n_pln * (K.dram_bytes K.dummy + 8))

  let key_probes t = t.key_probes
  let reset_probes t = t.key_probes <- 0
  let rebuild_count t = t.rebuilds

  (* ---- construction / recovery ---- *)

  let create ?(cap = 32) ?(pln_cap = 128) ?(value_bytes = 8) alloc_ =
    let region = Pmem.Palloc.region alloc_ in
    if not (Pptr.is_null (Pmem.Palloc.root alloc_)) then
      failwith "Nvtree.create: region already holds a tree";
    Pmem.Palloc.alloc alloc_ ~into:(Pmem.Palloc.root_loc alloc_) meta_bytes;
    let meta = (Pmem.Palloc.root alloc_).Pptr.off in
    Region.fill region meta meta_bytes '\000';
    Region.persist region meta meta_bytes;
    let t =
      { ctx = { Fptree.Keys.region; alloc = alloc_ };
        meta; cap; pln_cap; value_bytes;
        entry_bytes = entry_bytes_of ~value_bytes;
        spec = Spec.create (); dir = Nv.fresh ();
        plns = [||]; pln_mins = [||]; n_pln = 0;
        rebuilds = 0; key_probes = 0 }
    in
    let l = alloc_leaf t ~scratch:meta_scratch1 in
    write_head t (Pptr.of_region region ~off:l);
    rebuild_from_pairs t [| (K.dummy, { off = l; lock = Htm.Sched.Opaque.make false }) |];
    t.rebuilds <- 0;
    t

  (** Rebuild the DRAM directory by walking the persistent leaf list. *)
  let recover ?(cap = 32) ?(pln_cap = 128) ?(value_bytes = 8) alloc_ =
    let region = Pmem.Palloc.region alloc_ in
    let rootp = Pmem.Palloc.root alloc_ in
    if Pptr.is_null rootp then failwith "Nvtree.recover: no tree in region";
    let t =
      { ctx = { Fptree.Keys.region; alloc = alloc_ };
        meta = rootp.Pptr.off; cap; pln_cap; value_bytes;
        entry_bytes = entry_bytes_of ~value_bytes;
        spec = Spec.create (); dir = Nv.fresh ();
        plns = [||]; pln_mins = [||]; n_pln = 0;
        rebuilds = 0; key_probes = 0 }
    in
    let acc = ref [] in
    let rec walk p =
      if not (Pptr.is_null p) then begin
        let off = p.Pptr.off in
        let live = live_entries t off in
        let mink =
          List.fold_left
            (fun a (k, _, _) -> match a with
              | None -> Some k
              | Some m -> if K.compare k m < 0 then Some k else a)
            None live
        in
        let sep = match mink with Some k -> k | None -> K.dummy in
        acc := (sep, { off; lock = Htm.Sched.Opaque.make false }) :: !acc;
        walk (read_next t off)
      end
    in
    walk (read_head t);
    rebuild_from_pairs t (Array.of_list (List.rev !acc));
    t.rebuilds <- 0;
    t
end

module Fixed = Make (Fptree.Keys.Fixed)
module Var = Make (Fptree.Keys.Var)
