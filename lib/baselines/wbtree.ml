(** wBTree (Chen & Jin, reimplemented as in Section 6.1 of the FPTree
    paper: the undo-redo logs replaced by lightweight micro-logs).

    The write-atomic B-Tree lives ENTIRELY in SCM: both leaves and
    inner nodes are unsorted slotted nodes with a validity bitmap (the
    p-atomic commit word) and a sorted indirection slot array that
    enables binary search — giving the log2(m) in-leaf key probes of
    Figure 4 at the price of extra SCM writes per update (the slot
    array maintenance) and SCM-resident inner nodes (every level of
    the traversal pays the SCM latency).

    Routing uses min-key separators, so a child split only ever INSERTS
    one (min, child) entry into the parent — committed atomically by
    the parent's bitmap, never an in-place pointer overwrite.

    Recovery is near-instantaneous (the paper reports ~1 ms): nothing
    transient needs rebuilding; [recover] re-reads the root pointer.
    A crashed slot array (torn between its persist and the bitmap
    commit) is a cache of the bitmap+keys and is repaired by
    [verify_and_repair].  Faithful to the paper's critique, leaf
    DEallocation goes through a scratch cell rather than a micro-log
    and is therefore leak-prone across crashes (the deficiency the
    FPTree fixes); split allocations use a proper micro-log. *)

module Region = Scm.Region
module Pptr = Pmem.Pptr
module Microlog = Fptree.Microlog

module Make (K : Fptree.Keys.KEY) = struct
  type key = K.t

  type t = {
    ctx : Fptree.Keys.ctx;
    meta : int;
    leaf_m : int;
    inner_m : int;
    value_bytes : int;
    split_log : Microlog.t;
    mutable key_probes : int;
  }

  let name = "wBTree"

  let region t = t.ctx.Fptree.Keys.region
  let alloc t = t.ctx.Fptree.Keys.alloc

  (* meta block *)
  let meta_root = 0 (* committed pptr *)
  let meta_head = 16 (* committed pptr: leaf-list head *)
  let meta_scratch = 32 (* scratch cell for leak-prone deallocations *)
  let meta_log = 64
  let meta_bytes = 128

  (* node layout *)
  let off_flags = 0
  let off_bitmap = 8
  let off_slots = 16 (* 1 count byte + m slot bytes *)

  let node_geometry ~m ~key_cell ~val_bytes =
    let slots_end = off_slots + 1 + m in
    let next_off = Scm.Cacheline.align_up slots_end 8 in
    let entries_off = next_off + Pptr.size_bytes in
    let entry = key_cell + val_bytes in
    (next_off, entries_off, entries_off + (m * entry))

  let is_leaf t node = Region.read_int64 (region t) (node + off_flags) = 1L

  let full_mask m = if m >= 64 then -1 else (1 lsl m) - 1

  let node_m t node = if is_leaf t node then t.leaf_m else t.inner_m

  (* leaf values are [value_bytes]; inner "values" are 8-byte child offsets *)
  let node_valbytes t node = if is_leaf t node then t.value_bytes else 8

  let geometry t node =
    node_geometry ~m:(node_m t node) ~key_cell:K.cell_bytes
      ~val_bytes:(node_valbytes t node)

  let entry_key_off t node i =
    let _, entries_off, _ = geometry t node in
    node + entries_off + (i * (K.cell_bytes + node_valbytes t node))

  let entry_val_off t node i = entry_key_off t node i + K.cell_bytes

  let read_bitmap t node = Int64.to_int (Region.read_int64 (region t) (node + off_bitmap))

  let commit_bitmap t node bm =
    Region.write_int64_atomic (region t) (node + off_bitmap) (Int64.of_int bm);
    Region.persist (region t) (node + off_bitmap) 8

  let slot_count t node = Region.read_u8 (region t) (node + off_slots)
  let slot t node i = Region.read_u8 (region t) (node + off_slots + 1 + i)

  (* Persist a fresh slot array (count byte + count slots). *)
  let write_slots t node (slots : int array) =
    let r = region t in
    let n = Array.length slots in
    Region.write_u8 r (node + off_slots) n;
    for i = 0 to n - 1 do
      Region.write_u8 r (node + off_slots + 1 + i) slots.(i)
    done;
    Region.persist r (node + off_slots) (1 + n)

  let read_next t node =
    let next_off, _, _ = geometry t node in
    Pptr.read (region t) (node + next_off)

  let write_next_persist t node p =
    let next_off, _, _ = geometry t node in
    Pptr.write (region t) (node + next_off) p;
    Region.persist (region t) (node + next_off) Pptr.size_bytes

  let read_root t = (Pptr.read (region t) (t.meta + meta_root)).Pptr.off
  let write_root t off =
    Pptr.write_committed (region t) (t.meta + meta_root)
      (Pptr.of_region (region t) ~off)

  let read_head t = Pptr.read (region t) (t.meta + meta_head)
  let write_head t p = Pptr.write_committed (region t) (t.meta + meta_head) p

  let read_key t node i = K.read t.ctx ~off:(entry_key_off t node i)
  let read_val t node i = Int64.to_int (Region.read_int64 (region t) (entry_val_off t node i))

  (* ---- binary search over the slot array ---- *)

  (* Index into the slot array (not the entry array!) of the last
     sorted key <= k; -1 if all keys are greater. *)
  let upper_slot t node k =
    let n = slot_count t node in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Scm.Config.current.Scm.Config.stats then t.key_probes <- t.key_probes + 1;
      if K.compare (read_key t node (slot t node mid)) k <= 0 then lo := mid + 1
      else hi := mid
    done;
    !lo - 1

  (* Exact match: Some entry_index. *)
  let find_in_node t node k =
    let i = upper_slot t node k in
    if i < 0 then None
    else
      let e = slot t node i in
      if Scm.Config.current.Scm.Config.stats then t.key_probes <- t.key_probes + 1;
      if K.matches t.ctx ~off:(entry_key_off t node e) k then Some (i, e) else None

  (* child covering k: entry of the last separator <= k, clamped to the
     leftmost entry *)
  let child_for t node k =
    let i = max 0 (upper_slot t node k) in
    read_val t node (slot t node i)

  let rec find_leaf t node k =
    if is_leaf t node then node else find_leaf t (child_for t node k) k

  (* Descend recording the path (for splits / removals). *)
  let rec path_to t node k acc =
    if is_leaf t node then (node, acc)
    else path_to t (child_for t node k) k (node :: acc)

  (* ---- node construction ---- *)

  let node_bytes t ~leaf =
    let m = if leaf then t.leaf_m else t.inner_m in
    let vb = if leaf then t.value_bytes else 8 in
    let _, _, bytes = node_geometry ~m ~key_cell:K.cell_bytes ~val_bytes:vb in
    bytes

  (* Allocate a node through the split micro-log's second field. *)
  let alloc_node t ~leaf =
    Pmem.Palloc.alloc (alloc t) ~into:(Microlog.snd_loc t.split_log)
      (node_bytes t ~leaf);
    let off = (Microlog.read_snd t.split_log).Pptr.off in
    let r = region t in
    Region.fill r off (node_bytes t ~leaf) '\000';
    Region.write_int64 r (off + off_flags) (if leaf then 1L else 0L);
    Region.persist r off (node_bytes t ~leaf);
    off

  (* leak-prone deallocation through the scratch cell (see header) *)
  let dealloc_node t off =
    let loc = Pmem.Pptr.Loc.make (region t) (t.meta + meta_scratch) in
    Pmem.Pptr.Loc.write loc (Pptr.of_region (region t) ~off);
    Pmem.Palloc.free (alloc t) ~from:loc

  (* ---- entry insertion into a non-full node ---- *)

  let insert_entry t node k (write_val : int -> unit) =
    let m = node_m t node in
    let bm = read_bitmap t node in
    let full = full_mask m in
    assert (bm land full <> full);
    let rec first_zero s = if bm land (1 lsl s) = 0 then s else first_zero (s + 1) in
    let e = first_zero 0 in
    (* 1. write the entry and persist it (invisible).  A dummy (-inf)
       separator for out-of-line keys is represented by a null cell:
       free cells are always null (deallocation and stale-key clearing
       null them), so there is nothing to write. *)
    (if K.inline || K.compare k K.dummy <> 0 then
       K.write t.ctx ~off:(entry_key_off t node e) k);
    write_val (entry_val_off t node e);
    let vb = node_valbytes t node in
    (if K.inline then
       Region.persist (region t) (entry_key_off t node e) (K.cell_bytes + vb)
     else Region.persist (region t) (entry_val_off t node e) vb);
    (* 2. new sorted slot array (insert position by binary search) *)
    let n = slot_count t node in
    let pos = upper_slot t node k + 1 in
    let slots = Array.make (n + 1) 0 in
    for i = 0 to pos - 1 do
      slots.(i) <- slot t node i
    done;
    slots.(pos) <- e;
    for i = pos to n - 1 do
      slots.(i + 1) <- slot t node i
    done;
    write_slots t node slots;
    (* 3. p-atomic commit *)
    commit_bitmap t node (bm lor (1 lsl e));
    e

  let remove_entry t node slot_idx =
    let e = slot t node slot_idx in
    let n = slot_count t node in
    let slots = Array.make (n - 1) 0 in
    for i = 0 to slot_idx - 1 do
      slots.(i) <- slot t node i
    done;
    for i = slot_idx + 1 to n - 1 do
      slots.(i - 1) <- slot t node i
    done;
    (* commit the removal first (p-atomic), then refresh the slots *)
    commit_bitmap t node (read_bitmap t node land lnot (1 lsl e));
    write_slots t node slots;
    e

  (* ---- splits ---- *)

  (* Split [node]: keep the lower half in place, move the upper half to
     a fresh node; returns (min key of new node, new node offset). *)
  let split_node t node =
    let leaf = is_leaf t node in
    Microlog.set_fst t.split_log (Pptr.of_region (region t) ~off:node);
    let fresh = alloc_node t ~leaf in
    let n = slot_count t node in
    let keep = n / 2 in
    let moved = n - keep in
    (* copy upper-half entries into the fresh node, already sorted *)
    let vb = node_valbytes t node in
    let fresh_slots = Array.init moved (fun i -> i) in
    (* the separator handed to the parent: true min of the moved half *)
    let sep_ret = read_key t node (slot t node keep) in
    for i = 0 to moved - 1 do
      let e = slot t node (keep + i) in
      (* In an inner node the leftmost separator must act as -infinity
         (routing clamps to the leftmost child): store the dummy key
         there — the real minimum travels up to the parent as
         [sep_ret], so no information is lost. *)
      let k = if (not leaf) && i = 0 then K.dummy else read_key t node e in
      (if K.inline || K.compare k K.dummy <> 0 then
         K.write t.ctx ~off:(entry_key_off t fresh i) k);
      Region.blit_internal (region t) ~src:(entry_val_off t node e)
        ~dst:(entry_val_off t fresh i) ~len:vb;
      if K.inline then
        Region.persist (region t) (entry_key_off t fresh i) (K.cell_bytes + vb)
      else Region.persist (region t) (entry_val_off t fresh i) vb
    done;
    write_slots t fresh fresh_slots;
    commit_bitmap t fresh (full_mask moved);
    (if leaf then begin
       write_next_persist t fresh (read_next t node);
       write_next_persist t node (Pptr.of_region (region t) ~off:fresh)
     end);
    (* shrink the original: keep the lower half *)
    let keep_slots = Array.init keep (fun i -> slot t node i) in
    let keep_bm = Array.fold_left (fun acc e -> acc lor (1 lsl e)) 0 keep_slots in
    commit_bitmap t node keep_bm;
    write_slots t node keep_slots;
    Microlog.reset t.split_log;
    (sep_ret, fresh)

  (* free var-key blocks left in unset slots of [node] after a split *)
  let free_stale_keys t node =
    if not K.inline then begin
      let bm = read_bitmap t node in
      for s = 0 to node_m t node - 1 do
        if bm land (1 lsl s) = 0 then
          match K.cell_ref t.ctx ~off:(entry_key_off t node s) with
          | Some p when not (Pptr.is_null p) ->
            K.dealloc t.ctx ~off:(entry_key_off t node s)
          | _ -> ()
      done
    end

  (* ensure there is room in the leaf for k, splitting up the path as
     needed; returns the (possibly new) target leaf *)
  let rec make_room t k =
    let leaf, path = path_to t (read_root t) k [] in
    let m = t.leaf_m in
    let full = full_mask m in
    if read_bitmap t leaf land full <> full then leaf
    else begin
      (* split the leaf; insert the separator upward, splitting full
         ancestors (bottom-up, re-traversing if the root splits) *)
      let sep, fresh = split_node t leaf in
      free_stale_keys t leaf;
      let rec insert_up sep child path =
        match path with
        | [] ->
          (* split reached the root: grow a new root *)
          let old_root = read_root t in
          Microlog.set_fst t.split_log (Pptr.of_region (region t) ~off:old_root);
          let root = alloc_node t ~leaf:false in
          (* the leftmost separator is -infinity (see split_node) *)
          ignore (insert_entry t root K.dummy (fun off ->
              Region.write_int64 (region t) off (Int64.of_int old_root)));
          ignore (insert_entry t root sep (fun off ->
              Region.write_int64 (region t) off (Int64.of_int child)));
          Microlog.reset t.split_log;
          write_root t root
        | parent :: rest ->
          let mi = t.inner_m in
          let fulli = full_mask mi in
          if read_bitmap t parent land fulli = fulli then begin
            let psep, pfresh = split_node t parent in
            free_stale_keys t parent;
            (* decide which half receives (sep, child) *)
            let target = if K.compare sep psep < 0 then parent else pfresh in
            ignore (insert_entry t target sep (fun off ->
                Region.write_int64 (region t) off (Int64.of_int child)));
            insert_up psep pfresh rest
          end
          else
            ignore (insert_entry t parent sep (fun off ->
                Region.write_int64 (region t) off (Int64.of_int child)))
      in
      insert_up sep fresh path;
      (* re-locate the leaf for k after the splits *)
      make_room t k
    end

  (* Re-establish the -infinity leftmost separator after a removal or
     a root change made a real key the leftmost. *)
  let fix_leftmost t node =
    if (not (is_leaf t node)) && slot_count t node > 0 then begin
      let e = slot t node 0 in
      if K.compare (read_key t node e) K.dummy <> 0 then
        if K.inline then begin
          K.write t.ctx ~off:(entry_key_off t node e) K.dummy;
          Region.persist (region t) (entry_key_off t node e) K.cell_bytes
        end
        else K.dealloc t.ctx ~off:(entry_key_off t node e)
    end

  (* ---- base operations ---- *)

  let find t k =
    let leaf = find_leaf t (read_root t) k in
    match find_in_node t leaf k with
    | Some (_, e) -> Some (read_val t leaf e)
    | None -> None

  let insert t k v =
    let leaf = find_leaf t (read_root t) k in
    match find_in_node t leaf k with
    | Some _ -> false
    | None ->
      let leaf = make_room t k in
      ignore (insert_entry t leaf k (fun off ->
          let r = region t in
          Region.write_int64 r off (Int64.of_int v);
          if t.value_bytes > 8 then Region.fill r (off + 8) (t.value_bytes - 8) '\000'));
      true

  let update t k v =
    let leaf = find_leaf t (read_root t) k in
    match find_in_node t leaf k with
    | None -> false
    | Some (_, e) ->
      (* in-place value update, p-atomic for 8-byte values; larger
         payloads follow the wBTree's write-then-commit via a fresh
         slot would be needed — we update the value word last *)
      let r = region t in
      if t.value_bytes > 8 then begin
        Region.fill r (entry_val_off t leaf e + 8) (t.value_bytes - 8) '\000';
        Region.persist r (entry_val_off t leaf e + 8) (t.value_bytes - 8)
      end;
      Region.write_int64_atomic r (entry_val_off t leaf e) (Int64.of_int v);
      Region.persist r (entry_val_off t leaf e) 8;
      true

  let try_insert t k v = Fptree.Tree.guard_space (fun () -> insert t k v)
  let try_update t k v = Fptree.Tree.guard_space (fun () -> update t k v)

  (* remove an emptied node from its parent chain *)
  let remove_empty_leaf t k leaf =
    if read_root t = leaf then ()
      (* a lone root leaf stays (and stays the list head) *)
    else begin
    (* unlink from the leaf list *)
    let rec find_prev node prev =
      if node = leaf then prev
      else
        let nx = read_next t node in
        if Pptr.is_null nx then None else find_prev nx.Pptr.off (Some node)
    in
    let headp = read_head t in
    (if headp.Pptr.off = leaf then write_head t (read_next t leaf)
     else
       match find_prev headp.Pptr.off None with
       | Some prev -> write_next_persist t prev (read_next t leaf)
       | None -> ());
    (* remove entries pointing to emptied nodes up the path *)
    let rec prune node =
      (* returns true if [node] became empty and was deallocated *)
      if node = leaf then true
      else begin
        let i = max 0 (upper_slot t node k) in
        let e = slot t node i in
        let child = read_val t node e in
        if prune child then begin
          ignore (remove_entry t node i);
          (if not K.inline then
             match K.cell_ref t.ctx ~off:(entry_key_off t node e) with
             | Some p when not (Pptr.is_null p) ->
               K.dealloc t.ctx ~off:(entry_key_off t node e)
             | _ -> ());
          dealloc_node t child;
          (* removing slot 0 exposes a real key as leftmost: re-dummy it *)
          if i = 0 then fix_leftmost t node;
          if slot_count t node = 0 && node <> read_root t then true else false
        end
        else false
      end
    in
    if prune (read_root t) then ();
    (* collapse a root with a single child *)
    let rec collapse () =
      let r = read_root t in
      if (not (is_leaf t r)) && slot_count t r = 1 then begin
        let child = read_val t r (slot t r 0) in
        (if not K.inline then
           match K.cell_ref t.ctx ~off:(entry_key_off t r (slot t r 0)) with
           | Some p when not (Pptr.is_null p) ->
             K.dealloc t.ctx ~off:(entry_key_off t r (slot t r 0))
           | _ -> ());
        write_root t child;
        dealloc_node t r;
        fix_leftmost t child;
        collapse ()
      end
    in
    collapse ()
    end

  let delete t k =
    let leaf = find_leaf t (read_root t) k in
    match find_in_node t leaf k with
    | None -> false
    | Some (i, e) ->
      ignore (remove_entry t leaf i);
      (if not K.inline then K.dealloc t.ctx ~off:(entry_key_off t leaf e));
      if slot_count t leaf = 0 then remove_empty_leaf t k leaf;
      true

  let range t ~lo ~hi =
    if K.compare lo hi > 0 then []
    else begin
      let acc = ref [] in
      let rec walk node =
        let n = slot_count t node in
        let any_le_hi = ref (n = 0) in
        for i = 0 to n - 1 do
          let e = slot t node i in
          let k = read_key t node e in
          if K.compare k hi <= 0 then begin
            any_le_hi := true;
            if K.compare lo k <= 0 then acc := (k, read_val t node e) :: !acc
          end
        done;
        if !any_le_hi then
          let nx = read_next t node in
          if not (Pptr.is_null nx) then walk nx.Pptr.off
      in
      walk (find_leaf t (read_root t) lo);
      List.sort (fun (a, _) (b, _) -> K.compare a b) !acc
    end

  let count t =
    let n = ref 0 in
    let rec walk p =
      if not (Pptr.is_null p) then begin
        n := !n + slot_count t p.Pptr.off;
        walk (read_next t p.Pptr.off)
      end
    in
    walk (read_head t);
    !n

  let scm_bytes t = Pmem.Palloc.live_bytes (alloc t)
  let dram_bytes _ = 0 (* resides fully in SCM *)
  let htm_stats _ = [] (* single-threaded: no speculative path *)
  let key_probes t = t.key_probes
  let reset_probes t = t.key_probes <- 0

  (* ---- construction / recovery ---- *)

  let create ?(leaf_m = 64) ?(inner_m = 32) ?(value_bytes = 8) alloc_ =
    if leaf_m < 2 || leaf_m > 64 || inner_m < 2 || inner_m > 63 then
      invalid_arg "Wbtree.create: node sizes";
    let region = Pmem.Palloc.region alloc_ in
    if not (Pptr.is_null (Pmem.Palloc.root alloc_)) then
      failwith "Wbtree.create: region already holds a tree";
    Pmem.Palloc.alloc alloc_ ~into:(Pmem.Palloc.root_loc alloc_) meta_bytes;
    let meta = (Pmem.Palloc.root alloc_).Pptr.off in
    Region.fill region meta meta_bytes '\000';
    Region.persist region meta meta_bytes;
    let t =
      { ctx = { Fptree.Keys.region; alloc = alloc_ };
        meta; leaf_m; inner_m; value_bytes;
        split_log = Microlog.make region (meta + meta_log);
        key_probes = 0 }
    in
    let leaf = alloc_node t ~leaf:true in
    Microlog.reset t.split_log;
    write_root t leaf;
    write_head t (Pptr.of_region region ~off:leaf);
    t

  (** Near-instantaneous recovery: the structure is entirely in SCM. *)
  let recover ?(leaf_m = 64) ?(inner_m = 32) ?(value_bytes = 8) alloc_ =
    let region = Pmem.Palloc.region alloc_ in
    let rootp = Pmem.Palloc.root alloc_ in
    if Pptr.is_null rootp then failwith "Wbtree.recover: no tree in region";
    { ctx = { Fptree.Keys.region; alloc = alloc_ };
      meta = rootp.Pptr.off; leaf_m; inner_m; value_bytes;
      split_log = Microlog.make region (rootp.Pptr.off + meta_log);
      key_probes = 0 }

  (** Repair pass for crash tests: rebuild any slot array that is
      inconsistent with its node's bitmap (the bitmap is the commit
      word; the slot array is a sorted cache of it). *)
  let verify_and_repair t =
    let rec repair node =
      let m = node_m t node in
      let bm = read_bitmap t node in
      let entries = ref [] in
      for s = 0 to m - 1 do
        if bm land (1 lsl s) <> 0 then entries := (read_key t node s, s) :: !entries
      done;
      let sorted = List.sort (fun (a, _) (b, _) -> K.compare a b) !entries in
      let want = Array.of_list (List.map snd sorted) in
      let have = Array.init (slot_count t node) (fun i -> slot t node i) in
      if want <> have then write_slots t node want;
      if not (is_leaf t node) then
        Array.iter (fun e -> repair (read_val t node e)) want
    in
    repair (read_root t)
end

module Fixed = Make (Fptree.Keys.Fixed)
module Var = Make (Fptree.Keys.Var)
