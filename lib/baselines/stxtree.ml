module type KEY = sig
  type t
  val compare : t -> t -> int
  val dummy : t
  val dram_bytes : t -> int
end

module Make (K : KEY) = struct
  type key = K.t

  type node =
    | Leaf of leaf
    | Inner of inner

  and leaf = {
    mutable n : int;
    lkeys : K.t array;
    vals : int array;
    mutable next : leaf option;
    mutable payload_pad : int; (* bytes of simulated extra value payload *)
  }

  and inner = {
    mutable m : int; (* number of keys; m+1 children *)
    ikeys : K.t array;
    children : node array;
  }

  type t = {
    leaf_cap : int;
    inner_cap : int; (* max keys per inner node *)
    value_bytes : int;
    mutable root : node;
    mutable first_leaf : leaf;
    mutable size : int;
  }

  let name = "STXTree"

  let new_leaf t =
    { n = 0; lkeys = Array.make t.leaf_cap K.dummy; vals = Array.make t.leaf_cap 0;
      next = None; payload_pad = t.value_bytes - 8 }

  let new_inner t =
    { m = 0; ikeys = Array.make t.inner_cap K.dummy;
      children = Array.make (t.inner_cap + 1) (Leaf { n = 0; lkeys = [||]; vals = [||]; next = None; payload_pad = 0 }) }

  let create ?(leaf_cap = 16) ?(inner_cap = 16) ?(value_bytes = 8) () =
    if leaf_cap < 2 || inner_cap < 2 then invalid_arg "Stxtree.create: capacity";
    let t =
      { leaf_cap; inner_cap; value_bytes;
        root = Leaf { n = 0; lkeys = [||]; vals = [||]; next = None; payload_pad = 0 };
        first_leaf = { n = 0; lkeys = [||]; vals = [||]; next = None; payload_pad = 0 };
        size = 0 }
    in
    let l = new_leaf t in
    t.root <- Leaf l;
    t.first_leaf <- l;
    t

  (* First index in [0,n) with keys.(i) >= k, by binary search. *)
  let lower_bound keys n k =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if K.compare keys.(mid) k < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let rec find_leaf node k =
    match node with
    | Leaf l -> l
    | Inner n ->
      (* child i covers keys < ikeys.(i); equal keys go right *)
      let i = lower_bound n.ikeys n.m k in
      let i = if i < n.m && K.compare n.ikeys.(i) k = 0 then i + 1 else i in
      find_leaf n.children.(i) k

  let find t k =
    let l = find_leaf t.root k in
    let i = lower_bound l.lkeys l.n k in
    if i < l.n && K.compare l.lkeys.(i) k = 0 then Some l.vals.(i) else None

  (* insert (k,v) into leaf at sorted position; caller ensures room *)
  let leaf_insert_at l i k v =
    Array.blit l.lkeys i l.lkeys (i + 1) (l.n - i);
    Array.blit l.vals i l.vals (i + 1) (l.n - i);
    l.lkeys.(i) <- k;
    l.vals.(i) <- v;
    l.n <- l.n + 1

  let inner_insert_at n i k child =
    Array.blit n.ikeys i n.ikeys (i + 1) (n.m - i);
    Array.blit n.children (i + 1) n.children (i + 2) (n.m - i);
    n.ikeys.(i) <- k;
    n.children.(i + 1) <- child;
    n.m <- n.m + 1

  (* Returns Some (sep, right) if [node] split. *)
  let rec insert_rec t node k v =
    match node with
    | Leaf l ->
      let i = lower_bound l.lkeys l.n k in
      if i < l.n && K.compare l.lkeys.(i) k = 0 then `Dup
      else if l.n < t.leaf_cap then begin
        leaf_insert_at l i k v;
        `Ok None
      end
      else begin
        (* split leaf, then insert into the correct half *)
        let right = new_leaf t in
        let mid = l.n / 2 in
        Array.blit l.lkeys mid right.lkeys 0 (l.n - mid);
        Array.blit l.vals mid right.vals 0 (l.n - mid);
        right.n <- l.n - mid;
        l.n <- mid;
        right.next <- l.next;
        l.next <- Some right;
        let sep = right.lkeys.(0) in
        let target = if K.compare k sep < 0 then l else right in
        let j = lower_bound target.lkeys target.n k in
        leaf_insert_at target j k v;
        `Ok (Some (sep, Leaf right))
      end
    | Inner n -> (
      let i = lower_bound n.ikeys n.m k in
      let i = if i < n.m && K.compare n.ikeys.(i) k = 0 then i + 1 else i in
      match insert_rec t n.children.(i) k v with
      | `Dup -> `Dup
      | `Ok None -> `Ok None
      | `Ok (Some (sep, right)) ->
        inner_insert_at n i sep right;
        if n.m < t.inner_cap then `Ok None
        else begin
          let rnode = new_inner t in
          let mid = n.m / 2 in
          let up = n.ikeys.(mid) in
          let moved = n.m - mid - 1 in
          Array.blit n.ikeys (mid + 1) rnode.ikeys 0 moved;
          Array.blit n.children (mid + 1) rnode.children 0 (moved + 1);
          rnode.m <- moved;
          n.m <- mid;
          `Ok (Some (up, Inner rnode))
        end)

  let insert t k v =
    match insert_rec t t.root k v with
    | `Dup -> false
    | `Ok None ->
      t.size <- t.size + 1;
      true
    | `Ok (Some (sep, right)) ->
      let root = new_inner t in
      root.m <- 1;
      root.ikeys.(0) <- sep;
      root.children.(0) <- t.root;
      root.children.(1) <- right;
      t.root <- Inner root;
      t.size <- t.size + 1;
      true

  let update t k v =
    let l = find_leaf t.root k in
    let i = lower_bound l.lkeys l.n k in
    if i < l.n && K.compare l.lkeys.(i) k = 0 then begin
      l.vals.(i) <- v;
      true
    end
    else false

  (* Sorted delete (no underflow rebalancing, as in research-grade
     implementations; matches how the paper exercises deletes). *)
  let delete t k =
    let l = find_leaf t.root k in
    let i = lower_bound l.lkeys l.n k in
    if i < l.n && K.compare l.lkeys.(i) k = 0 then begin
      Array.blit l.lkeys (i + 1) l.lkeys i (l.n - i - 1);
      Array.blit l.vals (i + 1) l.vals i (l.n - i - 1);
      l.n <- l.n - 1;
      t.size <- t.size - 1;
      true
    end
    else false

  let range t ~lo ~hi =
    if K.compare lo hi > 0 then []
    else begin
      let acc = ref [] in
      let rec walk l =
        let stop = ref false in
        for i = l.n - 1 downto 0 do
          let k = l.lkeys.(i) in
          if K.compare k hi <= 0 && K.compare lo k <= 0 then
            acc := (k, l.vals.(i)) :: !acc
          else if K.compare k hi > 0 then ()
        done;
        if l.n > 0 && K.compare l.lkeys.(0) hi > 0 then stop := true;
        match l.next with Some nx when not !stop -> walk nx | _ -> ()
      in
      walk (find_leaf t.root lo);
      List.sort (fun (a, _) (b, _) -> K.compare a b) !acc
    end

  (* DRAM-only: no arena to exhaust, but the same typed surface. *)
  let try_insert t k v = Fptree.Tree.guard_space (fun () -> insert t k v)
  let try_update t k v = Fptree.Tree.guard_space (fun () -> update t k v)

  let count t = t.size

  let dram_bytes t =
    let rec go = function
      | Leaf l ->
        (t.leaf_cap * (K.dram_bytes K.dummy + 8)) + l.payload_pad * t.leaf_cap + 48
      | Inner n ->
        let acc = ref ((t.inner_cap * K.dram_bytes K.dummy) + ((t.inner_cap + 1) * 8) + 24) in
        for i = 0 to n.m do
          acc := !acc + go n.children.(i)
        done;
        !acc
    in
    go t.root

  let scm_bytes _ = 0
  let htm_stats _ = [] (* no speculative path: plain transient tree *)
  let key_probes _ = 0 (* binary search; probes are not counted *)
  let reset_probes _ = ()

  (** Full rebuild from a sorted stream: the paper's recovery baseline
      (a transient tree must reinsert everything after a restart). *)
  let rebuild_from t pairs =
    let fresh = create ~leaf_cap:t.leaf_cap ~inner_cap:t.inner_cap
        ~value_bytes:t.value_bytes () in
    List.iter (fun (k, v) -> ignore (insert fresh k v)) pairs;
    fresh
end

module Fixed = Make (struct
  type t = int
  let compare = Int.compare
  let dummy = 0
  let dram_bytes _ = 8
end)

module Var = Make (struct
  type t = string
  let compare = String.compare
  let dummy = ""
  let dram_bytes s = String.length s + 24
end)
