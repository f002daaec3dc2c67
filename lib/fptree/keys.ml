(** Key representations.

    The tree functor is parametric over how a key lives in a leaf cell:

    - {!Fixed}: 63-bit integer keys stored inline in an 8-byte cell
      (the paper's fixed-size 8-byte keys);
    - {!Var}: string keys stored out of line — the cell is a persistent
      pointer to a separately allocated key block, as in Appendix C.

    A var-key block is [length:8][bytes][padding]; deallocating and
    resetting cells follows the leak-detection discipline of
    Algorithm 17. *)

type ctx = {
  region : Scm.Region.t;
  alloc : Pmem.Palloc.t;
}

let max_var_key_len = 4096

(* [gather]'s scratch arrays must hold [m] elements: every hit index is
   then below their length, and the passes use unchecked access. *)
let check_scratch m nk nv =
  if nk < m || nv < m then invalid_arg "Keys.gather: scratch shorter than m"

module type KEY = sig
  type t

  val kind : int
  (** persisted tag: 0 = fixed, 1 = var *)

  val cell_bytes : int
  val inline : bool
  (** [true] when the key bytes live in the cell itself; the tree then
      persists the cell range together with the value. *)

  val dummy : t
  val compare : t -> t -> int

  val search : t Inner.search
  (** [search n k]: the first [i < n.nkeys] with [k <=] separator [i],
      or [nkeys] when there is none, [nkeys] clamped to the arrays'
      length: an inner node's child choice.  See keys.mli. *)

  val inner_kind : t Inner.kind
  (** The steps an inner node of this key type takes: [search] and the
      anchor steps of its structural edits.  See keys.mli. *)

  val gather :
    ctx -> Layout.t -> leaf:int -> bm:int -> lo:t -> hi:t -> t array ->
    int array -> int
  (** One range-scan pass over an unsorted leaf: the hits ([lo <= k <=
      hi]) of the slots in [bm], collected in slot order and then
      sorted by key in the scratch prefix, and their count.  See
      keys.mli. *)

  val fingerprint : t -> int
  val dram_bytes : t -> int

  val read : ctx -> off:int -> t
  (** Read the key at cell [off] (valid slot, or best-effort for a
      concurrent dirty read — must not raise on garbage). *)

  val write : ctx -> off:int -> t -> unit
  (** Store a fresh key into cell [off].  Var keys allocate their key
      block through the allocator (which persistently publishes the
      cell) and persist the block content; fixed keys just write the
      cell, leaving persistence to the caller. *)

  val matches : ctx -> off:int -> t -> bool

  val cell_ref : ctx -> off:int -> Pmem.Pptr.t option
  (** [Some p] for var keys (the pointer in the cell), [None] for
      fixed: drives the leak audit at recovery. *)

  val move : ctx -> src:int -> dst:int -> unit
  (** Copy the cell [src] to [dst] without allocating (update path);
      not persisted — the caller persists the destination range. *)

  val reset_ref : ctx -> off:int -> unit
  (** Persistently null the cell without deallocating (the key is still
      referenced by another cell).  No-op for fixed keys. *)

  val clear_cell : ctx -> off:int -> unit
  (** Null the cell WITHOUT persisting (bulk clearing of stale cells
      after a split; the caller persists the whole range).  A torn null
      still reads as null because validity lives in the region-id word.
      No-op for fixed keys. *)

  val dealloc : ctx -> off:int -> unit
  (** Free the key block via the allocator, which persistently nulls
      the cell.  No-op for fixed keys. *)
end

module Fixed : KEY with type t = int = struct
  type t = int

  let kind = 0
  let cell_bytes = 8
  let inline = true
  let dummy = min_int
  let compare = Int.compare

  (* Binary search with the compare inline on the node's anchors, the
     keys themselves; the clamp keeps every load inside the array, so
     it can be unchecked.  Not [Anchor]'s branch-free bound: its
     subtraction trick holds for anchors below 2^60 only, and fixed
     keys span all 63 bits. *)
  let search (n : int Inner.inner) (k : int) =
    let anchors = n.Inner.anchors in
    let lo = ref 0 and hi = ref (min n.Inner.nkeys (Array.length anchors)) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if k <= Array.unsafe_get anchors mid then hi := mid else lo := mid + 1
    done;
    !lo

  (* A key is its own anchor, under the empty prefix, and never long:
     a fixed node keeps no keys and charges no bytes for them. *)
  let inner_kind =
    { Inner.search; compare;
      encode = (fun _ k -> k);
      short = (fun _ a -> a);
      is_long = (fun _ -> false);
      common_prefix = (fun _ _ -> "");
      keeps = (fun _ _ -> true);
      long_keys = (fun _ -> [||]);
      blank = dummy;
      held_bytes = (fun _ -> 0) }

  (* Collect, then sort.  The collect pass appends each hit unsorted,
     so it reads what a slot-by-slot loop reads, in that order; the sort
     touches only the hit prefix, whose indices are below [n <= m], the
     scratch length checked on entry.  Every compare is an inline int
     test. *)
  let gather ctx (l : Layout.t) ~leaf ~bm ~lo ~hi (ks : int array)
      (vs : int array) =
    let m = l.Layout.m in
    check_scratch m (Array.length ks) (Array.length vs);
    let r = ctx.region in
    let kst = Layout.key_stride l and vst = Layout.value_stride l in
    let ko = ref (Layout.key_off l ~leaf ~slot:0) in
    let vo = ref (Layout.value_off l ~leaf ~slot:0) in
    (* Under the model checker a hit's value read is a read of the
       leaf's version object, so a writer can be scheduled between a
       key read and its value read: the race a scan must survive. *)
    let mc = Htm.Sched.on () and obj = Htm.Sched.obj_ver leaf in
    let n = ref 0 in
    let b = ref bm and s = ref 0 in
    while !b <> 0 && !s < m do
      if !b land 1 <> 0 then begin
        let k = Scm.Region.read_word r !ko in
        if k >= lo && k <= hi then begin
          Array.unsafe_set ks !n k;
          if mc then Htm.Sched.point ~obj ~write:false;
          Array.unsafe_set vs !n (Scm.Region.read_word r !vo);
          incr n
        end
      end;
      b := !b lsr 1;
      incr s;
      ko := !ko + kst;
      vo := !vo + vst
    done;
    let n = !n in
    (* stable insertion sort: equal keys keep their slot order *)
    for i = 1 to n - 1 do
      let k = Array.unsafe_get ks i in
      if Array.unsafe_get ks (i - 1) > k then begin
        let v = Array.unsafe_get vs i in
        let j = ref (i - 1) in
        while !j >= 0 && Array.unsafe_get ks !j > k do
          Array.unsafe_set ks (!j + 1) (Array.unsafe_get ks !j);
          Array.unsafe_set vs (!j + 1) (Array.unsafe_get vs !j);
          decr j
        done;
        Array.unsafe_set ks (!j + 1) k;
        Array.unsafe_set vs (!j + 1) v
      end
    done;
    n

  let fingerprint = Fingerprint.of_int
  let dram_bytes _ = 8
  let read ctx ~off = Scm.Region.read_word ctx.region off
  let write ctx ~off k = Scm.Region.write_word ctx.region off k
  let matches ctx ~off k = read ctx ~off = k
  let cell_ref _ ~off:_ = None
  let move ctx ~src ~dst =
    Scm.Region.write_word ctx.region dst (Scm.Region.read_word ctx.region src)
  let reset_ref _ ~off:_ = ()
  let clear_cell _ ~off:_ = ()
  let dealloc _ ~off:_ = ()
end

module Var : KEY with type t = string = struct
  type t = string

  let kind = 1
  let cell_bytes = Pmem.Pptr.size_bytes
  let inline = false
  let dummy = ""
  let compare = String.compare

  (* An int binary search over the node's anchors ({!Anchor.search}). *)
  let search (n : string Inner.inner) (k : string) =
    Anchor.search n.Inner.prefix n.Inner.anchors n.Inner.keys n.Inner.nkeys k

  let fingerprint = Fingerprint.of_string
  let dram_bytes s = String.length s + 24 (* OCaml string header etc. *)

  (* A prefix and {!Anchor} ints; a long separator is kept whole. *)
  let inner_kind =
    { Inner.search; compare;
      encode = (fun p k -> Anchor.encode k (String.length p));
      short = Anchor.key;
      is_long = Anchor.is_long;
      common_prefix =
        (fun a b ->
          let l = Anchor.lcp a b in
          if l = String.length a then a else String.sub a 0 l);
      keeps = Anchor.has_prefix;
      long_keys = (fun cap -> Array.make cap "");
      blank = "";
      held_bytes =
        (fun n ->
          let b = ref (dram_bytes n.Inner.prefix) in
          for i = 0 to n.Inner.nkeys - 1 do
            if Anchor.is_long n.Inner.anchors.(i) then
              b := !b + dram_bytes n.Inner.keys.(i)
          done;
          !b) }

  (* Defensive read: a concurrent dirty read can chase a pointer into a
     block that was freed and reused; clamp and bounds-check so the
     worst outcome is a key that matches nothing.  [block] reads the
     cell's two pointer words (region id, then offset) and gives the
     block's offset, or -1 for a null pointer, another region's or one
     outside this region; [key_len] reads the block's length word and
     gives the length, or -1 when it is implausible.  Plain ints, so
     neither allocates. *)
  let block ctx ~off =
    let r = ctx.region in
    let id = Scm.Region.read_word r off in
    let base = Scm.Region.read_word r (off + 8) in
    if id = 0 || id <> Scm.Region.id r || base < 0
       || base + 8 > Scm.Region.size r
    then -1
    else base

  let key_len ctx base =
    let len = Scm.Region.read_word ctx.region base in
    if len <= 0 || len > max_var_key_len
       || base + 8 + len > Scm.Region.size ctx.region
    then -1
    else len

  let read ctx ~off =
    let base = block ctx ~off in
    if base < 0 then ""
    else
      let len = key_len ctx base in
      if len < 0 then "" else Scm.Region.read_string ctx.region (base + 8) len

  (* The same two steps as [Fixed.gather], comparing with
     [String.compare] called directly. *)
  let gather ctx (l : Layout.t) ~leaf ~bm ~lo ~hi (ks : string array)
      (vs : int array) =
    let m = l.Layout.m in
    check_scratch m (Array.length ks) (Array.length vs);
    let r = ctx.region in
    let kst = Layout.key_stride l and vst = Layout.value_stride l in
    let ko = ref (Layout.key_off l ~leaf ~slot:0) in
    let vo = ref (Layout.value_off l ~leaf ~slot:0) in
    let mc = Htm.Sched.on () and obj = Htm.Sched.obj_ver leaf in
    let n = ref 0 in
    let b = ref bm and s = ref 0 in
    while !b <> 0 && !s < m do
      if !b land 1 <> 0 then begin
        let k = read ctx ~off:!ko in
        if String.compare k lo >= 0 && String.compare k hi <= 0 then begin
          Array.unsafe_set ks !n k;
          if mc then Htm.Sched.point ~obj ~write:false;
          Array.unsafe_set vs !n (Scm.Region.read_word r !vo);
          incr n
        end
      end;
      b := !b lsr 1;
      incr s;
      ko := !ko + kst;
      vo := !vo + vst
    done;
    let n = !n in
    for i = 1 to n - 1 do
      let k = Array.unsafe_get ks i in
      if String.compare (Array.unsafe_get ks (i - 1)) k > 0 then begin
        let v = Array.unsafe_get vs i in
        let j = ref (i - 1) in
        while !j >= 0 && String.compare (Array.unsafe_get ks !j) k > 0 do
          Array.unsafe_set ks (!j + 1) (Array.unsafe_get ks !j);
          Array.unsafe_set vs (!j + 1) (Array.unsafe_get vs !j);
          decr j
        done;
        Array.unsafe_set ks (!j + 1) k;
        Array.unsafe_set vs (!j + 1) v
      end
    done;
    n

  let write ctx ~off k =
    let len = String.length k in
    if len = 0 || len > max_var_key_len then
      invalid_arg "Var key length must be in [1, 4096]";
    let loc = Pmem.Pptr.Loc.make ctx.region off in
    let c = Scope.enter Obs.Attrib.comp_ool_key in
    Pmem.Palloc.alloc ctx.alloc ~into:loc (8 + len);
    let p = Pmem.Pptr.Loc.read loc in
    let base = p.Pmem.Pptr.off in
    Scm.Region.write_int64 ctx.region base (Int64.of_int len);
    Scm.Region.write_string ctx.region (base + 8) k;
    Scope.persist_in_scope ctx.region base (8 + len);
    Scope.leave c

  (* [String.equal (read ctx ~off) k], comparing the key bytes in
     place: the same words and span are read, and nothing is copied.
     A cell [read] gives [""] for matches only the empty probe. *)
  let matches ctx ~off k =
    let base = block ctx ~off in
    if base < 0 then String.length k = 0
    else
      let len = key_len ctx base in
      if len < 0 then String.length k = 0
      else Scm.Region.equal_string ctx.region (base + 8) len k
  let cell_ref ctx ~off = Some (Pmem.Pptr.read ctx.region off)

  let move ctx ~src ~dst =
    Pmem.Pptr.write ctx.region dst (Pmem.Pptr.read ctx.region src)

  let reset_ref ctx ~off =
    let c = Scope.enter Obs.Attrib.comp_ool_key in
    Pmem.Pptr.reset_committed ctx.region off;
    Scope.leave c
  let clear_cell ctx ~off = Pmem.Pptr.write ctx.region off Pmem.Pptr.null

  let dealloc ctx ~off =
    let c = Scope.enter Obs.Attrib.comp_ool_key in
    Pmem.Palloc.free ctx.alloc ~from:(Pmem.Pptr.Loc.make ctx.region off);
    Scope.leave c
end
