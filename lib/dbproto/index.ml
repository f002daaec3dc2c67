(** First-class fixed-key index handles for the prototype database:
    the dictionary index of the columnar engine is "the tree under
    test" (Section 6.4).  Each handle knows how to recover itself from
    its SCM arena after a restart. *)

type kind = FPTree | PTree | NVTree | WBTree | STXTree

let kind_name = function
  | FPTree -> "FPTree"
  | PTree -> "PTree"
  | NVTree -> "NV-Tree"
  | WBTree -> "wBTree"
  | STXTree -> "STXTree"

let all_kinds = [ FPTree; PTree; NVTree; WBTree; STXTree ]

type t = {
  kind : kind;
  alloc : Pmem.Palloc.t option; (* None for the transient STXTree *)
  insert : int -> int -> (bool, [ `Out_of_space ]) result;
      (** [Error `Out_of_space] when the index arena refused the write
          (watermark admission or exhaustion); the index is unchanged. *)
  find : int -> int option;
  update : int -> int -> (bool, [ `Out_of_space ]) result;
  delete : int -> bool;
  count : unit -> int;
}

(* The DB experiment's NV-Tree configuration (Section 6.4): leaf 1024 /
   inner 8 to survive the sorted (sequential s_id) population. *)
let nvtree_db_cap = 1024
let nvtree_db_pln = 8

let wrap kind alloc (type a) (module T : Fptree.Tree_intf.FIXED with type t = a)
    (tr : a) =
  { kind; alloc;
    insert = (fun k v -> T.try_insert tr k v); find = (fun k -> T.find tr k);
    update = (fun k v -> T.try_update tr k v); delete = (fun k -> T.delete tr k);
    count = (fun () -> T.count tr) }

(** Create a fresh index of [kind] in its own SCM arena. *)
let create ?(arena_bytes = 64 * 1024 * 1024) kind =
  match kind with
  | STXTree ->
    wrap kind None (module Baselines.Stxtree.Fixed) (Baselines.Stxtree.Fixed.create ())
  | _ ->
    let a = Pmem.Palloc.create ~size:arena_bytes () in
    let w m tr = wrap kind (Some a) m tr in
    (match kind with
    | FPTree -> w (module Fptree.Fixed) (Fptree.Fixed.create_single a)
    | PTree -> w (module Fptree.Ptree.Fixed) (Fptree.Ptree.Fixed.create a)
    | NVTree ->
      w (module Baselines.Nvtree.Fixed)
        (Baselines.Nvtree.Fixed.create ~cap:nvtree_db_cap ~pln_cap:nvtree_db_pln a)
    | WBTree -> w (module Baselines.Wbtree.Fixed) (Baselines.Wbtree.Fixed.create a)
    | STXTree -> assert false)

(** Re-open an index after a (simulated) restart.  The STXTree is
    transient: the caller must rebuild it from base data. *)
let recover t =
  match (t.kind, t.alloc) with
  | STXTree, _ | _, None -> invalid_arg "Index.recover: transient index"
  | kind, Some a ->
    let a = Pmem.Palloc.of_region (Pmem.Palloc.region a) in
    let w m tr = wrap kind (Some a) m tr in
    (match kind with
    | FPTree -> w (module Fptree.Fixed) (Fptree.Fixed.recover a)
    | PTree ->
      w (module Fptree.Ptree.Fixed)
        (Fptree.Ptree.Fixed.recover ~config:Fptree.Tree.ptree_config a)
    | NVTree ->
      w (module Baselines.Nvtree.Fixed)
        (Baselines.Nvtree.Fixed.recover ~cap:nvtree_db_cap ~pln_cap:nvtree_db_pln a)
    | WBTree -> w (module Baselines.Wbtree.Fixed) (Baselines.Wbtree.Fixed.recover a)
    | STXTree -> assert false)
