(** Uniform tree handles for the benchmark harness: every evaluated
    tree (Table 1) behind one record, fixed-key and variable-key, built
    by {!handle} from the tree's {!Fptree.Tree_intf.S} module.  Only
    each tree's configuration stays per tree. *)

type 'k handle = {
  name : string;
  insert : 'k -> int -> bool;
  find : 'k -> int option;
  update : 'k -> int -> bool;
  delete : 'k -> bool;
  range : 'k -> 'k -> ('k * int) list;
  dram_bytes : unit -> int;
  scm_bytes : unit -> int;
  recover : unit -> float;
      (** simulate a restart and return the recovery seconds *)
  probes : unit -> int;
  reset_probes : unit -> unit;
}

let fixed_names = [ "FPTree"; "PTree"; "NV-Tree"; "wBTree"; "STXTree" ]
let var_names = [ "FPTreeVar"; "PTreeVar"; "NV-TreeVar"; "wBTreeVar"; "STXTreeVar" ]

let arena ?(mb = 256) () = Pmem.Palloc.create ~size:(mb * 1024 * 1024) ()

let time f =
  let t0 = Obs.Clock.now_s () in
  let x = f () in
  (x, Obs.Clock.now_s () -. t0)

(** [handle ~name (module T) ~create ~recover] puts the tree
    [create ()] behind a handle.  A restart calls [recover tr] untimed
    and times the thunk it returns; the thunk's tree replaces [tr]. *)
let handle (type a k) ~name
    (module T : Fptree.Tree_intf.S with type t = a and type key = k) ~create
    ~(recover : a -> unit -> a) : k handle =
  let tr = ref (create ()) in
  {
    name;
    insert = (fun k v -> T.insert !tr k v);
    find = (fun k -> T.find !tr k);
    update = (fun k v -> T.update !tr k v);
    delete = (fun k -> T.delete !tr k);
    range = (fun lo hi -> T.range !tr ~lo ~hi);
    dram_bytes = (fun () -> T.dram_bytes !tr);
    scm_bytes = (fun () -> T.scm_bytes !tr);
    recover =
      (fun () ->
        let tr', s = time (recover !tr) in
        tr := tr';
        s);
    probes = (fun () -> T.key_probes !tr);
    reset_probes = (fun () -> T.reset_probes !tr);
  }

(* A tree in its own SCM arena: a restart re-attaches the allocator to
   the arena's region and recovers the tree from it, both timed. *)
let persistent ~name tree ?mb ~create ~recover () =
  let a = arena ?mb () in
  handle ~name tree
    ~create:(fun () -> create a)
    ~recover:(fun _ () -> recover (Pmem.Palloc.of_region (Pmem.Palloc.region a)))

(* ---- fixed keys ---- *)

let fptree_fixed ?(concurrent = false) ?m ?(value_bytes = 8) ?mb () =
  persistent ~name:(if concurrent then "FPTreeC" else "FPTree")
    (module Fptree.Fixed) ?mb
    ~create:(fun a ->
      if concurrent then Fptree.Fixed.create_concurrent ?m ~value_bytes a
      else Fptree.Fixed.create_single ?m ~value_bytes a)
    ~recover:(Fptree.Fixed.recover
                ~config:
                  (if concurrent then Fptree.Tree.fptree_concurrent_config
                   else Fptree.Tree.fptree_config))
    ()

let ptree_fixed ?m ?(value_bytes = 8) ?mb () =
  persistent ~name:"PTree" (module Fptree.Ptree.Fixed) ?mb
    ~create:(fun a -> Fptree.Ptree.Fixed.create ?m ~value_bytes a)
    ~recover:(fun a -> Fptree.Ptree.Fixed.recover ~config:Fptree.Tree.ptree_config a)
    ()

let nvtree_fixed ?(cap = 32) ?(pln_cap = 128) ?(value_bytes = 8) ?mb () =
  persistent ~name:"NV-Tree" (module Baselines.Nvtree.Fixed) ?mb
    ~create:(Baselines.Nvtree.Fixed.create ~cap ~pln_cap ~value_bytes)
    ~recover:(Baselines.Nvtree.Fixed.recover ~cap ~pln_cap ~value_bytes) ()

let wbtree_fixed ?(leaf_m = 64) ?(inner_m = 32) ?(value_bytes = 8) ?mb () =
  persistent ~name:"wBTree" (module Baselines.Wbtree.Fixed) ?mb
    ~create:(Baselines.Wbtree.Fixed.create ~leaf_m ~inner_m ~value_bytes)
    ~recover:(Baselines.Wbtree.Fixed.recover ~leaf_m ~inner_m ~value_bytes) ()

(* transient: recovery = full rebuild from a key stream *)
let stxtree_fixed ?(leaf_cap = 16) ?(inner_cap = 16) ?(value_bytes = 8) () =
  let module S = Baselines.Stxtree.Fixed in
  handle ~name:"STXTree" (module S)
    ~create:(S.create ~leaf_cap ~inner_cap ~value_bytes)
    ~recover:(fun t ->
      let pairs = S.range t ~lo:min_int ~hi:max_int in
      fun () -> S.rebuild_from t pairs)

let make_fixed ?value_bytes ?mb = function
  | "FPTree" -> fptree_fixed ?value_bytes ?mb ()
  | "FPTreeC" -> fptree_fixed ~concurrent:true ?value_bytes ?mb ()
  | "PTree" -> ptree_fixed ?value_bytes ?mb ()
  | "NV-Tree" -> nvtree_fixed ?value_bytes ?mb ()
  | "wBTree" -> wbtree_fixed ?value_bytes ?mb ()
  | "STXTree" -> stxtree_fixed ?value_bytes ()
  | n -> invalid_arg ("Trees.make_fixed: " ^ n)

(* ---- variable-size (string) keys ---- *)

let fptree_var ?(concurrent = false) ?(value_bytes = 8) ?mb () =
  persistent ~name:(if concurrent then "FPTreeCVar" else "FPTreeVar")
    (module Fptree.Var) ?mb
    ~create:(fun a ->
      if concurrent then Fptree.Var.create_concurrent ~value_bytes a
      else Fptree.Var.create_single ~value_bytes a)
    ~recover:(Fptree.Var.recover
                ~config:
                  (if concurrent then Fptree.Var.var_concurrent_config
                   else Fptree.Var.var_single_config))
    ()

let ptree_var ?(value_bytes = 8) ?mb () =
  persistent ~name:"PTreeVar" (module Fptree.Ptree.Var) ?mb
    ~create:(fun a -> Fptree.Ptree.Var.create ~value_bytes a)
    ~recover:(fun a -> Fptree.Ptree.Var.recover ~config:Fptree.Tree.ptree_config a)
    ()

let nvtree_var ?(cap = 32) ?(pln_cap = 128) ?(value_bytes = 8) ?mb () =
  persistent ~name:"NV-TreeVar" (module Baselines.Nvtree.Var) ?mb
    ~create:(Baselines.Nvtree.Var.create ~cap ~pln_cap ~value_bytes)
    ~recover:(Baselines.Nvtree.Var.recover ~cap ~pln_cap ~value_bytes) ()

let wbtree_var ?(leaf_m = 64) ?(inner_m = 32) ?(value_bytes = 8) ?mb () =
  persistent ~name:"wBTreeVar" (module Baselines.Wbtree.Var) ?mb
    ~create:(Baselines.Wbtree.Var.create ~leaf_m ~inner_m ~value_bytes)
    ~recover:(Baselines.Wbtree.Var.recover ~leaf_m ~inner_m ~value_bytes) ()

let stxtree_var ?(leaf_cap = 8) ?(inner_cap = 8) ?(value_bytes = 8) () =
  let module S = Baselines.Stxtree.Var in
  handle ~name:"STXTreeVar" (module S)
    ~create:(S.create ~leaf_cap ~inner_cap ~value_bytes)
    ~recover:(fun t ->
      let pairs = S.range t ~lo:"" ~hi:"\xff\xff\xff" in
      fun () -> S.rebuild_from t pairs)

let make_var ?value_bytes ?mb = function
  | "FPTreeVar" -> fptree_var ?value_bytes ?mb ()
  | "FPTreeCVar" -> fptree_var ~concurrent:true ?value_bytes ?mb ()
  | "PTreeVar" -> ptree_var ?value_bytes ?mb ()
  | "NV-TreeVar" -> nvtree_var ?value_bytes ?mb ()
  | "wBTreeVar" -> wbtree_var ?value_bytes ?mb ()
  | "STXTreeVar" -> stxtree_var ?value_bytes ()
  | n -> invalid_arg ("Trees.make_var: " ^ n)
