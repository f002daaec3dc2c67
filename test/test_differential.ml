(* Differential testing: every tree in the repository implements the
   same unique-key ordered-map contract, so the same operation sequence
   must produce the same observable result on all of them — per-op
   return values, final contents, and range scans. *)

type fixed_tree = {
  name : string;
  insert : int -> int -> bool;
  find : int -> int option;
  update : int -> int -> bool;
  delete : int -> bool;
  range : int -> int -> (int * int) list;
  count : unit -> int;
}

let tree (type a) name (module T : Fptree.Tree_intf.FIXED with type t = a) (t : a) =
  { name; insert = T.insert t; find = T.find t; update = T.update t;
    delete = T.delete t; range = (fun lo hi -> T.range t ~lo ~hi);
    count = (fun () -> T.count t) }

let mk_all () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Config.set_crash_tracking false;
  let arena () = Pmem.Palloc.create ~size:(64 * 1024 * 1024) () in
  [
    tree "FPTree" (module Fptree.Fixed)
      (Fptree.Fixed.create
         ~config:{ Fptree.Tree.fptree_config with Fptree.Tree.m = 6 } (arena ()));
    tree "FPTreeC" (module Fptree.Fixed) (Fptree.Fixed.create_concurrent ~m:6 (arena ()));
    tree "PTree" (module Fptree.Ptree.Fixed) (Fptree.Ptree.Fixed.create ~m:6 (arena ()));
    tree "NV-Tree" (module Baselines.Nvtree.Fixed)
      (Baselines.Nvtree.Fixed.create ~cap:8 ~pln_cap:4 (arena ()));
    tree "wBTree" (module Baselines.Wbtree.Fixed)
      (Baselines.Wbtree.Fixed.create ~leaf_m:6 ~inner_m:5 (arena ()));
    tree "STXTree" (module Baselines.Stxtree.Fixed)
      (Baselines.Stxtree.Fixed.create ~leaf_cap:6 ~inner_cap:6 ());
  ]

type op = Ins of int * int | Del of int | Upd of int * int | Fnd of int | Rng of int * int

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun k v -> Ins (k, v)) (int_bound 120) (int_bound 9999));
        (3, map (fun k -> Del k) (int_bound 120));
        (3, map2 (fun k v -> Upd (k, v)) (int_bound 120) (int_bound 9999));
        (3, map (fun k -> Fnd k) (int_bound 120));
        (1, map2 (fun a b -> Rng (min a b, max a b)) (int_bound 120) (int_bound 120));
      ])

let op_print = function
  | Ins (k, v) -> Printf.sprintf "Ins(%d,%d)" k v
  | Del k -> Printf.sprintf "Del(%d)" k
  | Upd (k, v) -> Printf.sprintf "Upd(%d,%d)" k v
  | Fnd k -> Printf.sprintf "Fnd(%d)" k
  | Rng (a, b) -> Printf.sprintf "Rng(%d,%d)" a b

exception Diverged of string

let run_op t = function
  | Ins (k, v) -> `B (t.insert k v)
  | Del k -> `B (t.delete k)
  | Upd (k, v) -> `B (t.update k v)
  | Fnd k -> `F (t.find k)
  | Rng (a, b) -> `R (t.range a b)

let qcheck_differential =
  QCheck.Test.make ~name:"all trees agree on every operation" ~count:50
    (QCheck.make
       ~print:(fun l -> String.concat ";" (List.map op_print l))
       (QCheck.Gen.list_size (QCheck.Gen.return 250) op_gen))
    (fun ops ->
      let trees = mk_all () in
      let reference = List.hd trees in
      (try
         List.iter
           (fun op ->
             let expect = run_op reference op in
             List.iter
               (fun t ->
                 let got = run_op t op in
                 if got <> expect then
                   raise
                     (Diverged
                        (Printf.sprintf "%s diverges from %s on %s" t.name
                           reference.name (op_print op))))
               (List.tl trees))
           ops
       with Diverged msg -> QCheck.Test.fail_report msg);
      let c = reference.count () in
      List.for_all (fun t -> t.count () = c) trees)

let test_dense_churn_differential () =
  (* deterministic heavy churn: interleaved growth and shrinkage *)
  let trees = mk_all () in
  let reference = List.hd trees in
  let rng = Random.State.make [| 20260705 |] in
  for i = 1 to 8_000 do
    let k = Random.State.int rng 400 in
    let op =
      match Random.State.int rng 4 with
      | 0 -> Ins (k, i)
      | 1 -> Del k
      | 2 -> Upd (k, i)
      | _ -> Fnd k
    in
    let expect = run_op reference op in
    List.iter
      (fun t ->
        let got = run_op t op in
        if got <> expect then
          Alcotest.failf "step %d: %s diverges on %s" i t.name (op_print op))
      (List.tl trees)
  done;
  let full = reference.range 0 400 in
  List.iter
    (fun t ->
      if t.range 0 400 <> full then Alcotest.failf "%s final contents differ" t.name)
    (List.tl trees)

let () =
  Alcotest.run "differential"
    [
      ( "fixed-keys",
        [
          QCheck_alcotest.to_alcotest qcheck_differential;
          Alcotest.test_case "dense churn" `Quick test_dense_churn_differential;
        ] );
    ]
