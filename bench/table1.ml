(** Table 1: node-size tuning.  The paper selects the best node sizes
    per tree with a preliminary experiment; this sweep reproduces that
    choice for the FPTree family — avg modeled us/op of a 50/50
    Find/Insert mix at 250 ns for a range of leaf sizes.

    The concurrent trees get a second sweep, of the inner-node width.
    The paper sized FPTreeC's inner nodes (128 keys, FPTreeCVar 64) for
    TSX, whose read set must fit in L1; our speculation validates per
    node and has no capacity limit, so the width is re-derived here. *)

let run_leaf_sweep () =
  Report.heading "Table 1 (tuning): leaf-size sweep, 50/50 find/insert mix @250ns";
  let warm = Env.scaled 50_000 in
  let nops = Env.scaled 25_000 in
  let leaf_sizes = [ 8; 16; 32; 56; 64 ] in
  let trees =
    [
      ("FPTree", fun m -> Trees.fptree_fixed ~m ());
      ("PTree", fun m -> Trees.ptree_fixed ~m ());
      ("wBTree", fun m -> Trees.wbtree_fixed ~leaf_m:m ());
      ("NV-Tree", fun m -> Trees.nvtree_fixed ~cap:m ());
    ]
  in
  let results =
    List.map
      (fun (name, mk) ->
        ( name,
          List.map
            (fun m ->
              Env.single ();
              let t = mk m in
              let perm = Workloads.Keygen.permutation ~seed:9 warm in
              Array.iter (fun i -> ignore (t.Trees.insert (i * 2) 1)) perm;
              let run () =
                for j = 0 to nops - 1 do
                  if j land 1 = 0 then ignore (t.Trees.find (2 * (j mod warm)))
                  else ignore (t.Trees.insert ((2 * j) + 1) j)
                done
              in
              let modeled, _ = Report.measure_modeled ~latencies_ns:[ 250. ] ~n:nops run in
              (m, List.assoc 250. modeled))
            leaf_sizes ))
      trees
  in
  Report.table
    ~rows:(List.map fst trees)
    ~headers:(List.map string_of_int leaf_sizes)
    ~cell:(fun name h ->
      Report.us (List.assoc (int_of_string h) (List.assoc name results)));
  (* report the argmin per tree, mirroring the paper's chosen sizes *)
  List.iter
    (fun (name, series) ->
      let best, t =
        List.fold_left
          (fun (bm, bt) (m, t) -> if t < bt then (m, t) else (bm, bt))
          (0, infinity) series
      in
      Report.note "%s: best leaf size %d (%.2f us/op)" name best t)
    results

(* ---- concurrent inner-width sweep ---- *)

module type CTREE = sig
  type t
  type key

  val create_concurrent :
    ?m:int -> ?value_bytes:int -> ?inner_keys:int -> Pmem.Palloc.t -> t

  val insert : t -> key -> int -> bool
  val find : t -> key -> int option
  val update : t -> key -> int -> bool
  val height : t -> int
  val dram_bytes : t -> int
  val htm_stats : t -> (string * int) list
end

(* A concurrent tree, its key of an integer and its arena bytes per key. *)
type tree =
  | Tree : {
      name : string;
      ops : (module CTREE with type key = 'k);
      key : int -> 'k;
      bytes_per_key : int;
    }
      -> tree

let conc_trees =
  [
    Tree { name = "FPTreeC"; ops = (module Fptree.Fixed); key = Fun.id;
           bytes_per_key = 64 };
    Tree { name = "FPTreeCVar"; ops = (module Fptree.Var);
           key = Workloads.Keygen.string_key_16; bytes_per_key = 256 };
  ]

let widths = [ 64; 128; 256; 512; 1024; 2048 ]
let domain_counts = [ 1; 2; 4 ]
let reps = 3

(* One cell's measurement. *)
type cell = {
  ops_s : float;
  height : int;
  aborts : float;  (** per op *)
  precise : float;  (** precise conflicts per op *)
  dram_per_key : float;
  build_s : float;
}

let stat k l = try List.assoc k l with Not_found -> 0

(* The two mixes of one tree kind.  [read ~inner_keys] and
   [insert ~inner_keys] return one cell per domain count. *)
type mixes = {
  read : inner_keys:int -> cell list;
  insert : inner_keys:int -> cell list;
}

(* Read-mostly: 95% find / 5% update of loaded keys, Zipf (theta 0.99)
   ranks scrambled over the key space.  [streams.(d)] is domain [d]'s
   op stream: key index [i], or [-i - 1] for an update. *)
let read_streams ~n ~len =
  let scramble = Workloads.Keygen.permutation ~seed:11 n in
  Array.init (List.fold_left max 1 domain_counts) (fun d ->
      let z = Workloads.Zipf.create ~theta:0.99 ~n ~seed:(17 + d) () in
      let rng = Random.State.make [| 13; d |] in
      Array.init len (fun _ ->
          let i = scramble.(Workloads.Zipf.next z) in
          if Random.State.int rng 100 < 5 then -i - 1 else i))

let mixes (Tree t) ~n ~nops ~streams ~warm ~ins =
  let module T = (val t.ops) in
  (* [count] keys [key (i * stride)], inserted by one domain in a
     shuffled order *)
  let build ~inner_keys ~count ~stride =
    Gc.compact ();
    Env.parallel ~latency_ns:90. ();
    let a =
      Pmem.Palloc.create ~size:((count * t.bytes_per_key) + (32 * 1024 * 1024)) ()
    in
    let tr = T.create_concurrent ~m:64 ~inner_keys a in
    let perm = Workloads.Keygen.permutation ~seed:9 count in
    let t0 = Obs.Clock.now_s () in
    Array.iter (fun i -> ignore (T.insert tr (t.key (i * stride)) 1)) perm;
    (tr, Obs.Clock.now_s () -. t0)
  in
  (* [body] on [domains] domains over [nops] ops *)
  let measure tr ~keys ~build_s ~domains ~nops body =
    let h0 = T.htm_stats tr in
    let _wall, eff = Workloads.Domain_pool.run_cpu ~domains body in
    let h1 = T.htm_stats tr in
    let per k = float_of_int (stat k h1 - stat k h0) /. float_of_int nops in
    { ops_s = float_of_int nops /. eff; height = T.height tr;
      aborts = per "aborts"; precise = per "precise_conflicts";
      dram_per_key = float_of_int (T.dram_bytes tr) /. float_of_int keys; build_s }
  in
  let keys = Array.init n t.key in
  let read ~inner_keys =
    let tr, build_s = build ~inner_keys ~count:n ~stride:1 in
    List.map
      (fun domains ->
        let per = nops / domains in
        let body d =
          let s = streams.(d) in
          for j = 0 to per - 1 do
            let e = s.(j) in
            if e >= 0 then ignore (T.find tr keys.(e))
            else ignore (T.update tr keys.(-e - 1) j)
          done
        in
        measure tr ~keys:n ~build_s ~domains ~nops:(per * domains) body)
      domain_counts
  in
  (* Figure 10's Insert mix: [warm] even keys, then [ins] odd keys in a
     shuffled order, partitioned across the domains; a fresh tree per
     domain count *)
  let ins_perm = Workloads.Keygen.permutation ~seed:51 ins in
  let insert ~inner_keys =
    List.map
      (fun domains ->
        let tr, build_s = build ~inner_keys ~count:warm ~stride:2 in
        let body d =
          let lo, hi = Workloads.Domain_pool.slice ~domains ~total:ins d in
          for j = lo to hi - 1 do
            ignore (T.insert tr (t.key ((ins_perm.(j) * 2) + 1)) j)
          done
        in
        measure tr ~keys:(warm + ins) ~build_s ~domains ~nops:ins body)
      domain_counts
  in
  { read; insert }

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  a.(Array.length a / 2)

let run_concurrent_sweep () =
  let n = Env.scaled 1_000_000 in
  let nops = Env.scaled 1_000_000 in
  let warm = Env.scaled 100_000 and ins = Env.scaled 100_000 in
  Report.heading
    (Printf.sprintf
       "Table 1 (concurrent): inner-width sweep, m = 64, median of %d interleaved runs"
       reps);
  let streams = read_streams ~n ~len:nops in
  let runs =
    List.map (fun tree -> (tree, mixes tree ~n ~nops ~streams ~warm ~ins)) conc_trees
  in
  let mix_names =
    [
      (Printf.sprintf "read-mostly 95/5 Zipf, %d keys" n, fun m -> m.read);
      (Printf.sprintf "Insert (fig10), %d + %d keys" warm ins, fun m -> m.insert);
    ]
  in
  (* results.(tree, mix, width) = one cell list (per domain count) per rep;
     each rep visits the widths in a rotated order *)
  let results = Hashtbl.create 64 in
  let nw = List.length widths in
  for r = 0 to reps - 1 do
    List.iteri
      (fun i _ ->
        let w = List.nth widths ((i + r) mod nw) in
        List.iter
          (fun (Tree t, m) ->
            List.iter
              (fun (mix, run) ->
                let k = (t.name, mix, w) in
                let prev = Option.value ~default:[] (Hashtbl.find_opt results k) in
                Hashtbl.replace results k (run m ~inner_keys:w :: prev))
              mix_names)
          runs)
      widths
  done;
  (* the median of one field over the reps, at domain count [d] *)
  let med k d f =
    median (List.map (fun cells -> f (List.nth cells d)) (Hashtbl.find results k))
  in
  let di d = let rec go i = function
      | x :: _ when x = d -> i | _ :: r -> go (i + 1) r | [] -> raise Not_found in
    go 0 domain_counts
  in
  let cols =
    List.map (fun d -> (Printf.sprintf "kops/s %dd" d, fun k ->
         Report.f1 (med k (di d) (fun c -> c.ops_s /. 1e3)))) domain_counts
    @ List.concat_map (fun d ->
        if d = 1 then []
        else
          [ (Printf.sprintf "abort/op %dd" d, fun k ->
                Printf.sprintf "%.4f" (med k (di d) (fun c -> c.aborts)));
            (Printf.sprintf "pc/op %dd" d, fun k ->
                Printf.sprintf "%.4f" (med k (di d) (fun c -> c.precise))) ])
        domain_counts
    @ [ ("height", fun k -> string_of_int (List.hd (List.hd (Hashtbl.find results k))).height);
        ("DRAM B/key", fun k -> Report.f2 (med k 0 (fun c -> c.dram_per_key)));
        ("build s", fun k -> Printf.sprintf "%.3f" (med k 0 (fun c -> c.build_s))) ]
  in
  List.iter
    (fun (Tree t) ->
      List.iter
        (fun (mix, _) ->
          Report.subheading (Printf.sprintf "%s, %s" t.name mix);
          Report.table
            ~rows:(List.map string_of_int widths)
            ~headers:(List.map fst cols)
            ~cell:(fun w h -> (List.assoc h cols) (t.name, mix, int_of_string w));
          List.iter
            (fun d ->
              let best =
                List.fold_left
                  (fun b w ->
                    if med (t.name, mix, w) (di d) (fun c -> c.ops_s)
                       > med (t.name, mix, b) (di d) (fun c -> c.ops_s)
                    then w else b)
                  (List.hd widths) widths
              in
              Report.note "%d domain(s): best width %d" d best)
            domain_counts)
        mix_names)
    conc_trees

let run () =
  run_leaf_sweep ();
  run_concurrent_sweep ()
