(** Figure 4: expected number of in-leaf key probes during a successful
    search, FPTree (fingerprints) vs NV-Tree (reverse linear scan) vs
    wBTree (binary search) — the analytical curves of Section 4.2, plus
    a measured validation at leaf sizes the crash-safe layouts support. *)

let mk_tree name m =
  match name with
  | "FPTree" -> Trees.fptree_fixed ~m ()
  | "NV-Tree" -> Trees.nvtree_fixed ~cap:m ()
  | _ -> Trees.wbtree_fixed ~leaf_m:m ()

let run () =
  Report.heading "Figure 4: expected in-leaf key probes per successful search";
  let ms = [ 4; 8; 16; 32; 64; 128; 256 ] in
  Report.table
    ~rows:(List.map string_of_int ms)
    ~headers:[ "FPTree"; "NV-Tree"; "wBTree" ]
    ~cell:(fun r h ->
      let m = int_of_string r in
      let v =
        match h with
        | "FPTree" -> Fptree.Fingerprint.expected_probes_fptree m
        | "NV-Tree" -> Fptree.Fingerprint.expected_probes_nvtree m
        | "wBTree" -> Fptree.Fingerprint.expected_probes_wbtree m
        | _ -> nan
      in
      Report.f2 v);
  Report.subheading "measured key probes per Find (uniform keys)";
  let n = Env.scaled 20_000 in
  Report.table
    ~rows:(List.map string_of_int [ 8; 16; 32; 56; 64 ])
    ~headers:[ "FPTree"; "NV-Tree"; "wBTree" ]
    ~cell:(fun r h ->
      let m = int_of_string r in
      Env.single ();
      let t = mk_tree h m in
      let keys = Workloads.Keygen.permutation ~seed:11 n in
      Array.iter (fun k -> ignore (t.Trees.insert k k)) keys;
      t.Trees.reset_probes ();
      Array.iter (fun k -> ignore (t.Trees.find k)) keys;
      Report.f2 (float_of_int (t.Trees.probes ()) /. float_of_int n));
  Report.note
    "measured wBTree probes include its SCM inner-node binary searches; the \
     analytical curve counts the leaf only"
