type line_stat = { line : int; count : int; comps : int }

type report = {
  store_bytes : int;
  line_writes : int;
  flushes : int;
  persists : int;
  write_amplification : float;
  lines_touched : int;
  max_line_writes : int;
  mean_line_writes : float;
  gini : float;
  sample_shift : int;
  top : line_stat list;
}

let comp_names_of_mask mask =
  let acc = ref [] in
  for c = Obs.Attrib.n_comps - 1 downto 0 do
    if mask land (1 lsl c) <> 0 then acc := Obs.Attrib.comp_name.(c) :: !acc
  done;
  !acc

(* Gini coefficient of the non-zero counts: with the counts sorted
   ascending (1-based rank i), G = 2*Σ(i*x_i) / (n*Σx) − (n+1)/n. *)
let gini counts =
  let xs = List.sort compare counts in
  let n = List.length xs in
  if n = 0 then 0.
  else begin
    let sum = List.fold_left ( + ) 0 xs in
    if sum = 0 then 0.
    else begin
      let weighted = ref 0 in
      List.iteri (fun i x -> weighted := !weighted + ((i + 1) * x)) xs;
      (2. *. float_of_int !weighted /. (float_of_int n *. float_of_int sum))
      -. (float_of_int (n + 1) /. float_of_int n)
    end
  end

let top_k ~k counts comps =
  let stats = ref [] in
  Array.iteri
    (fun line c ->
      if c > 0 then stats := { line; count = c; comps = comps.(line) } :: !stats)
    counts;
  let sorted =
    List.sort
      (fun a b ->
        match compare b.count a.count with 0 -> compare a.line b.line | c -> c)
      !stats
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take k sorted

let report ?(k = 10) region =
  let s = Stats.snapshot () in
  let store_bytes = Stats.store_bytes () in
  let counts, comps =
    match Region.heatmap region with
    | Some (c, m) -> (c, m)
    | None -> ([||], [||])
  in
  let touched = ref 0 and maxc = ref 0 and sumc = ref 0 in
  let nonzero = ref [] in
  Array.iter
    (fun c ->
      if c > 0 then begin
        incr touched;
        sumc := !sumc + c;
        if c > !maxc then maxc := c;
        nonzero := c :: !nonzero
      end)
    counts;
  {
    store_bytes;
    line_writes = s.Stats.line_writes;
    flushes = s.Stats.flushes;
    persists = s.Stats.persists;
    write_amplification =
      (if store_bytes = 0 then 0.
       else
         float_of_int (Cacheline.line_size * s.Stats.line_writes)
         /. float_of_int store_bytes);
    lines_touched = !touched;
    max_line_writes = !maxc;
    mean_line_writes =
      (if !touched = 0 then 0.
       else float_of_int !sumc /. float_of_int !touched);
    gini = gini !nonzero;
    sample_shift = Config.current.heatmap_sample_shift;
    top = top_k ~k counts comps;
  }

(* ---- exactness cross-check: matrix sums vs the global counters ---- *)

type check_row = { quantity : string; global : int; matrix : int }

(** The headline invariant: each whole-matrix sum must equal its global
    [scm_*_total] counter {e exactly} (both are charged by the same
    [Stats] increment).  Any drift means an attribution charge was
    dropped or double-counted — tests and the bench_check [wear] stage
    fail on it. *)
let crosscheck () =
  let s = Stats.snapshot () in
  [
    {
      quantity = "store_bytes";
      global = Stats.store_bytes ();
      matrix = Obs.Attrib.(total q_bytes);
    };
    {
      quantity = "line_writes";
      global = s.Stats.line_writes;
      matrix = Obs.Attrib.(total q_lines);
    };
    {
      quantity = "flushes";
      global = s.Stats.flushes;
      matrix = Obs.Attrib.(total q_flushes);
    };
    {
      quantity = "persists";
      global = s.Stats.persists;
      matrix = Obs.Attrib.(total q_persists);
    };
  ]

let crosscheck_ok rows = List.for_all (fun r -> r.global = r.matrix) rows

(* ---- heatmap JSON (sparse; round-trips through Obs.Json.parse) ---- *)

let heatmap_to_json region =
  let cells =
    match Region.heatmap region with
    | None -> []
    | Some (counts, comps) ->
      let acc = ref [] in
      for line = Array.length counts - 1 downto 0 do
        if counts.(line) > 0 then
          acc :=
            Obs.Json.Obj
              [
                ("line", Obs.Json.Int line);
                ("count", Obs.Json.Int counts.(line));
                ( "comps",
                  Obs.Json.Arr
                    (List.map
                       (fun n -> Obs.Json.Str n)
                       (comp_names_of_mask comps.(line))) );
              ]
            :: !acc
      done;
      !acc
  in
  Obs.Json.Obj
    [
      ("region", Obs.Json.Int (Region.id region));
      ("lines", Obs.Json.Int (Region.heat_lines region));
      ("sample_shift", Obs.Json.Int Config.current.heatmap_sample_shift);
      ("cells", Obs.Json.Arr cells);
    ]

(** Parse a heatmap dump back into sparse [(line, count, comp_mask)]
    cells (ascending line order).  Unknown component names raise
    [Obs.Json.Parse_error]. *)
let heatmap_of_json j =
  let comp_index name =
    let rec find i =
      if i >= Obs.Attrib.n_comps then
        raise
          (Obs.Json.Parse_error (Printf.sprintf "unknown component %S" name))
      else if Obs.Attrib.comp_name.(i) = name then i
      else find (i + 1)
    in
    find 0
  in
  Obs.Json.member "cells" j |> Obs.Json.to_list
  |> List.map (fun cell ->
         let line = Obs.Json.(to_int (member "line" cell)) in
         let count = Obs.Json.(to_int (member "count" cell)) in
         let comps =
           Obs.Json.member "comps" cell |> Obs.Json.to_list
           |> List.fold_left
                (fun m c -> m lor (1 lsl comp_index (Obs.Json.to_string_val c)))
                0
         in
         (line, count, comps))

(** The region's current sparse cells in the same shape
    [heatmap_of_json] returns — the round-trip comparand. *)
let heatmap_cells region =
  match Region.heatmap region with
  | None -> []
  | Some (counts, comps) ->
    let acc = ref [] in
    for line = Array.length counts - 1 downto 0 do
      if counts.(line) > 0 then
        acc := (line, counts.(line), comps.(line)) :: !acc
    done;
    !acc

(* ---- pretty report ---- *)

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>store_bytes         %d@,\
     line_writes         %d  (%d media bytes)@,\
     flushes             %d@,\
     persists            %d@,\
     write_amplification %.3f@,\
     lines_touched       %d@,\
     max/mean line writes %d / %.2f  (sample_shift %d)@,\
     gini                %.4f@]"
    r.store_bytes r.line_writes
    (Cacheline.line_size * r.line_writes)
    r.flushes r.persists r.write_amplification r.lines_touched
    r.max_line_writes r.mean_line_writes r.sample_shift r.gini
