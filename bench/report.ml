(** Plain-text table output for the benchmark harness: each experiment
    prints the same rows/series its paper figure or table reports. *)

let heading title =
  let bar = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n" title bar

let subheading s = Printf.printf "\n-- %s --\n" s

(* Print a table: first column = row label, then one column per header. *)
let table ~rows ~headers ~cell =
  let w = 12 in
  Printf.printf "%-20s" "";
  List.iter (fun h -> Printf.printf "%*s" w h) headers;
  print_newline ();
  List.iter
    (fun r ->
      Printf.printf "%-20s" r;
      List.iter (fun h -> Printf.printf "%*s" w (cell r h)) headers;
      print_newline ())
    rows;
  flush stdout

let us v = Printf.sprintf "%.2f" v
let f1 v = Printf.sprintf "%.1f" v
let f2 v = Printf.sprintf "%.2f" v
let ms v = Printf.sprintf "%.1f" (v *. 1000.)
let mops v = Printf.sprintf "%.3f" (v /. 1e6)

let mib bytes = Printf.sprintf "%.2f" (float_of_int bytes /. 1024. /. 1024.)

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  (%s)\n" s) fmt

(* ---- measurement helpers ---- *)

(* Run [f] over [n] operations; return (avg modeled microseconds per op
   at each SCM read latency in [latencies_ns], wall seconds).
   Modeled time = wall + line_misses x (latency - dram latency), the
   substitution for the paper's BIOS-level latency emulation. *)
let measure_modeled ~latencies_ns ~n f =
  Scm.Stats.reset ();
  let before = Scm.Stats.snapshot () in
  let t0 = Obs.Clock.now_s () in
  f ();
  let wall = Obs.Clock.now_s () -. t0 in
  let s = Scm.Stats.diff before (Scm.Stats.snapshot ()) in
  let per_op lat =
    let extra_ns = Scm.Stats.modeled_extra_ns ~read_ns:lat s in
    ((wall *. 1e9) +. extra_ns) /. float_of_int n /. 1000.
  in
  (List.map (fun l -> (l, per_op l)) latencies_ns, wall)
