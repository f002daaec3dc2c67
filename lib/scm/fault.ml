(** The fault injector: five sites, each a self-disarming countdown
    (see the interface for the table of sites). *)

type site =
  | Persist_crash
  | Persist_skip
  | Torn_store
  | Alloc_crash
  | Alloc_full

exception Crash_injected

let index = function
  | Persist_crash -> 0
  | Persist_skip -> 1
  | Torn_store -> 2
  | Alloc_crash -> 3
  | Alloc_full -> 4

(* Bit [index site] is set while [site] is armed: the hooks' one test. *)
let armed_bits = ref 0

(* Events left before the armed event, and the seed of the last arm. *)
let left = Array.make 5 0
let seeds = Array.make 5 0

let[@inline] armed site = !armed_bits land (1 lsl index site) <> 0

let disarm site = armed_bits := !armed_bits land lnot (1 lsl index site)

let arm ?(seed = 0) site n =
  if n < 1 then invalid_arg "Fault.arm: n must be >= 1";
  left.(index site) <- n;
  seeds.(index site) <- seed;
  armed_bits := !armed_bits lor (1 lsl index site)

let[@inline never] countdown site =
  let n = left.(index site) - 1 in
  left.(index site) <- n;
  if n = 0 then disarm site;
  n = 0

let[@inline] fires site = armed site && countdown site

let seed site = seeds.(index site)

let reset () = armed_bits := 0

let inject ?seed site n f =
  arm ?seed site n;
  match f () with
  | () ->
    let fired = not (armed site) in
    disarm site;
    fired
  | exception Crash_injected when not (armed site) -> true
  | exception e ->
    disarm site;
    raise e

let sweep ?(stride = 1) site run =
  if stride < 1 then invalid_arg "Fault.sweep: stride must be >= 1";
  let rec go k fired =
    let reached = ref None in
    run k (fun f ->
        let r = inject site k f in
        reached := Some r;
        r);
    match !reached with
    | None -> invalid_arg "Fault.sweep: the run did not inject"
    | Some true -> go (k + stride) (fired + 1)
    | Some false -> fired
  in
  go 1 0
