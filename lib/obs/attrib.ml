(** SCM write attribution: a (component × op-kind) matrix of persist
    traffic, charged by the instrumented [Scm.Region] paths.

    The paper's design argument is entirely about {e where} SCM writes
    land — fingerprints cut line reads, the micro-log bounds persists
    per split, leaf-only persistence keeps inner-node churn in DRAM —
    yet the global [scm_*_total] counters can only say {e how many}.
    This module answers {e which component caused them}: call sites in
    [lib/fptree] / [lib/pmem] open an ambient, domain-local attribution
    scope naming the component being persisted (and the tree operation
    in progress), and the instrumented store/flush/persist paths charge
    bytes, flushed lines, flushes and persists to the matrix cell the
    ambient scope names.

    Discipline (mirrors [Pmtrace] / [Sched] gating):

    - {b Exactness by construction.}  Every charge that increments a
      global [scm_*_total] counter also increments exactly one matrix
      cell — unscoped traffic lands in ([other], [other]) rather than
      being dropped — so per-cell sums equal the global counters
      {e exactly}, on any number of domains (cells are striped per
      domain like {!Counter} shards).  Tests and the bench_check [wear]
      stage enforce this equality.
    - {b Zero cost off, allocation-free on.}  With attribution disabled
      (fast mode), scope open/close is one test of the [Gate] mode
      word; nothing else runs.  Enabled, a scope is two unsafe array
      accesses on a padded per-domain slot — no allocation, so the
      hot-path minor-words pins hold in both modes.
    - {b Leak tolerance.}  Scopes are set/restore, not a stack; an
      exception escaping between set and restore (crash injection)
      leaves the component set until the next scope overwrites it.
      That can misattribute a few charges after an injected crash but
      can never lose one, so exactness survives.

    The matrix is exported through {!Registry} as labeled series
    ([scm_attrib_*_total{component=...,op=...}]) that render in both
    the Prometheus text format and the round-trippable JSON dump. *)

(* ---- label taxonomy (closed sets; indices are wire-stable) ---- *)

let comp_other = 0        (* anything outside an attribution scope *)
let comp_microlog = 1     (* split/delete micro-log arms and resets *)
let comp_bitmap = 2       (* leaf validity bitmap commits *)
let comp_fingerprint = 3  (* one-byte key fingerprints *)
let comp_kv = 4           (* in-leaf key/value slot writes *)
let comp_ool_key = 5      (* out-of-line variable-length key blocks *)
let comp_alloc_meta = 6   (* allocator bump/free-list/log metadata *)
let comp_tree_meta = 7    (* tree meta page, root pointer, leaf links *)
let comp_recovery = 8     (* recovery-time repairs and quarantine *)
let comp_reclaim = 9      (* space reclamation passes *)
let n_comps = 10

let comp_name =
  [| "other"; "microlog"; "bitmap"; "fingerprint"; "kv"; "ool_key";
     "alloc_meta"; "tree_meta"; "recovery"; "reclaim" |]

let op_other = 0
let op_insert = 1
let op_update = 2
let op_delete = 3
let op_find = 4    (* in the taxonomy for completeness; finds never persist *)
let op_create = 5
let op_recover = 6
let op_reclaim = 7
let n_ops = 8

let op_name =
  [| "other"; "insert"; "update"; "delete"; "find"; "create"; "recover";
     "reclaim" |]

(* quantities charged per cell *)
let q_bytes = 0    (* payload bytes stored (instrumented store paths) *)
let q_lines = 1    (* cache lines written back by flushes *)
let q_flushes = 2  (* CLFLUSH-equivalent calls *)
let q_persists = 3 (* persist() calls *)
let n_quants = 4

let quant_name = [| "store_bytes"; "line_writes"; "flushes"; "persists" |]

(* ---- state ---- *)

(* Same striping as {!Counter}: each domain charges its own stripe of
   the matrix (slot = domain id mod [stripes]), so increments are
   uncontended and totals are exact under parallel domains.  A cell is
   a boxed [int Atomic.t] — colliding domain ids share a stripe safely. *)
let stripes = 64
let stripe_cells = n_comps * n_ops * n_quants

let cells =
  Array.init (stripes * stripe_cells) (fun _ -> Atomic.make 0)

(* Ambient (component, op) per domain: two ints in a padded slot of a
   plain array.  Each domain writes only its own slot, so no atomics
   are needed; [pad] = 16 words keeps slots a cache line pair apart. *)
let pad = 16
let ambient = Array.make (stripes * pad) 0

(* Gate: the [stats] bit of the mode word, the same switch as the
   counters the cells feed; a fast-mode scope open is one mask test. *)
let[@inline] enabled () = Gate.any Gate.stats

let[@inline] slot () = ((Domain.self () :> int) land (stripes - 1)) * pad

(* ---- scopes ---- *)

let[@inline] set_component c =
  if not (enabled ()) then 0
  else begin
    let i = slot () in
    let prev = Array.unsafe_get ambient i in
    Array.unsafe_set ambient i c;
    prev
  end

let[@inline] restore_component prev =
  if enabled () then Array.unsafe_set ambient (slot ()) prev

let[@inline] set_op k =
  if not (enabled ()) then 0
  else begin
    let i = slot () + 1 in
    let prev = Array.unsafe_get ambient i in
    Array.unsafe_set ambient i k;
    prev
  end

let[@inline] restore_op prev =
  if enabled () then Array.unsafe_set ambient (slot () + 1) prev

let[@inline] ambient_component () =
  Array.unsafe_get ambient (slot ())

(* ---- charging (called by [Scm.Stats] on the instrumented path) ---- *)

let[@inline] cell q =
  let s = (Domain.self () :> int) land (stripes - 1) in
  let a = s * pad in
  let c = Array.unsafe_get ambient a in
  let k = Array.unsafe_get ambient (a + 1) in
  Array.unsafe_get cells
    ((((s * n_comps) + c) * n_ops + k) * n_quants + q)

let[@inline] add_bytes n =
  if n <> 0 then ignore (Atomic.fetch_and_add (cell q_bytes) n)

let[@inline] add_line () = Atomic.incr (cell q_lines)
let[@inline] add_flush () = Atomic.incr (cell q_flushes)
let[@inline] add_persist () = Atomic.incr (cell q_persists)

(* ---- read side ---- *)

let value ~comp ~op q =
  let acc = ref 0 in
  for s = 0 to stripes - 1 do
    acc :=
      !acc
      + Atomic.get
          (Array.unsafe_get cells
             ((((s * n_comps) + comp) * n_ops + op) * n_quants + q))
  done;
  !acc

(** Sum over op kinds for one component. *)
let comp_total ~comp q =
  let acc = ref 0 in
  for op = 0 to n_ops - 1 do
    acc := !acc + value ~comp ~op q
  done;
  !acc

(** Sum over the whole matrix: must equal the matching global
    [scm_*_total] counter on instrumented runs. *)
let total q =
  let acc = ref 0 in
  for comp = 0 to n_comps - 1 do
    acc := !acc + comp_total ~comp q
  done;
  !acc

(** Non-zero cells of quantity [q] as [(comp, op, value)], component-
    then op-ordered. *)
let rows q =
  let acc = ref [] in
  for comp = n_comps - 1 downto 0 do
    for op = n_ops - 1 downto 0 do
      let v = value ~comp ~op q in
      if v <> 0 then acc := (comp, op, v) :: !acc
    done
  done;
  !acc

let reset () =
  Array.iter (fun c -> Atomic.set c 0) cells

(* ---- registry export ---- *)

let () =
  Array.iteri
    (fun q qn ->
      Registry.labeled
        (Printf.sprintf "scm_attrib_%s_total" qn)
        ~help:
          (Printf.sprintf "SCM %s by (component, op); sums to scm_%s_total"
             qn qn)
        (fun () ->
          List.map
            (fun (comp, op, v) ->
              ( [ ("component", comp_name.(comp)); ("op", op_name.(op)) ],
                v ))
            (rows q)))
    quant_name
