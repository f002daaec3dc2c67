(** Offline structural audit ("fsck") of a persistent FPTree region.

    Cross-checks the two independent sources of truth a region carries:
    the allocator's block headers (what is allocated) and the tree's
    persistent structure (what is referenced — the descriptor, the
    linked leaf list, leaf groups, out-of-line key blocks, and blocks
    parked in micro-logs mid-operation).  Divergence is classified as:

    - [dangling-link]: a next pointer names an unallocated or
      implausible target — the chain cannot be followed past it;
    - [double-link]: a leaf is linked twice (a shared tail or a cycle);
    - [orphan]: an allocated leaf- or group-sized block referenced by
      nothing — e.g. a leaf quarantined by recovery, or lost by a crash
      between allocation and publication;
    - [leak]: any other allocated-but-unreferenced block (typically an
      out-of-line key block no slot references);
    - [header-corrupt]: the tree descriptor itself fails validation;
      nothing else in the region can be trusted;
    - [leaf-corrupt] / [checksum-stale]: integrity-cell validation of
      chain leaves, when the tree was created with checksums.

    Repair mode fixes what can be fixed without inventing data: corrupt
    leaves and bad links are spliced out of the chain (committed
    16-byte pointer publishes, so a crash mid-repair re-converges), and
    orphans/leaks are reclaimed through the allocator's crash-safe
    {!Pmem.Palloc.free_orphan}.  Keys behind a truncated link are lost
    either way; repair recovers the space and a consistent remainder. *)

module Region = Scm.Region
module Pptr = Pmem.Pptr
module Palloc = Pmem.Palloc
module D = Fptree.Descriptor
module Layout = Fptree.Layout
module Microlog = Fptree.Microlog

type severity = Error | Warning

type finding = {
  severity : severity;
  cls : string;  (** [orphan], [leak], [dangling-link], [double-link], ... *)
  off : int;     (** region offset the finding is about *)
  detail : string;
  repaired : bool;
}

type report = {
  findings : finding list;  (** in discovery order *)
  blocks : int;             (** allocated blocks in the arena *)
  chain_leaves : int;       (** leaves reachable along the linked list *)
  keys : int;               (** committed entries in chain leaves *)
  repairs : int;            (** repair actions taken (repair mode) *)
}

let errors r =
  List.filter (fun f -> f.severity = Error && not f.repaired) r.findings

let pp_finding ppf f =
  Format.fprintf ppf "%s %-14s @@%-8d %s%s"
    (match f.severity with Error -> "E" | Warning -> "W")
    f.cls f.off f.detail
    (if f.repaired then "  [repaired]" else "")

(* ---- the audit ---- *)

type ctx = {
  region : Region.t;
  alloc : Palloc.t;
  repair : bool;
  mutable findings : finding list;  (* reverse discovery order *)
  mutable repairs : int;
  blocks : (int, int) Hashtbl.t;  (* allocated payload -> gross bytes *)
}

let note ?(repaired = false) ctx severity cls off detail =
  if repaired then ctx.repairs <- ctx.repairs + 1;
  ctx.findings <- { severity; cls; off; detail; repaired } :: ctx.findings

(* Reclaim through the allocator's crash-safe scratch cell; a failure
   here (e.g. the "orphan" was a stale duplicate of a freed block) is a
   finding, not a crash. *)
let reclaim ctx payload =
  match Palloc.free_orphan ctx.alloc ~payload with
  | () -> true
  | exception Invalid_argument msg ->
    note ctx Warning "unreclaimable" payload msg;
    false

(* A followable chain pointer: null, or an 8-aligned in-region span. *)
let plausible ctx ~span p =
  Pptr.is_null p
  || (p.Pptr.region_id = Region.id ctx.region
     && p.Pptr.off > 0
     && p.Pptr.off land 7 = 0
     && p.Pptr.off + span <= Region.size ctx.region)

let rec audit ctx =
  Palloc.iter_blocks ctx.alloc (fun ~payload ~bytes ~allocated ->
      if allocated then Hashtbl.replace ctx.blocks payload bytes);
  let rootp = Palloc.root ctx.alloc in
  if Pptr.is_null rootp then begin
    (* No tree was ever anchored: every allocated block is unowned. *)
    Hashtbl.iter
      (fun payload _ ->
        let repaired = ctx.repair && reclaim ctx payload in
        note ~repaired ctx Error "orphan" payload
          "allocated block in an arena with no root object")
      ctx.blocks;
    (0, 0)
  end
  else begin
    let meta = rootp.Pptr.off in
    match Hashtbl.find_opt ctx.blocks meta with
    | None ->
      note ctx Error "header-corrupt" meta
        "root pointer does not reference an allocated block";
      (0, 0)
    | Some meta_bytes_avail ->
      if not (D.initialized ctx.region ~meta) then begin
        note ctx Warning "uninitialized" meta
          "tree creation never completed (recovery will restart it)";
        (0, 0)
      end
      else begin
        (* Parse and validate the descriptor before trusting anything. *)
        match
          D.config_of_meta ctx.region meta ~avail:meta_bytes_avail
            Fptree.Tree.fptree_config
        with
        | Error what ->
          note ctx Error "header-corrupt" meta
            (Printf.sprintf "implausible descriptor field: %s" what);
          (0, 0)
        | Ok cfg -> audit_tree ctx meta cfg (D.key_kind ctx.region ~meta)
      end
  end

and audit_tree ctx meta cfg kind =
  let r = ctx.region in
  let layout =
    D.layout_of ~key_cell_bytes:(D.key_cell_bytes_of_kind kind) cfg
  in
  let group_bytes = D.group_bytes cfg layout in
  (* referenced[payload]: every block the tree structure accounts for *)
  let referenced = Hashtbl.create 256 in
  Hashtbl.replace referenced meta ();
  (* Blocks parked in micro-logs are mid-operation, not orphans:
     recovery completes or rolls back the owning operation. *)
  List.iter
    (fun slot ->
      let log = Microlog.make r (D.log_off cfg ~meta slot) in
      List.iter
        (fun p ->
          if (not (Pptr.is_null p)) && Hashtbl.mem ctx.blocks p.Pptr.off then
            Hashtbl.replace referenced p.Pptr.off ())
        [ Microlog.read_fst log; Microlog.read_snd log ])
    (D.log_slots cfg);
  (* Group list (single-threaded mode): leaves live inside group
     blocks, so account the groups and learn the valid leaf slots. *)
  let leaf_slots = Hashtbl.create 256 in
  if cfg.D.use_groups then begin
    let seen = Hashtbl.create 64 in
    let rec scan prev p =
      if not (Pptr.is_null p) then
        let g = p.Pptr.off in
        if Hashtbl.mem seen g then begin
          let repaired =
            ctx.repair
            && (Pptr.write_committed r prev Pptr.null; true)
          in
          note ~repaired ctx Error "double-link" g "group linked twice"
        end
        else if
          not (plausible ctx ~span:group_bytes p)
          || (match Hashtbl.find_opt ctx.blocks g with
             | Some b -> b < group_bytes
             | None -> true)
        then begin
          let repaired =
            ctx.repair
            && (Pptr.write_committed r prev Pptr.null; true)
          in
          note ~repaired ctx Error "dangling-link" g
            "group link to unallocated or implausible target"
        end
        else begin
          Hashtbl.replace seen g ();
          Hashtbl.replace referenced g ();
          for i = 0 to cfg.D.group_size - 1 do
            Hashtbl.replace leaf_slots (D.group_leaf layout g i) ()
          done;
          scan g (Pptr.read r g)
        end
    in
    scan (meta + D.meta_group_head) (Pptr.read r (meta + D.meta_group_head))
  end;
  (* A leaf the chain may legally visit. *)
  let leaf_addressable off =
    if cfg.D.use_groups then Hashtbl.mem leaf_slots off
    else
      match Hashtbl.find_opt ctx.blocks off with
      | Some b -> b >= layout.Layout.bytes
      | None -> false
  in
  (* Walk the leaf chain.  [prev] is the region offset of the pointer
     cell that got us here, so repair can splice over it with a
     committed (p-atomic publish) write. *)
  let chain = Hashtbl.create 1024 in
  let keys = ref 0 in
  let splice prev p = Pptr.write_committed r prev p in
  let rec walk prev p =
    if not (Pptr.is_null p) then begin
      let leaf = p.Pptr.off in
      if Hashtbl.mem chain leaf then begin
        let repaired = ctx.repair && (splice prev Pptr.null; true) in
        note ~repaired ctx Error "double-link" leaf
          "leaf linked twice (shared tail or cycle)"
      end
      else if not (plausible ctx ~span:layout.Layout.bytes p
                  && leaf_addressable leaf)
      then begin
        let repaired = ctx.repair && (splice prev Pptr.null; true) in
        note ~repaired ctx Error "dangling-link" leaf
          "next pointer to unallocated or implausible target"
      end
      else begin
        Hashtbl.replace chain leaf ();
        let next_cell = leaf + layout.Layout.next_off in
        match Layout.verify_checksum r ~leaf layout with
        | Layout.Csum_corrupt when cfg.D.checksums ->
          let next = Layout.read_next r ~leaf layout in
          let next =
            if plausible ctx ~span:layout.Layout.bytes next then next
            else Pptr.null
          in
          let repaired = ctx.repair && (splice prev next; true) in
          note ~repaired ctx Error "leaf-corrupt" leaf
            "content does not match its integrity cell";
          if repaired then begin
            (* Off the chain now: reclaimable (plain blocks) or left
               for the group scan below. *)
            Hashtbl.remove chain leaf;
            walk prev next
          end
          else walk next_cell next
        | Layout.Csum_stale ->
          if ctx.repair then Layout.write_checksum r ~leaf layout;
          note ~repaired:ctx.repair ctx Warning "checksum-stale" leaf
            "integrity cell older than the committed bitmap";
          keys := !keys + Layout.bitmap_count (Layout.read_bitmap r ~leaf layout);
          walk next_cell (Layout.read_next r ~leaf layout)
        | Layout.Csum_ok | Layout.Csum_corrupt ->
          keys := !keys + Layout.bitmap_count (Layout.read_bitmap r ~leaf layout);
          (* Out-of-line key blocks referenced from any slot (occupied,
             or in-flight in a free slot) are owned, not leaked. *)
          if kind <> 0 then
            for s = 0 to layout.Layout.m - 1 do
              let kp = Pptr.read r (Layout.key_off layout ~leaf ~slot:s) in
              if (not (Pptr.is_null kp)) && Hashtbl.mem ctx.blocks kp.Pptr.off
              then Hashtbl.replace referenced kp.Pptr.off ()
            done;
          walk next_cell (Layout.read_next r ~leaf layout)
      end
    end
  in
  walk (meta + D.meta_head) (Pptr.read r (meta + D.meta_head));
  if (not cfg.D.use_groups) then
    Hashtbl.iter (fun leaf () -> Hashtbl.replace referenced leaf ()) chain;
  (* Allocator cross-check: every allocated block must now be owned. *)
  let expected_orphan_bytes =
    if cfg.D.use_groups then group_bytes else D.leaf_span layout
  in
  let unowned =
    Hashtbl.fold
      (fun payload bytes acc ->
        if Hashtbl.mem referenced payload then acc
        else (payload, bytes) :: acc)
      ctx.blocks []
    |> List.sort compare
  in
  List.iter
    (fun (payload, bytes) ->
      let cls, detail =
        if bytes = expected_orphan_bytes then
          ( "orphan",
            if cfg.D.use_groups then "unlinked leaf group"
            else "allocated leaf not reachable from the chain" )
        else ("leak", "allocated block referenced by no structure")
      in
      let repaired = ctx.repair && reclaim ctx payload in
      note ~repaired ctx Error cls payload detail)
    unowned;
  (Hashtbl.length chain, !keys)

(** Audit the formatted arena in [region]; with [repair], additionally
    splice bad links, refresh stale integrity cells, and reclaim
    unowned blocks (all crash-safe, idempotent actions — re-running
    converges).  Raises [Failure] if the region is not an arena. *)
let check ?(repair = false) region =
  let alloc = Palloc.of_region region in
  let ctx =
    { region; alloc; repair; findings = []; repairs = 0;
      blocks = Hashtbl.create 256 }
  in
  let chain_leaves, keys = audit ctx in
  let report =
    {
      findings = List.rev ctx.findings;
      blocks = Hashtbl.length ctx.blocks;
      chain_leaves;
      keys;
      repairs = ctx.repairs;
    }
  in
  (* Structural corruption is a failure-detection point like a chaos
     divergence: when unrepaired errors remain and a crash-dump path is
     configured, persist the flight recorder alongside the report. *)
  (match errors report with
  | [] -> ()
  | errs ->
    ignore
      (Obs.Flight.crash_dump
         ~reason:(Printf.sprintf "fsck: %d unrepaired errors" (List.length errs))));
  report
