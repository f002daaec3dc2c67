(** Offline crash-consistency analyzer (see analyzer.mli).

    The replay mirrors the simulator's persistence semantics exactly:
    stores dirty 8-byte words, [Region.persist] flushes every 64-byte
    line overlapping its range and cleans all words of those lines.
    Scope labels ([Scope_begin]/[Scope_end], decoded from the flight
    recorder's op records) delimit one operation per domain; the
    protocol checks only fire inside a scope, because recovery
    legitimately writes without locks and publishes with different
    ordering (it runs before the tree is reachable, under no op
    record). *)

module T = Trace_io

type severity = Info | Warn | Error

type finding = {
  cls : string;
  severity : severity;
  index : int;
  domain : int;
  region : int;
  site : string;
  detail : string;
}

let severity_label = function Info -> "info" | Warn -> "warn" | Error -> "error"

let pp_finding ppf f =
  Format.fprintf ppf "[%s] %s @@%d dom=%d reg=%d site=%s: %s"
    (severity_label f.severity) f.cls f.index f.domain f.region
    (if f.site = "" then "-" else f.site)
    f.detail

let errors fs = List.filter (fun f -> f.severity = Error) fs

let summary fs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun f ->
      Hashtbl.replace tbl f.cls (1 + Option.value ~default:0 (Hashtbl.find_opt tbl f.cls)))
    fs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ---- replay state ---- *)

type word = {
  mutable w_idx : int;     (* trace index of the latest dirtying store *)
  mutable w_domain : int;
  mutable w_changed : bool (* any store since the last flush changed bytes *)
}

type track = {
  t_leaf : int;
  mutable t_holder : int option;
  mutable t_wr : int;
      (* open per-node version write phases (Ver_begin depth): content
         mutations of a locked leaf must happen inside one, otherwise
         optimistic readers can validate against a half-written leaf *)
}
(* One lock-tracked leaf extent; registered under every line it spans. *)

type region_state = {
  dirty : (int, word) Hashtbl.t;        (* word offset -> state *)
  lines : (int, track) Hashtbl.t;       (* line number  -> tracked leaf *)
  mutable leaf_bytes : int;             (* leaf extent size, 0 = unknown *)
}

type domain_state = {
  mutable scope_stack : (string * int) list; (* (op, begin index) *)
  scope_flushes : (int * int, int ref) Hashtbl.t; (* (region, line) -> n *)
}

let analyze ?(leaf_bytes = 0) (events : T.event array) =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let regions : (int, region_state) Hashtbl.t = Hashtbl.create 4 in
  let domains : (int, domain_state) Hashtbl.t = Hashtbl.create 4 in
  let armed : (int * int, int) Hashtbl.t = Hashtbl.create 4 in
  (* (region, log offset) -> arming domain *)
  let region_state r =
    match Hashtbl.find_opt regions r with
    | Some s -> s
    | None ->
      let s = { dirty = Hashtbl.create 64; lines = Hashtbl.create 64; leaf_bytes } in
      Hashtbl.add regions r s;
      s
  in
  let domain_state d =
    match Hashtbl.find_opt domains d with
    | Some s -> s
    | None ->
      let s = { scope_stack = []; scope_flushes = Hashtbl.create 16 } in
      Hashtbl.add domains d s;
      s
  in
  let scope_begin_idx d =
    match (domain_state d).scope_stack with (_, i) :: _ -> Some i | [] -> None
  in
  let words_of ~off ~len f =
    let w0 = off land lnot 7 and w1 = (off + len - 1) land lnot 7 in
    let w = ref w0 in
    while !w <= w1 do
      f !w;
      w := !w + 8
    done
  in
  let lines_of ~off ~len f =
    let l0 = off lsr 6 and l1 = (off + len - 1) lsr 6 in
    for l = l0 to l1 do
      f l
    done
  in
  let n = Array.length events in
  for i = 0 to n - 1 do
    let ev = events.(i) in
    let mk cls severity detail =
      add { cls; severity; index = i; domain = ev.T.domain;
            region = ev.T.region; site = ev.T.site; detail }
    in
    match ev.T.kind with
    | T.Store { off; len; silent } ->
      let rs = region_state ev.T.region in
      (* lock discipline: stores into a tracked leaf extent require the
         storing domain to hold that leaf's lock *)
      let raced = ref false in
      lines_of ~off ~len (fun l ->
          if not !raced then
            match Hashtbl.find_opt rs.lines l with
            | Some tr when tr.t_holder <> Some ev.T.domain ->
              raced := true;
              mk "leaf-lock-race" Error
                (Printf.sprintf
                   "store [%d..%d) hits leaf %d %s"
                   off (off + len) tr.t_leaf
                   (match tr.t_holder with
                   | None -> "whose lock is not held"
                   | Some d -> Printf.sprintf "locked by domain %d" d))
            | Some tr when tr.t_wr = 0 ->
              (* holder matches but no version write phase is open:
                 concurrent optimistic readers would not see this
                 mutation in their read-set validation *)
              raced := true;
              mk "unversioned-leaf-store" Error
                (Printf.sprintf
                   "store [%d..%d) mutates locked leaf %d outside a \
                    version write phase"
                   off (off + len) tr.t_leaf)
            | _ -> ());
      words_of ~off ~len (fun w ->
          match Hashtbl.find_opt rs.dirty w with
          | Some ws ->
            ws.w_idx <- i;
            ws.w_domain <- ev.T.domain;
            ws.w_changed <- ws.w_changed || not silent
          | None ->
            Hashtbl.add rs.dirty w
              { w_idx = i; w_domain = ev.T.domain; w_changed = not silent })
    | T.Flush { off; len } ->
      let rs = region_state ev.T.region in
      let ds = domain_state ev.T.domain in
      let covered = ref 0 and changed = ref 0 in
      lines_of ~off ~len (fun l ->
          (if ds.scope_stack <> [] then
             match Hashtbl.find_opt ds.scope_flushes (ev.T.region, l) with
             | Some r -> incr r
             | None -> Hashtbl.add ds.scope_flushes (ev.T.region, l) (ref 1));
          let base = l lsl 6 in
          for k = 0 to 7 do
            let w = base + (k * 8) in
            match Hashtbl.find_opt rs.dirty w with
            | Some ws ->
              incr covered;
              if ws.w_changed then incr changed;
              Hashtbl.remove rs.dirty w
            | None -> ()
          done);
      if !covered = 0 then
        mk "redundant-flush" Warn
          (Printf.sprintf "flush [%d..%d) covers no dirty word" off (off + len))
      else if !changed = 0 then
        mk "silent-flush" Info
          (Printf.sprintf
             "flush [%d..%d): all %d dirty words rewrote their existing bytes"
             off (off + len) !covered)
    | T.Fence -> ()
    | T.Publish { off; len = _; what } ->
      (match scope_begin_idx ev.T.domain with
      | None -> ()
      | Some begin_idx ->
        let rs = region_state ev.T.region in
        Hashtbl.iter
          (fun w ws ->
            if ws.w_domain = ev.T.domain && ws.w_idx >= begin_idx then
              mk "missing-persist" Error
                (Printf.sprintf
                   "word %d (store @@%d) dirty at %s publication (off %d)"
                   w ws.w_idx what off))
          rs.dirty)
    | T.Link_write { off; len } ->
      if ev.T.site <> "" then begin
        let logged = Hashtbl.fold (fun _ d acc -> acc || d = ev.T.domain) armed false in
        if not logged then
          mk "unlogged-link-write" Error
            (Printf.sprintf
               "next-pointer overwrite [%d..%d) with no armed micro-log"
               off (off + len))
      end
    | T.Log_arm { log } -> Hashtbl.replace armed (ev.T.region, log) ev.T.domain
    | T.Log_reset { log } -> Hashtbl.remove armed (ev.T.region, log)
    | T.Lock_acquire { leaf } ->
      let rs = region_state ev.T.region in
      let bytes = if rs.leaf_bytes > 0 then rs.leaf_bytes else 64 in
      let tr = { t_leaf = leaf; t_holder = Some ev.T.domain; t_wr = 0 } in
      lines_of ~off:leaf ~len:bytes (fun l -> Hashtbl.replace rs.lines l tr)
    | T.Lock_release { leaf } ->
      let rs = region_state ev.T.region in
      (match Hashtbl.find_opt rs.lines (leaf lsr 6) with
      | Some tr when tr.t_leaf = leaf -> tr.t_holder <- None
      | _ -> ())
    | T.Leaf_retired { leaf } ->
      let rs = region_state ev.T.region in
      let bytes = if rs.leaf_bytes > 0 then rs.leaf_bytes else 64 in
      lines_of ~off:leaf ~len:bytes (fun l ->
          match Hashtbl.find_opt rs.lines l with
          | Some tr when tr.t_leaf = leaf -> Hashtbl.remove rs.lines l
          | _ -> ())
    | T.Leaf_layout { bytes } -> (region_state ev.T.region).leaf_bytes <- bytes
    | T.Track_reset -> Hashtbl.reset (region_state ev.T.region).lines
    | T.Ver_begin { leaf } ->
      let rs = region_state ev.T.region in
      (match Hashtbl.find_opt rs.lines (leaf lsr 6) with
      | Some tr when tr.t_leaf = leaf ->
        if tr.t_holder <> Some ev.T.domain then
          mk "unlocked-version-phase" Error
            (Printf.sprintf
               "version write phase on leaf %d %s" leaf
               (match tr.t_holder with
               | None -> "whose lock is not held"
               | Some d -> Printf.sprintf "locked by domain %d" d));
        tr.t_wr <- tr.t_wr + 1
      | _ -> () (* untracked leaf (e.g. fresh split target): no check *))
    | T.Ver_end { leaf } ->
      let rs = region_state ev.T.region in
      (match Hashtbl.find_opt rs.lines (leaf lsr 6) with
      | Some tr when tr.t_leaf = leaf && tr.t_wr > 0 -> tr.t_wr <- tr.t_wr - 1
      | _ -> ())
    | T.Scope_begin { op } ->
      let ds = domain_state ev.T.domain in
      ds.scope_stack <- (op, i) :: ds.scope_stack;
      Hashtbl.reset ds.scope_flushes
    | T.Scope_end { op = _ } ->
      let ds = domain_state ev.T.domain in
      (match ds.scope_stack with
      | (_, begin_idx) :: rest ->
        ds.scope_stack <- rest;
        Hashtbl.iter
          (fun _ rs ->
            Hashtbl.iter
              (fun w ws ->
                if ws.w_domain = ev.T.domain && ws.w_idx >= begin_idx then
                  mk "missing-persist-at-end" Warn
                    (Printf.sprintf
                       "word %d (store @@%d) still dirty when the scope ends"
                       w ws.w_idx))
              rs.dirty)
          regions;
        Hashtbl.iter
          (fun (r, l) cnt ->
            if !cnt >= 3 then
              add { cls = "batchable-flush"; severity = Info; index = i;
                    domain = ev.T.domain; region = r; site = ev.T.site;
                    detail = Printf.sprintf
                        "line %d flushed %d times in one operation" l !cnt })
          ds.scope_flushes;
        Hashtbl.reset ds.scope_flushes
      | [] -> ())
  done;
  List.rev !findings
