(* Source lint for the SCM-access discipline (pmcheck's static rules).

   The simulator's whole value rests on every persistent byte moving
   through [Scm.Region] accessors — that is where dirty-word tracking,
   crash injection, latency accounting and the persistence events of
   the flight recorder live.
   A single raw [Bytes] poke (or an [Obj.magic] around the API) makes
   every crash-consistency result unsound, so this tool rejects:

   - [Obj.] anywhere in the scanned trees (no unsafe casts);
   - [Bytes.] outside lib/scm: region memory is a [Bytes.t] owned by
     the simulator, all other code must use [Region] accessors
     (volatile scratch buffers in lib code use strings/arrays);
   - [Bytes.unsafe_] / [String.unsafe_] outside lib/scm;
   - [external] declarations outside lib/scm and lib/obs (no FFI
     backdoors; obs owns the monotonic-clock stub);
   - [Unix.gettimeofday] outside lib/obs: wall clock steps under NTP,
     so all timing goes through [Obs.Clock] (monotonic); wall time is
     dump metadata only, and [Obs.Clock.wall_s] is its one gateway;
   - [Atomic.] inside lib/fptree and lib/baselines: every shared-state
     access of the concurrency protocol must go through the [Htm.Sched]
     shim, or the model checker cannot see (or schedule around) it;
   - [Domain.DLS.new_key] or [Domain.self] outside lib/htm and
     lib/obs: hidden per-domain cells, and tables keyed by domain id,
     are invisible state that breaks the checker's deterministic
     replay;
   - [Out_of_scm], however qualified, outside lib/pmem and
     lib/fptree: allocator exhaustion crosses into application layers
     only as the typed [`Out_of_space] result ([Tree.guard_space] is
     the adapter), so a raw match elsewhere marks a layer leak;
   - [guard_space], however qualified, outside lib/fptree and
     lib/baselines: each tree defines its [try_insert]/[try_update]
     once ([Fptree.Tree_intf.S]), so a caller wrapping a tree op in the
     adapter again is a hand-copied adapter;
   - a [<-] write to an instrumentation switch field ([stats],
     [crash_tracking], [delay_injection], [tracing], [model_check])
     outside lib/scm/config.ml: the [Scm.Config] setters are the only
     writers of [Obs.Gate]'s mode word, which the hot paths read, so a
     direct write would leave the word stale without any error;
   - a [.ml] under lib/ without a sibling [.mli]: a module without an
     interface exports everything it defines, so the compiler's
     unused-value warning cannot flag what nothing calls.
   - [Flight.op_begin] / [Flight.op_end], however qualified, outside
     lib/obs and the find sampler ([find_value_exn] in
     lib/fptree/tree.ml): an op entry point brackets itself with
     [Obs.Flight.bracket], so a hand-written begin/end pair is a copy
     of the bracket.
   - [Pptr.walk], however qualified, outside lib/pmem and
     lib/fptree/descriptor.ml: the leaf chain and the group list are
     each described once there ([Descriptor.leaf_list] /
     [group_list]), and every other walk goes through
     [Descriptor.walk], so no caller restates a list's head cell, next
     cell or node span.

   Comments and string/char literals are stripped first, so prose
   mentioning these identifiers is fine.  [dune build @lint] scans
   lib, bin, bench and examples.  Usage:

     lint.exe DIR...     # scans *.ml / *.mli recursively, exits 1 on
                         # any violation                                *)

let violations = ref 0

let report path line msg =
  incr violations;
  Printf.printf "%s:%d: %s\n" path line msg

(* Replace comments and string/char literals with spaces (preserving
   newlines so line numbers survive).  Handles nested (* *) comments,
   backslash escapes in strings, {id|...|id} quoted strings, and char
   literals — including '"' and '\'' — without misreading type
   variables like 'a. *)
let strip src =
  let n = String.length src in
  let out = Bytes.of_string src in
  let blank i = if Bytes.get out i <> '\n' then Bytes.set out i ' ' in
  let i = ref 0 in
  let in_bounds k = k < n in
  let rec skip_comment depth j =
    if not (in_bounds j) then n
    else if in_bounds (j + 1) && src.[j] = '(' && src.[j + 1] = '*' then begin
      blank j;
      blank (j + 1);
      skip_comment (depth + 1) (j + 2)
    end
    else if in_bounds (j + 1) && src.[j] = '*' && src.[j + 1] = ')' then begin
      blank j;
      blank (j + 1);
      if depth = 1 then j + 2 else skip_comment (depth - 1) (j + 2)
    end
    else begin
      blank j;
      skip_comment depth (j + 1)
    end
  in
  let skip_string j =
    (* j points after the opening quote *)
    let j = ref j in
    let stop = ref false in
    while not !stop && in_bounds !j do
      (match src.[!j] with
      | '\\' when in_bounds (!j + 1) ->
        blank !j;
        blank (!j + 1);
        incr j
      | '"' -> stop := true
      | _ -> blank !j);
      incr j
    done;
    !j
  in
  let is_delim_char c = (c >= 'a' && c <= 'z') || c = '_' in
  let skip_quoted j =
    (* {id| ... |id} *)
    let d0 = ref j in
    while in_bounds !d0 && is_delim_char src.[!d0] do
      incr d0
    done;
    if in_bounds !d0 && src.[!d0] = '|' then begin
      let delim = String.sub src j (!d0 - j) in
      let close = Printf.sprintf "|%s}" delim in
      let cl = String.length close in
      let k = ref (!d0 + 1) in
      let fin = ref n in
      while !fin = n && !k + cl <= n do
        if String.sub src !k cl = close then fin := !k + cl else incr k
      done;
      let fin = !fin in
      for p = j - 1 to min (fin - 1) (n - 1) do
        blank p
      done;
      Some fin
    end
    else None
  in
  while !i < n do
    let c = src.[!i] in
    if c = '(' && in_bounds (!i + 1) && src.[!i + 1] = '*' then
      i := skip_comment 0 !i
    else if c = '"' then begin
      blank !i;
      i := skip_string (!i + 1)
    end
    else if c = '{' && in_bounds (!i + 1)
            && (src.[!i + 1] = '|' || is_delim_char src.[!i + 1]) then begin
      match skip_quoted (!i + 1) with
      | Some fin -> i := fin
      | None -> incr i
    end
    else if c = '\'' then begin
      (* char literal iff it closes within a few chars; else a type
         variable / polymorphic variant tick *)
      if in_bounds (!i + 1) && src.[!i + 1] = '\\' then begin
        let j = ref (!i + 2) in
        while in_bounds !j && src.[!j] <> '\'' do
          incr j
        done;
        for p = !i to min !j (n - 1) do
          blank p
        done;
        i := !j + 1
      end
      else if in_bounds (!i + 2) && src.[!i + 2] = '\'' then begin
        blank !i;
        blank (!i + 1);
        blank (!i + 2);
        i := !i + 3
      end
      else incr i
    end
    else incr i
  done;
  Bytes.to_string out

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Occurrences of [needle] in [hay] at a token boundary (the preceding
   char is not part of an identifier or, unless [qualified], a module
   path).  A needle ending in [_] is a prefix of the identifiers it
   names ([String.unsafe_] matches [String.unsafe_get]), so it may be
   followed by anything. *)
let find_tokens ?(qualified = false) hay needle f =
  let nl = String.length needle in
  let n = String.length hay in
  for i = 0 to n - nl do
    if String.sub hay i nl = needle then begin
      let before =
        i = 0
        || (not (is_ident_char hay.[i - 1])) && (qualified || hay.[i - 1] <> '.')
      in
      let after =
        needle.[nl - 1] = '_'
        || (not (is_ident_char needle.[nl - 1]))
        || i + nl >= n
        || not (is_ident_char hay.[i + nl])
      in
      if before && after then f i
    end
  done

let line_of hay i =
  let l = ref 1 in
  for k = 0 to i - 1 do
    if hay.[k] = '\n' then incr l
  done;
  !l

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* normalized check: is this file under lib/<sub>? *)
let in_lib sub path =
  let parts = String.split_on_char '/' path in
  let rec has = function
    | "lib" :: s :: _ when s = sub -> true
    | _ :: tl -> has tl
    | [] -> false
  in
  has parts

let in_scm path = in_lib "scm" path
let in_obs path = in_lib "obs" path
let is_config path = in_scm path && Filename.basename path = "config.ml"

let switch_fields =
  [ "stats"; "crash_tracking"; "delay_injection"; "tracing"; "model_check" ]

(* [f] at each [.field <-] write (blanks allowed before the arrow). *)
let find_field_writes hay field f =
  let n = String.length hay in
  let fl = String.length field in
  for i = 1 to n - fl do
    if hay.[i - 1] = '.' && String.sub hay i fl = field then begin
      let j = ref (i + fl) in
      while !j < n && (hay.[!j] = ' ' || hay.[!j] = '\n') do
        incr j
      done;
      if !j + 1 < n && hay.[!j] = '<' && hay.[!j + 1] = '-' then f i
    end
  done

(* The name of the definition enclosing offset [i]: the nearest
   preceding [let] at the start of a line indented at most two spaces
   (top level, or the body of a functor). *)
let enclosing_let hay i =
  let rec back j =
    if j < 0 then ""
    else if hay.[j] = '\n' then begin
      let k = ref (j + 1) in
      while !k < i && hay.[!k] = ' ' do incr k done;
      if !k - (j + 1) <= 2 && !k + 4 <= i && String.sub hay !k 4 = "let "
      then begin
        let e = ref (!k + 4) in
        while !e < i && is_ident_char hay.[!e] do incr e done;
        String.sub hay (!k + 4) (!e - !k - 4)
      end
      else back (j - 1)
    end
    else back (j - 1)
  in
  back (i - 1)

let check_op_records path stripped =
  let sampler i =
    in_lib "fptree" path
    && Filename.basename path = "tree.ml"
    && enclosing_let stripped i = "find_value_exn"
  in
  if not (in_obs path) then
    List.iter
      (fun needle ->
        find_tokens ~qualified:true stripped needle (fun i ->
            if not (sampler i) then
              report path (line_of stripped i)
                (needle ^ " outside lib/obs and the find sampler: wrap the \
                  op in Obs.Flight.bracket instead of a hand-written \
                  begin/end pair")))
      [ "Flight.op_begin"; "Flight.op_end" ]

let check_file path =
  if Filename.check_suffix path ".ml"
     && List.mem "lib" (String.split_on_char '/' path)
     && not (Sys.file_exists (path ^ "i"))
  then
    report path 1
      "lib module without an interface: add a .mli that exports only \
       what other modules use";
  let stripped = strip (read_file path) in
  let bad ?qualified needle msg =
    find_tokens ?qualified stripped needle (fun i ->
        report path (line_of stripped i) msg)
  in
  bad "Obj." "Obj is forbidden: no unsafe casts around the SCM API";
  if not (in_scm path) then begin
    bad "Bytes."
      "direct Bytes access outside lib/scm: persistent memory must go \
       through Scm.Region accessors";
    bad "String.unsafe_" "unsafe string access outside lib/scm"
  end;
  if not (in_scm path || in_obs path) then
    bad "external"
      "external (FFI) declarations are confined to lib/scm and lib/obs";
  if not (in_obs path) then
    bad "Unix.gettimeofday"
      "wall clock outside lib/obs: time with Obs.Clock (monotonic); wall \
       time is dump metadata only (Obs.Clock.wall_s)";
  if in_lib "fptree" path || in_lib "baselines" path then
    bad "Atomic."
      "direct Atomic on tree shared state: route through Htm.Sched so \
       the model checker can interpose on every shared access";
  if not (in_lib "htm" path || in_obs path) then begin
    bad "Domain.DLS.new_key"
      "per-domain state outside lib/htm and lib/obs: hidden DLS cells \
       escape the model checker's deterministic replay";
    bad "Domain.self"
      "domain identity outside lib/htm and lib/obs: state keyed by \
       domain id is hidden per-domain state (record per-domain history \
       through Obs.Flight)"
  end;
  if in_lib "fptree" path && Filename.basename path <> "scope.ml" then begin
    (* Both spellings: the preceding-'.' boundary means the short form
       does not match inside the qualified one. *)
    let msg =
      "raw persist inside lib/fptree: route through Fptree.Scope \
       (persist ~comp / persist_in_scope) so the flush is charged to \
       an Obs.Attrib component"
    in
    bad "Region.persist" msg;
    bad "Scm.Region.persist" msg
  end;
  if not (is_config path) then
    List.iter
      (fun field ->
        find_field_writes stripped field (fun i ->
            report path (line_of stripped i)
              (Printf.sprintf
                 "direct write to the %s switch: use its Scm.Config \
                  setter, which also updates Obs.Gate's mode word"
                 field)))
      switch_fields;
  if not (in_lib "pmem" path || in_lib "fptree" path) then
    bad ~qualified:true "Out_of_scm"
      "Out_of_scm outside lib/pmem and lib/fptree: exhaustion surfaces \
       to callers as the typed `Out_of_space result (Tree.guard_space \
       is the one blessed adapter)";
  if not (in_lib "fptree" path || in_lib "baselines" path) then
    bad ~qualified:true "guard_space"
      "guard_space outside lib/fptree and lib/baselines: call the tree's \
       try_insert / try_update (Fptree.Tree_intf.S) instead of wrapping \
       its ops again";
  if not (in_lib "pmem" path
          || (in_lib "fptree" path && Filename.basename path = "descriptor.ml"))
  then
    bad ~qualified:true "Pptr.walk"
      "Pptr.walk outside lib/pmem and lib/fptree/descriptor.ml: walk a \
       persistent list through Descriptor.walk over its leaf_list or \
       group_list value";
  check_op_records path stripped

let rec walk path =
  if Sys.is_directory path then
    Array.iter
      (fun entry ->
        if entry <> "_build" && not (String.length entry > 0 && entry.[0] = '.')
        then walk (Filename.concat path entry))
      (Sys.readdir path)
  else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
  then check_file path

let () =
  let roots =
    match Array.to_list Sys.argv with [] | [ _ ] -> [ "lib"; "bin" ] | _ :: r -> r
  in
  List.iter walk roots;
  if !violations > 0 then begin
    Printf.printf "lint: %d violation(s)\n" !violations;
    exit 1
  end
  else print_endline "lint: ok"
