(** A simulated persistent-memory region.

    A region is a contiguous byte-addressable span of SCM, the analogue
    of one mmap-ed PMFS/DAX file of the paper's platform.  Reads and
    writes go through accessors that

    - simulate a direct-mapped CPU cache to count SCM line misses
      (the input of the latency model),
    - track dirty (written-but-unflushed) 8-byte words so that a
      simulated crash can revert exactly the data that a real power
      failure would lose.

    The volatile view (what the program reads back) and the persistent
    image (what survives [crash]) therefore differ until [persist] is
    called — which is precisely the programming hazard the FPTree's
    algorithms are built around.

    {b Fast mode.}  When [Config.current] has [stats], [crash_tracking],
    [delay_injection] and [tracing] all off — the configuration of the
    paper's throughput experiments — every accessor takes a specialized
    fast path: one span validation, then an unchecked [Bytes] access; no
    per-line simulated-cache probe and no per-word dirty-tracking
    hashtable traffic.  The choice is one mask test on [Obs.Gate]'s
    mode word, which the {!Config} setters keep in step with the
    switches.

    {b Instrumented path.}  Every other configuration runs one read
    sequence (span check, simulated-cache probe, unchecked load) and one
    store sequence ({!store_begin}, the store, {!store_end}) shared by
    all accessors; the accessors differ only in the bytes they move. *)

type t = {
  id : int;
  buf : Bytes.t;
  size : int;
  (* Direct-mapped simulated cache: cache_tags.(line mod n) = line. *)
  cache_tags : int array;
  (* word index -> persisted value, for words written since last flush. *)
  dirty : (int, int64) Hashtbl.t;
  (* Spatial wear heatmap: shadow write counts (and the component
     bitmask of who wrote) per cache line, recorded in the instrumented
     flush loop when [Config.current.wear_heatmap] is on.  Allocated
     lazily on first recorded line ([size/64] words each, [[||]] until
     then).  Plain arrays written without synchronization: concurrent
     domains may lose individual increments, which is acceptable for a
     (possibly sampled) spatial profile — the exactness invariant
     belongs to the attribution matrix, not the heatmap. *)
  mutable heat_counts : int array;
  mutable heat_comps : int array;
  mutable heat_tick : int;
}

let cache_slots = 8192 (* 8192 x 64B = 512 KiB simulated cache *)

let make ~id ~size =
  if size <= 0 || size mod Cacheline.line_size <> 0 then
    invalid_arg "Region.make: size must be a positive multiple of 64";
  {
    id;
    buf = Bytes.make size '\000';
    size;
    cache_tags = Array.make cache_slots (-1);
    dirty = Hashtbl.create 1024;
    heat_counts = [||];
    heat_comps = [||];
    heat_tick = 0;
  }

let id t = t.id
let size t = t.size

(* The span test is inlined into every accessor; only the failure,
   which formats its message, is a call. *)
let[@inline never] out_of_bounds t off len =
  invalid_arg
    (Printf.sprintf "Region: out-of-bounds access off=%d len=%d size=%d"
       off len t.size)

let[@inline] check t off len =
  if off < 0 || len < 0 || off + len > t.size then out_of_bounds t off len

(* ---- mode ---- *)

let instrumented =
  Obs.Gate.(stats lor crash_tracking lor delay_injection lor tracing)

(** [true] when the fast path applies: every switch that instruments a
    region access is off. *)
let[@inline] fast_mode () = not (Obs.Gate.any instrumented)

(* ---- unchecked byte-buffer primitives (every use is preceded by a
   span validation via [check]) ---- *)

external unsafe_get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get_32_le b off =
  if Sys.big_endian then swap32 (unsafe_get_32 b off) else unsafe_get_32 b off

let[@inline] get_64_le b off =
  if Sys.big_endian then swap64 (unsafe_get_64 b off) else unsafe_get_64 b off

let[@inline] set_64_le b off v =
  if Sys.big_endian then unsafe_set_64 b off (swap64 v) else unsafe_set_64 b off v

(* ---- simulated cache ----

   The tag check runs whenever a miss has a consumer: the line counter
   ([stats]) or the injected read delay ([delay_injection]).  An empty
   span touches no line.  A span inside one line (every word, half-word
   and aligned cell access) is one inlined tag compare; the miss
   bookkeeping stays out of line, and only a span that crosses a line
   boundary runs the loop. *)

let cache_model = Obs.Gate.(stats lor delay_injection)

(* [cache_slots] is a power of two, so for a line [>= 0] this is
   [line mod cache_slots]; it is always a valid [cache_tags] index. *)
let[@inline] slot_of_line line = line land (cache_slots - 1)

let[@inline never] cache_miss t slot line =
  Array.unsafe_set t.cache_tags slot line;
  if Config.current.stats then Stats.incr_line_reads ();
  Latency.on_scm_read_miss ()

let[@inline] probe_line t line =
  let slot = slot_of_line line in
  if Array.unsafe_get t.cache_tags slot <> line then cache_miss t slot line

let[@inline never] probe_lines t off len =
  for line = Cacheline.line_of_offset off
      to Cacheline.line_of_offset (off + len - 1) do
    probe_line t line
  done

(* [off, off+len) must have passed [check]. *)
let[@inline] touch_lines t off len =
  if Obs.Gate.any cache_model then
    if off land (Cacheline.line_size - 1) + len <= Cacheline.line_size then begin
      if len > 0 then probe_line t (Cacheline.line_of_offset off)
    end
    else probe_lines t off len

(* ---- dirty-word tracking ---- *)

let word_value t w = Bytes.get_int64_le t.buf (w * Cacheline.word_size)

let mark_dirty t off len =
  if Config.current.crash_tracking then begin
    let first = Cacheline.word_of_offset off in
    let last = Cacheline.word_of_offset (off + len - 1) in
    for w = first to last do
      if not (Hashtbl.mem t.dirty w) then
        Hashtbl.add t.dirty w (word_value t w)
    done
  end

let dirty_word_count t = Hashtbl.length t.dirty

(* ---- media-fault injection ---- *)

(** Flip [bits] seeded pseudo-random bits in the committed image of
    [off, off+len): both the volatile view and the persistent image
    change, and the affected words are no longer dirty — the fault
    lives in the medium, not the cache.  Fault injection for the
    checksum/quarantine and fsck tests. *)
let corrupt t ~off ~len ~bits ~seed =
  check t off len;
  if len <= 0 || bits <= 0 then
    invalid_arg "Region.corrupt: empty span or no bits";
  let rng = Random.State.make [| seed; t.id; off; len |] in
  for _ = 1 to bits do
    let b = off + Random.State.int rng len in
    let v = Char.code (Bytes.get t.buf b) lxor (1 lsl Random.State.int rng 8) in
    Bytes.set t.buf b (Char.chr v)
  done;
  let first = Cacheline.word_of_offset off in
  let last = Cacheline.word_of_offset (off + len - 1) in
  for w = first to last do
    Hashtbl.remove t.dirty w
  done

(* ---- reads: span check, cache probe (instrumented path), load ---- *)

let[@inline] load t off len =
  check t off len;
  if not (fast_mode ()) then touch_lines t off len

let read_u8 t off =
  load t off 1;
  Char.code (Bytes.unsafe_get t.buf off)

let read_int64 t off =
  load t off 8;
  get_64_le t.buf off

(** 64-bit little-endian load returned as a tagged OCaml [int] (the top
    bit is truncated, exactly like [Int64.to_int (read_int64 t off)]).
    The hot-path accessor of the tree: no [int64] boxing. *)
let read_word t off =
  load t off 8;
  Int64.to_int (get_64_le t.buf off)

(** 32-bit little-endian load as an unsigned tagged [int] in
    [0, 2^32): the SWAR fingerprint scan reads half-words so that no
    lane is lost to the 63-bit [int] truncation. *)
let read_u32 t off =
  load t off 4;
  Int32.to_int (get_32_le t.buf off) land 0xFFFFFFFF

let read_string t off len =
  load t off len;
  Bytes.sub_string t.buf off len

external unsafe_string_get_64 : string -> int -> int64 = "%caml_string_get64u"

(* [buf.[off + i ..]] against [s.[i ..]] up to [len]: eight bytes per
   compare, then the tail byte by byte.  Both loads are raw (equality
   does not depend on byte order) and compared unboxed. *)
let rec equal_from buf off s i len =
  if i + 8 <= len then
    unsafe_get_64 buf (off + i) = unsafe_string_get_64 s i
    && equal_from buf off s (i + 8) len
  else if i < len then
    Bytes.unsafe_get buf (off + i) = String.unsafe_get s i
    && equal_from buf off s (i + 1) len
  else true

(** [equal_string t off len s] is [String.equal (read_string t off len) s]
    without the copy: the same span is loaded (and probed) whether or
    not [len] is the length of [s]. *)
let equal_string t off len s =
  load t off len;
  len = String.length s && equal_from t.buf off s 0 len

let blit_to_bytes t off dst dst_off len =
  load t off len;
  if dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Region.blit_to_bytes: destination out of bounds";
  Bytes.unsafe_blit t.buf off dst dst_off len

(* ---- writes (land in the volatile cache; durable only after persist) ----

   Every instrumented store is [store_begin], the store itself, then
   [store_end].  A span is tearable unless it is a single byte or a
   p-atomic aligned 8-byte store, which the torn-write injector must
   skip (and not count). *)

let[@inline] tracing () = Obs.Gate.any Obs.Gate.tracing

let[@inline] tears ~tearable len = tearable && len > 1

(* Probe the simulated cache, record the crash pre-image of each word
   the span overlaps, and charge the span's payload bytes to the wear
   report's write amplification (before the store, so stores that go on
   to tear are charged too and the total is independent of injector
   state).  Returns the span's bytes before the store when [store_end]
   needs them — to tell a silent store under tracing, or to restore the
   unwritten suffix of a torn store — and [Bytes.empty] otherwise. *)
let store_begin ~tearable t off len =
  touch_lines t off len;
  mark_dirty t off len;
  if Config.current.stats then Stats.add_store_bytes len;
  if tracing () || (tears ~tearable len && Fault.armed Torn_store) then
    Bytes.sub t.buf off len
  else Bytes.empty

(* If the armed [Torn_store] site picks this store, tear it: restore the
   unwritten suffix bytes (they never left the store buffer), make the
   written prefix durable — the cache line was evicted mid-store, so for
   every word the prefix overlaps the crash pre-image becomes the
   current (torn) value — then crash.  Otherwise record the store for
   pmcheck; it is silent when the span's bytes did not change. *)
let store_end ~tearable t off len pre =
  if tears ~tearable len && Fault.fires Torn_store then begin
    let cut = 1 + (Hashtbl.hash (Fault.seed Torn_store, off, len) mod (len - 1)) in
    Bytes.blit pre cut t.buf (off + cut) (len - cut);
    if Config.current.crash_tracking then
      for w = Cacheline.word_of_offset off
          to Cacheline.word_of_offset (off + cut - 1) do
        Hashtbl.replace t.dirty w (word_value t w)
      done;
    raise Fault.Crash_injected
  end;
  if tracing () then
    Obs.Flight.store ~region:t.id ~off ~len
      ~silent:(Bytes.equal pre (Bytes.sub t.buf off len))

let write_u8 t off v =
  check t off 1;
  let c = Char.unsafe_chr (v land 0xff) in
  if fast_mode () then Bytes.unsafe_set t.buf off c
  else begin
    let pre = store_begin ~tearable:false t off 1 in
    Bytes.unsafe_set t.buf off c;
    store_end ~tearable:false t off 1 pre
  end

(* [@inline]: without flambda an out-of-line call would box [v] on
   every store. *)
let[@inline] store_64 ~tearable t off v =
  check t off 8;
  if fast_mode () then set_64_le t.buf off v
  else begin
    let pre = store_begin ~tearable t off 8 in
    set_64_le t.buf off v;
    store_end ~tearable t off 8 pre
  end

let write_int64 t off v = store_64 ~tearable:true t off v

(** Store a tagged [int] as a 64-bit little-endian word
    (sign-extended, the exact inverse of {!read_word}); no boxing. *)
let write_word t off v = store_64 ~tearable:true t off (Int64.of_int v)

(** A p-atomic 8-byte store: must be word-aligned, so that it can never
    tear across a crash (Section 2, "Partial writes").  Exempt from the
    torn-write injector for the same reason. *)
let write_int64_atomic t off v =
  if not (Cacheline.is_word_aligned off) then
    invalid_arg "Region.write_int64_atomic: offset not 8-byte aligned";
  store_64 ~tearable:false t off v

let write_word_atomic t off v =
  if not (Cacheline.is_word_aligned off) then
    invalid_arg "Region.write_word_atomic: offset not 8-byte aligned";
  store_64 ~tearable:false t off (Int64.of_int v)

let write_string t off s =
  let len = String.length s in
  check t off len;
  if len > 0 then
    if fast_mode () then Bytes.unsafe_blit_string s 0 t.buf off len
    else begin
      let pre = store_begin ~tearable:true t off len in
      Bytes.unsafe_blit_string s 0 t.buf off len;
      store_end ~tearable:true t off len pre
    end

(* A read of [src] followed by a store to [dst]. *)
let blit_internal t ~src ~dst ~len =
  load t src len;
  check t dst len;
  if len > 0 then
    if fast_mode () then Bytes.unsafe_blit t.buf src t.buf dst len
    else begin
      let pre = store_begin ~tearable:true t dst len in
      Bytes.unsafe_blit t.buf src t.buf dst len;
      store_end ~tearable:true t dst len pre
    end

let fill t off len c =
  check t off len;
  if len > 0 then
    if fast_mode () then Bytes.unsafe_fill t.buf off len c
    else begin
      let pre = store_begin ~tearable:true t off len in
      Bytes.unsafe_fill t.buf off len c;
      store_end ~tearable:true t off len pre
    end

(* ---- spatial wear heatmap (instrumented flush loop only) ---- *)

let heat_lines t = t.size / Cacheline.line_size

let[@inline never] heat_alloc t =
  t.heat_counts <- Array.make (heat_lines t) 0;
  t.heat_comps <- Array.make (heat_lines t) 0

(* Count (a sample of) flushed lines: every [2^heatmap_sample_shift]-th
   flushed line of this region bumps its shadow count and records the
   ambient component in the line's bitmask.  Shift 0 (default) counts
   every line exactly. *)
let[@inline] record_heat t line =
  if Array.length t.heat_counts = 0 then heat_alloc t;
  let tick = t.heat_tick + 1 in
  t.heat_tick <- tick;
  if tick land ((1 lsl Config.current.heatmap_sample_shift) - 1) = 0 then begin
    Array.unsafe_set t.heat_counts line
      (Array.unsafe_get t.heat_counts line + 1);
    Array.unsafe_set t.heat_comps line
      (Array.unsafe_get t.heat_comps line
      lor (1 lsl Obs.Attrib.ambient_component ()))
  end

(** The recorded heatmap as [(counts, component_masks)] per line, or
    [None] if nothing was recorded.  The arrays are the live backing
    store — copy before mutating. *)
let heatmap t =
  if Array.length t.heat_counts = 0 then None
  else Some (t.heat_counts, t.heat_comps)

let clear_heatmap t =
  if Array.length t.heat_counts > 0 then begin
    Array.fill t.heat_counts 0 (Array.length t.heat_counts) 0;
    Array.fill t.heat_comps 0 (Array.length t.heat_comps) 0
  end;
  t.heat_tick <- 0

(* ---- persistence primitives ---- *)

let fence t =
  if Config.current.stats then Stats.incr_fences ();
  Obs.Flight.fence ~region:t.id

(* Flush the cache lines overlapping [off, off+len) and fence, once the
   fault sites have let the persist through. *)
let persist_effective t off len =
  if fast_mode () then begin
    (* No stats, no delay injection, no dirty words to retire.  The
       simulated cache is still invalidated so that a later
       instrumented phase starts from the same cache image the
       instrumented path would have produced. *)
    if len > 0 then begin
      let first = Cacheline.line_of_offset off in
      let last = Cacheline.line_of_offset (off + len - 1) in
      for line = first to last do
        let slot = slot_of_line line in
        if Array.unsafe_get t.cache_tags slot = line then
          Array.unsafe_set t.cache_tags slot (-1)
      done
    end
  end
  else begin
    if Config.current.stats then begin
      Stats.incr_persists ();
      Stats.incr_fences ()
    end;
    if len > 0 then begin
      let first = Cacheline.line_of_offset off in
      let last = Cacheline.line_of_offset (off + len - 1) in
      for line = first to last do
        if Config.current.stats then begin
          Stats.incr_flushes ();
          Stats.incr_line_writes ();
          if Config.current.wear_heatmap then record_heat t line
        end;
        Latency.on_scm_write_back ();
        (* CLFLUSH evicts the line from the simulated cache. *)
        let slot = slot_of_line line in
        if Array.unsafe_get t.cache_tags slot = line then
          Array.unsafe_set t.cache_tags slot (-1);
        if Config.current.crash_tracking then
          (* Every word of the line is now durable. *)
          for w = line * Cacheline.words_per_line
              to (line + 1) * Cacheline.words_per_line - 1 do
            Hashtbl.remove t.dirty w
          done
      done
    end;
    if tracing () && len > 0 then Obs.Flight.flush ~region:t.id ~off ~len
  end

(** The Persist() primitive of Section 2 (CLFLUSH wrapped in MFENCEs).
    A persist dropped by the [Persist_skip] site returns before any
    effect (crash-point accounting and trace recording included) — the
    injected "forgotten Persist()" the pmcheck analyzer must catch.  At
    an armed [Persist_crash] point {!Fault.Crash_injected} is raised
    and nothing reaches the persistence domain. *)
let persist t off len =
  check t off (max len 0);
  if Fault.fires Persist_skip then ()
  else if Fault.fires Persist_crash then raise Fault.Crash_injected
  else persist_effective t off len

(** Flush the whole region (used by recovery sanity checks and [save]). *)
let persist_all t = persist t 0 t.size

(* ---- crash simulation ---- *)

(** Simulate a power failure: unflushed words lose their volatile value
    according to [mode], then the dirty set is cleared (the "new
    process" starts from the persistent image). *)
let crash ?(mode = Config.Revert_all_dirty) t =
  let revert w old = Bytes.set_int64_le t.buf (w * Cacheline.word_size) old in
  (match mode with
  | Config.Revert_all_dirty -> Hashtbl.iter revert t.dirty
  | Config.Keep_random_subset seed ->
    let rng = Random.State.make [| seed; t.id |] in
    (* Iterate deterministically (sorted) so the seed fully decides
       which words survive. *)
    let ws = Hashtbl.fold (fun w old acc -> (w, old) :: acc) t.dirty [] in
    let ws = List.sort compare ws in
    List.iter (fun (w, old) -> if Random.State.bool rng then revert w old) ws);
  Hashtbl.reset t.dirty;
  Array.fill t.cache_tags 0 cache_slots (-1)

(* ---- in-memory images ---- *)

type image = Bytes.t

(** A copy of the persistent image: the volatile view with every dirty
    word reverted. *)
let image t =
  let img = Bytes.copy t.buf in
  Hashtbl.iter
    (fun w old -> Bytes.set_int64_le img (w * Cacheline.word_size) old)
    t.dirty;
  img

(** Make [img] the region's contents as after a {!crash}: no dirty
    word, a cold simulated cache. *)
let restore t img =
  if Bytes.length img <> t.size then
    invalid_arg "Region.restore: image of a region of another size";
  Bytes.blit img 0 t.buf 0 t.size;
  Hashtbl.reset t.dirty;
  Array.fill t.cache_tags 0 cache_slots (-1)

(* ---- durability across processes ---- *)

let magic = "FPTSCM01"

(** Write the persistent image (dirty words reverted) to [path]. *)
let save t path =
  let img = image t in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      output_binary_int oc t.id;
      output_binary_int oc t.size;
      output_bytes oc img)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let bad fmt = Printf.ksprintf (fun m -> failwith ("Region.load: " ^ m)) fmt in
      (* header: magic, then id and size as 4-byte binary ints *)
      let header = String.length magic + 8 in
      let len = in_channel_length ic in
      if len < header then bad "truncated header (%d bytes)" len;
      let m = really_input_string ic (String.length magic) in
      if m <> magic then bad "bad magic";
      let id = input_binary_int ic in
      let size = input_binary_int ic in
      (* validate before [make] allocates [size] bytes *)
      if size <= 0 || size mod Cacheline.line_size <> 0 then
        bad "bad size %d (not a positive multiple of %d)" size
          Cacheline.line_size;
      if size <> len - header then
        bad "size %d does not match the %d payload bytes in the file" size
          (len - header);
      let t = make ~id ~size in
      really_input ic t.buf 0 size;
      t)
