(* Tests of the SCM simulator: accessors, persistence primitives,
   crash semantics, stats accounting, file round-trips. *)

module Region = Scm.Region
module Config = Scm.Config

let fresh ?(size = 64 * 1024) () =
  Scm.Registry.clear ();
  Scm.Config.reset ();
  Scm.Stats.reset ();
  Scm.Registry.create ~size

let test_rw_roundtrip () =
  let r = fresh () in
  Region.write_u8 r 0 0xab;
  Alcotest.(check int) "u8" 0xab (Region.read_u8 r 0);
  Region.write_u16 r 2 0xbeef;
  Alcotest.(check int) "u16" 0xbeef (Region.read_u16 r 2);
  Region.write_int32 r 4 0xdeadbeefl;
  Alcotest.(check int32) "i32" 0xdeadbeefl (Region.read_int32 r 4);
  Region.write_int64 r 8 0x0123456789abcdefL;
  Alcotest.(check int64) "i64" 0x0123456789abcdefL (Region.read_int64 r 8);
  Region.write_string r 100 "hello scm";
  Alcotest.(check string) "string" "hello scm" (Region.read_string r 100 9)

let test_bounds_checked () =
  let r = fresh ~size:128 () in
  Alcotest.check_raises "read past end" (Invalid_argument
    "Region: out-of-bounds access off=128 len=8 size=128")
    (fun () -> ignore (Region.read_int64 r 128));
  Alcotest.check_raises "negative offset" (Invalid_argument
    "Region: out-of-bounds access off=-8 len=8 size=128")
    (fun () -> ignore (Region.read_int64 r (-8)))

let test_atomic_write_alignment () =
  let r = fresh () in
  Region.write_int64_atomic r 16 1L;
  Alcotest.check_raises "unaligned atomic"
    (Invalid_argument "Region.write_int64_atomic: offset not 8-byte aligned")
    (fun () -> Region.write_int64_atomic r 17 1L)

let test_crash_reverts_unflushed () =
  let r = fresh () in
  Region.write_int64 r 0 1L;
  Region.persist r 0 8;
  Region.write_int64 r 0 2L;
  (* not persisted *)
  Region.crash r;
  Alcotest.(check int64) "reverted to persisted value" 1L (Region.read_int64 r 0)

let test_crash_keeps_flushed () =
  let r = fresh () in
  Region.write_int64 r 64 42L;
  Region.write_int64 r 128 43L;
  Region.persist r 64 8;
  Region.crash r;
  Alcotest.(check int64) "flushed survives" 42L (Region.read_int64 r 64);
  Alcotest.(check int64) "unflushed dropped" 0L (Region.read_int64 r 128)

let test_persist_covers_whole_lines () =
  let r = fresh () in
  (* Two words in the same cache line; flushing one flushes the line. *)
  Region.write_int64 r 0 7L;
  Region.write_int64 r 56 8L;
  Region.persist r 0 8;
  Region.crash r;
  Alcotest.(check int64) "same-line word persisted" 8L (Region.read_int64 r 56)

let test_torn_large_write () =
  (* A 16-byte write may tear at word granularity under the random
     crash mode: with Revert_all it fully disappears. *)
  let r = fresh () in
  Region.write_string r 0 (String.make 16 'x');
  Region.persist r 0 16;
  Region.write_string r 0 (String.make 16 'y');
  Region.crash r;
  Alcotest.(check string) "16B write reverted whole" (String.make 16 'x')
    (Region.read_string r 0 16)

let test_random_subset_crash_deterministic () =
  let run () =
    let r = fresh () in
    for i = 0 to 15 do
      Region.write_int64 r (i * 64) (Int64.of_int (i + 1))
    done;
    Region.crash ~mode:(Config.Keep_random_subset 42) r;
    List.init 16 (fun i -> Region.read_int64 r (i * 64))
  in
  Alcotest.(check (list int64)) "seeded crash is deterministic" (run ()) (run ());
  let survived = List.filter (fun v -> v <> 0L) (run ()) in
  Alcotest.(check bool) "some words survive, some do not" true
    (List.length survived > 0 && List.length survived < 16)

let test_dirty_tracking_disabled () =
  let r = fresh () in
  Config.set_crash_tracking false;
  Region.write_int64 r 0 9L;
  Alcotest.(check int) "no dirty words tracked" 0 (Region.dirty_word_count r);
  Region.crash r;
  Alcotest.(check int64) "crash keeps everything when tracking is off" 9L
    (Region.read_int64 r 0)

let test_stats_counts_line_misses () =
  let r = fresh () in
  Scm.Stats.reset ();
  ignore (Region.read_int64 r 0);
  ignore (Region.read_int64 r 8);
  (* same line: second read hits the simulated cache *)
  let s = Scm.Stats.snapshot () in
  Alcotest.(check int) "one miss for two same-line reads" 1 s.Scm.Stats.line_reads;
  ignore (Region.read_int64 r 64);
  let s = Scm.Stats.snapshot () in
  Alcotest.(check int) "new line, new miss" 2 s.Scm.Stats.line_reads

let test_stats_flush_counts () =
  let r = fresh () in
  Scm.Stats.reset ();
  Region.write_int64 r 0 1L;
  Region.write_int64 r 64 1L;
  Region.persist r 0 128;
  let s = Scm.Stats.snapshot () in
  Alcotest.(check int) "two lines flushed" 2 s.Scm.Stats.flushes;
  Alcotest.(check int) "two line write-backs" 2 s.Scm.Stats.line_writes;
  Alcotest.(check int) "one persist" 1 s.Scm.Stats.persists

let test_modeled_time () =
  Scm.Config.reset ();
  let s = { Scm.Stats.zero with Scm.Stats.line_reads = 10; line_writes = 5 } in
  let extra = Scm.Stats.modeled_extra_ns ~read_ns:690. s in
  (* dram = 90 ns: 10 reads * 600 + 5 writes * 600 *)
  Alcotest.(check (float 0.01)) "modeled extra ns" 9000. extra;
  let flat = Scm.Stats.modeled_extra_ns ~read_ns:90. s in
  Alcotest.(check (float 0.01)) "at DRAM latency no extra" 0. flat

let test_crash_injection () =
  let r = fresh () in
  Config.schedule_crash_after 2;
  Region.write_int64 r 0 1L;
  Region.persist r 0 8;
  (* first persist: ok *)
  Region.write_int64 r 8 2L;
  Alcotest.check_raises "second persist crashes" Config.Crash_injected (fun () ->
      Region.persist r 8 8);
  Region.crash r;
  Alcotest.(check int64) "first write survived" 1L (Region.read_int64 r 0);
  Alcotest.(check int64) "second write did not (its persist raised)" 0L
    (Region.read_int64 r 8)

let test_save_load_roundtrip () =
  let r = fresh () in
  Region.write_int64 r 0 77L;
  Region.persist r 0 8;
  Region.write_int64 r 8 88L (* dirty: must not be saved *);
  let path = Filename.temp_file "scmtest" ".img" in
  Region.save r path;
  let r2 = Region.load path in
  Sys.remove path;
  Alcotest.(check int64) "persisted word round-trips" 77L (Region.read_int64 r2 0);
  Alcotest.(check int64) "dirty word excluded from image" 0L (Region.read_int64 r2 8);
  Alcotest.(check int) "region id preserved" (Region.id r) (Region.id r2);
  (* hostile or truncated images are refused with a Failure, before
     the header's size is trusted *)
  let image ~size ~payload =
    let path = Filename.temp_file "scmtest" ".img" in
    let oc = open_out_bin path in
    output_string oc "FPTSCM01";
    (match size with
    | Some s ->
      output_binary_int oc 1;
      output_binary_int oc s
    | None -> ());
    output_string oc (String.make payload '\000');
    close_out oc;
    path
  in
  let refused what ~size ~payload =
    let path = image ~size ~payload in
    let r = try Ok (Region.load path) with e -> Error e in
    Sys.remove path;
    match r with
    | Error (Failure m) when String.starts_with ~prefix:"Region.load: " m -> ()
    | Error e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
    | Ok _ -> Alcotest.failf "%s: loaded" what
  in
  refused "magic only" ~size:None ~payload:0;
  refused "short payload" ~size:(Some 128) ~payload:64;
  refused "size larger than the file" ~size:(Some (1 lsl 30)) ~payload:128;
  refused "negative size" ~size:(Some (-64)) ~payload:0;
  refused "size not a multiple of 64" ~size:(Some 100) ~payload:100;
  let ok = image ~size:(Some 128) ~payload:128 in
  let r3 = Region.load ok in
  Sys.remove ok;
  Alcotest.(check int) "well-formed hand-built image loads" 128 (Region.size r3)

let test_blit_and_fill () =
  let r = fresh () in
  Region.write_string r 0 "abcdef";
  Region.blit_internal r ~src:0 ~dst:100 ~len:6;
  Alcotest.(check string) "blit" "abcdef" (Region.read_string r 100 6);
  Region.fill r 100 6 'z';
  Alcotest.(check string) "fill" "zzzzzz" (Region.read_string r 100 6);
  let b = Bytes.make 6 ' ' in
  Region.blit_to_bytes r 0 b 0 6;
  Alcotest.(check string) "blit_to_bytes" "abcdef" (Bytes.to_string b)

let test_registry () =
  Scm.Registry.clear ();
  let a = Scm.Registry.create ~size:4096 in
  let b = Scm.Registry.create ~size:4096 in
  Alcotest.(check bool) "distinct ids" true (Region.id a <> Region.id b);
  Alcotest.(check bool) "find a" true (Scm.Registry.find (Region.id a) == a);
  Scm.Registry.close (Region.id b);
  Alcotest.check_raises "closed region not found"
    (Failure (Printf.sprintf "Registry.find: region %d not open" (Region.id b)))
    (fun () -> ignore (Scm.Registry.find (Region.id b)))

let test_cacheline_helpers () =
  Alcotest.(check int) "line_of_offset" 1 (Scm.Cacheline.line_of_offset 64);
  Alcotest.(check int) "line_base" 64 (Scm.Cacheline.line_base 100);
  Alcotest.(check int) "align_up" 128 (Scm.Cacheline.align_up 65 64);
  Alcotest.(check int) "align_up exact" 64 (Scm.Cacheline.align_up 64 64);
  Alcotest.(check int) "lines_spanned" 2 (Scm.Cacheline.lines_spanned 60 8);
  Alcotest.(check int) "words_spanned" 2 (Scm.Cacheline.words_spanned 4 8);
  Alcotest.(check bool) "word aligned" true (Scm.Cacheline.is_word_aligned 16);
  Alcotest.(check bool) "not word aligned" false (Scm.Cacheline.is_word_aligned 17)

let qcheck_persisted_prefix =
  (* Property: after arbitrary writes with arbitrary persist points, a
     crash preserves exactly the persisted state.  Model: shadow map of
     line-flushed values. *)
  QCheck.Test.make ~name:"crash preserves exactly persisted words" ~count:100
    QCheck.(list (pair (int_bound 63) (int_bound 1000)))
    (fun ops ->
      Scm.Registry.clear ();
      Scm.Config.reset ();
      let r = Scm.Registry.create ~size:4096 in
      let model = Array.make 64 0L in (* persisted image, word granularity *)
      let shadow = Array.make 64 0L in (* volatile view *)
      List.iteri
        (fun i (w, v) ->
          let off = w * 8 in
          if i mod 3 = 2 then begin
            (* persist the whole line containing w *)
            Region.persist r (Scm.Cacheline.line_base off) 64;
            let base = w / 8 * 8 in
            for j = base to base + 7 do
              model.(j) <- shadow.(j)
            done
          end
          else begin
            Region.write_int64 r off (Int64.of_int v);
            shadow.(w) <- Int64.of_int v
          end)
        ops;
      Region.crash r;
      let ok = ref true in
      for w = 0 to 63 do
        if Region.read_int64 r (w * 8) <> model.(w) then ok := false
      done;
      !ok)

let () =
  Alcotest.run "scm"
    [
      ( "region",
        [
          Alcotest.test_case "read/write round-trip" `Quick test_rw_roundtrip;
          Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
          Alcotest.test_case "atomic write alignment" `Quick test_atomic_write_alignment;
          Alcotest.test_case "blit and fill" `Quick test_blit_and_fill;
        ] );
      ( "crash",
        [
          Alcotest.test_case "crash reverts unflushed" `Quick test_crash_reverts_unflushed;
          Alcotest.test_case "crash keeps flushed" `Quick test_crash_keeps_flushed;
          Alcotest.test_case "persist is line-granular" `Quick test_persist_covers_whole_lines;
          Alcotest.test_case "large write reverts whole" `Quick test_torn_large_write;
          Alcotest.test_case "random-subset crash deterministic" `Quick
            test_random_subset_crash_deterministic;
          Alcotest.test_case "tracking can be disabled" `Quick test_dirty_tracking_disabled;
          Alcotest.test_case "crash injection at persist point" `Quick test_crash_injection;
          QCheck_alcotest.to_alcotest qcheck_persisted_prefix;
        ] );
      ( "stats",
        [
          Alcotest.test_case "line miss counting" `Quick test_stats_counts_line_misses;
          Alcotest.test_case "flush counting" `Quick test_stats_flush_counts;
          Alcotest.test_case "modeled time" `Quick test_modeled_time;
        ] );
      ( "durability",
        [ Alcotest.test_case "save/load round-trip" `Quick test_save_load_roundtrip ] );
      ( "registry",
        [
          Alcotest.test_case "create/find/close" `Quick test_registry;
          Alcotest.test_case "cacheline helpers" `Quick test_cacheline_helpers;
        ] );
    ]
