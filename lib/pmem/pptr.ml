(** Persistent pointers (Section 2, "Data recovery").

    A persistent pointer is an 8-byte region (file) id plus an 8-byte
    offset.  Unlike virtual addresses, it stays valid across restarts;
    the registry converts it back to a (region, offset) pair. *)

type t = { region_id : int; off : int }

let size_bytes = 16

let null = { region_id = 0; off = 0 }
let is_null p = p.region_id = 0

let make ~region_id ~off =
  if region_id = 0 then invalid_arg "Pptr.make: region id 0 is reserved";
  { region_id; off }

let of_region r ~off = make ~region_id:(Scm.Region.id r) ~off

let equal a b = a.region_id = b.region_id && a.off = b.off

(** A persistent pointer that cannot be dereferenced in this process:
    null ([region_id = 0]) or naming a region that is not open.  Typed
    — carrying the failing id and offset — so diagnostic layers (CLI,
    fsck) can render a one-line report instead of a backtrace. *)
exception Unresolvable of { region_id : int; off : int }

let () =
  Printexc.register_printer (function
    | Unresolvable { region_id; off } ->
      Some
        (if region_id = 0 then
           Printf.sprintf "Pptr.resolve: null persistent pointer (off %#x)"
             off
         else
           Printf.sprintf
             "Pptr.resolve: region %d not open (pointer <r%d:%#x>)"
             region_id region_id off)
    | _ -> None)

(** Dereference: volatile (region, offset) pair, valid for this process
    lifetime only. *)
let resolve p =
  if is_null p then raise (Unresolvable { region_id = 0; off = p.off });
  match Scm.Registry.find_opt p.region_id with
  | Some r -> (r, p.off)
  | None -> raise (Unresolvable { region_id = p.region_id; off = p.off })

(* ---- storage in SCM: two consecutive little-endian int64 words ---- *)

let read r off =
  let region_id = Scm.Region.read_word r off in
  let o = Scm.Region.read_word r (off + 8) in
  { region_id; off = o }

(** Non-allocating null probe: just the id word, no {!t} record. *)
let is_null_at r off = Scm.Region.read_word r off = 0

(** Non-allocating offset read (valid only when the pointer is not
    null; the region id is not checked). *)
let off_at r off = Scm.Region.read_word r (off + 8)

(** Store [p] at [off] (volatile until persisted).  A 16-byte store is
    not p-atomic; callers needing atomicity must protect it with a
    micro-log, exactly as the paper's algorithms do. *)
let write r off p =
  Scm.Region.write_word r off p.region_id;
  Scm.Region.write_word r (off + 8) p.off

let write_persist r off p =
  write r off p;
  Scm.Region.persist r off size_bytes

(** Crash-atomic publication of a 16-byte pointer: the offset word is
    persisted before the region-id word, and a pointer is valid iff its
    region id is non-zero — so a crash between the two persists reads
    back as null, never as a torn pointer.  (The paper gets the same
    effect from the in-order persistence of back-to-back stores to one
    cache line; our simulator is adversarial about unflushed words, so
    the ordering is made explicit.) *)
let write_committed r off p =
  Scm.Region.write_word_atomic r (off + 8) p.off;
  Scm.Region.persist r (off + 8) 8;
  Scm.Region.write_word_atomic r off p.region_id;
  Scm.Region.persist r off 8;
  if Scm.Pmtrace.enabled () then
    Scm.Pmtrace.publish ~region:(Scm.Region.id r) ~off ~len:size_bytes "pptr"

(** Crash-atomic retraction: null the id word first. *)
let reset_committed r off =
  Scm.Region.write_word_atomic r off 0;
  Scm.Region.persist r off 8;
  Scm.Region.write_word_atomic r (off + 8) 0;
  Scm.Region.persist r (off + 8) 8;
  if Scm.Pmtrace.enabled () then
    Scm.Pmtrace.publish ~region:(Scm.Region.id r) ~off ~len:size_bytes
      "pptr-reset"

let pp ppf p =
  if is_null p then Format.fprintf ppf "<null>"
  else Format.fprintf ppf "<r%d:%#x>" p.region_id p.off

(** The location of a persistent pointer embedded in a persistent data
    structure: where the allocator persistently publishes results. *)
module Loc = struct
  type loc = { region : Scm.Region.t; off : int }

  let make region off = { region; off }
  let read l = read l.region l.off
  let write l p = write l.region l.off p
  let write_persist l p = write_persist l.region l.off p
end
