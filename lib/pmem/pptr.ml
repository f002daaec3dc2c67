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

let plausible r ~span p =
  is_null p
  || (p.region_id = Scm.Region.id r
     && p.off > 0
     && p.off land 7 = 0
     && p.off + span <= Scm.Region.size r)

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
  Obs.Flight.publish ~region:(Scm.Region.id r) ~off ~len:size_bytes
    ~site:Obs.Event.publish_pptr

(** Crash-atomic retraction: null the id word first. *)
let reset_committed r off =
  Scm.Region.write_word_atomic r off 0;
  Scm.Region.persist r off 8;
  Scm.Region.write_word_atomic r (off + 8) 0;
  Scm.Region.persist r (off + 8) 8;
  Obs.Flight.publish ~region:(Scm.Region.id r) ~off ~len:size_bytes
    ~site:Obs.Event.publish_pptr_reset

type fault = Dangling | Revisit

(* The one rule for following a chain of persistent links (the leaf
   list, the group list): a link is followed only to a plausible block
   the caller accepts and the walk has not visited; any other link is
   handed to [bad], which cuts it, reports it or refuses the image, and
   that branch ends there.  The visited set is returned. *)
let walk r ~span ~next_cell ~ok ~bad visit head_cell =
  let seen = Hashtbl.create 1024 in
  let rec go cell =
    let p = read r cell in
    if not (is_null p) then
      if Hashtbl.mem seen p.off then bad ~cell p Revisit
      else if not (plausible r ~span p && ok p.off) then bad ~cell p Dangling
      else begin
        Hashtbl.replace seen p.off ();
        go (visit ~cell ~next:(p.off + next_cell) p.off)
      end
  in
  go head_cell;
  seen

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
