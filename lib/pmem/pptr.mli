(** Persistent pointers (Section 2 of the paper, "Data recovery").

    An 8-byte region (file) id plus an 8-byte offset: unlike a virtual
    address, a persistent pointer stays valid across restarts and is
    resolved back to an open region through {!Scm.Registry}. *)

type t = { region_id : int; off : int }

(** Storage footprint in SCM: 16 bytes. *)
val size_bytes : int

val null : t
val is_null : t -> bool

(** @raise Invalid_argument on the reserved region id 0. *)
val make : region_id:int -> off:int -> t

val of_region : Scm.Region.t -> off:int -> t
val equal : t -> t -> bool

(** A followable pointer to a [span]-byte object in [r]: null, or an
    8-aligned, non-zero offset into [r] whose span ends inside it.  A
    torn or media-damaged pointer fails it. *)
val plausible : Scm.Region.t -> span:int -> t -> bool

(** Why {!walk} did not follow a link: [Dangling], not {!plausible} or
    refused by the caller's [ok]; [Revisit], it names a block already
    visited (a shared tail or a cycle). *)
type fault = Dangling | Revisit

(** [walk r ~span ~next_cell ~ok ~bad visit head_cell] follows a chain
    of persistent links, starting with the pointer stored at offset
    [head_cell].  The pointer [p] read from a cell is followed only
    when it names a [span]-byte block that is {!plausible}, passes
    [ok p.off] and has not been visited; the walk then calls
    [visit ~cell ~next off], where [next = off + next_cell] is the
    block's own next cell, and goes on from the cell [visit] returns:
    [next], or [cell] again after [visit] spliced the block out.  Any
    other non-null pointer goes to [bad ~cell p fault] and that branch
    ends; a null one ends the walk.  Returns the visited block
    offsets. *)
val walk :
  Scm.Region.t -> span:int -> next_cell:int -> ok:(int -> bool) ->
  bad:(cell:int -> t -> fault -> unit) ->
  (cell:int -> next:int -> int -> int) -> int -> (int, unit) Hashtbl.t

(** Raised by {!resolve} on a pointer that cannot be dereferenced in
    this process: null ([region_id = 0]) or naming a region that is not
    open.  Carries the failing coordinates so diagnostic layers can
    print a one-liner instead of a backtrace; a printer is registered
    with [Printexc]. *)
exception Unresolvable of { region_id : int; off : int }

(** Dereference to a volatile (region, offset) pair, valid for this
    process lifetime only.
    @raise Unresolvable on null or on a region that is not open. *)
val resolve : t -> Scm.Region.t * int

(** {1 Storage in SCM} *)

val read : Scm.Region.t -> int -> t

(** Plain 16-byte store — NOT p-atomic; callers needing crash atomicity
    must protect it with a micro-log or use {!write_committed}. *)
val write : Scm.Region.t -> int -> t -> unit

val write_persist : Scm.Region.t -> int -> t -> unit

(** Crash-atomic publication: the offset word is persisted before the
    region-id word, and a pointer is valid iff its id word is non-zero,
    so a crash in between reads back as null — never a torn pointer. *)
val write_committed : Scm.Region.t -> int -> t -> unit

(** Crash-atomic retraction (id word nulled first). *)
val reset_committed : Scm.Region.t -> int -> unit

val pp : Format.formatter -> t -> unit

(** The location OF a persistent pointer embedded in a persistent data
    structure — where the allocator publishes its results. *)
module Loc : sig
  type loc = { region : Scm.Region.t; off : int }

  val make : Scm.Region.t -> int -> loc
  val read : loc -> t
  val write : loc -> t -> unit
  val write_persist : loc -> t -> unit
end
