(** First-class fixed-key index handles for the prototype database:
    the dictionary index of the columnar engine is "the tree under
    test" (Section 6.4).  Each handle knows how to recover itself from
    its SCM arena after a restart. *)

type kind = FPTree | PTree | NVTree | WBTree | STXTree

val kind_name : kind -> string
val all_kinds : kind list

type t = {
  kind : kind;
  alloc : Pmem.Palloc.t option;  (** [None] for the transient STXTree *)
  insert : int -> int -> (bool, [ `Out_of_space ]) result;
      (** [Error `Out_of_space] when the index arena refused the write
          (watermark admission or exhaustion); the index is unchanged. *)
  find : int -> int option;
  update : int -> int -> (bool, [ `Out_of_space ]) result;
  delete : int -> bool;
  count : unit -> int;
}

val create : ?arena_bytes:int -> kind -> t
(** A fresh index of [kind] in its own SCM arena (64 MiB by
    default). *)

val recover : t -> t
(** Re-open an index after a (simulated) restart.  The STXTree is
    transient: the caller must rebuild it from base data. *)
