(** The persistent tree descriptor: the image format of an FPTree
    region.  The descriptor is the allocator's root object.  It holds
    the persisted configuration words, the leaf-list and group-list
    anchors, and one micro-log slot per log (Algorithms 9 and 14–17).

    Key-representation independent, so {!Tree.Make}, its recovery and
    the offline audit ([Fsck]) share one definition of the layout
    instead of each re-deriving the offsets. *)

type config = {
  m : int;               (** leaf capacity (2..64) *)
  value_bytes : int;     (** persisted value footprint; >= 8, mult. of 8 *)
  inner_keys : int;      (** max keys per DRAM inner node *)
  fingerprints : bool;
  split_arrays : bool;   (** PTree layout: keys and values in separate arrays *)
  use_groups : bool;     (** amortized leaf-group allocation (single-threaded) *)
  group_size : int;
  n_split_logs : int;
  n_delete_logs : int;
  htm_retries : int;
  htm_backoff : int;     (** backoff ceiling between speculative retries *)
  checksums : bool;
      (** Per-leaf integrity cell: every committed leaf mutation is
          followed by a checksum refresh, and recovery quarantines
          leaves that fail validation instead of trusting them.  Off by
          default — the extra persists would skew the paper's Table 1 /
          Fig. 11 counts. *)
}

(** {1 Descriptor words}

    Byte offsets from the descriptor's start.  The configuration words
    ([meta_m] .. [meta_group_size]) are 8-byte integers; [meta_flags]
    packs fingerprints (1), split arrays (2), leaf groups (4) and
    checksums (8).  The anchors are 16-byte persistent pointers. *)

val meta_m : int
val meta_value_bytes : int
val meta_flags : int
val meta_n_split : int
val meta_n_delete : int
val meta_group_size : int
val meta_head : int
(** First leaf of the linked leaf list. *)

val meta_group_head : int
(** First leaf group. *)

val meta_group_tail : int
(** Last leaf group. *)

(** Bytes of a descriptor for [config], micro-log slots included. *)
val meta_bytes : config -> int

(** {1 Micro-log slots}

    In image order: the split logs, the delete logs, then the
    get-leaf and free-leaf logs of the leaf-group allocator. *)

type log_slot = Split of int | Delete of int | Get_leaf | Free_leaf

(** Offset of [slot]'s micro-log in the descriptor at [meta]. *)
val log_off : config -> meta:int -> log_slot -> int

(** Every slot of [config], in image order. *)
val log_slots : config -> log_slot list

(** {1 Leaf and group geometry} *)

(** Key-cell footprint for a persisted key-kind word (0 = inline 8-byte
    keys, otherwise a 16-byte persistent pointer cell). *)
val key_cell_bytes_of_kind : int -> int

(** Leaf layout implied by a tree configuration. *)
val layout_of : key_cell_bytes:int -> config -> Layout.t

(** A leaf's footprint inside a group: its size rounded up to a cache
    line. *)
val leaf_span : Layout.t -> int

(** A group block: a 64-byte header holding the group's persistent
    next pointer, then [group_size] leaves of {!leaf_span} bytes. *)
val group_bytes : config -> Layout.t -> int

(** [group_leaf layout g i]: offset of leaf [i] of the group at [g]. *)
val group_leaf : Layout.t -> int -> int -> int

(** {1 Reading and writing a descriptor} *)

(** Whether creation completed (the status word is 1). *)
val initialized : Scm.Region.t -> meta:int -> bool

(** The persisted key-kind word (0 = fixed, 1 = variable keys). *)
val key_kind : Scm.Region.t -> meta:int -> int

(** The configuration persisted in the descriptor at [meta], over
    [base_cfg] for the fields that are not persisted.  Every word is
    checked before anything is sized from it; [Error field] names the
    first implausible one.  [avail] is the room the descriptor may
    occupy (its allocator block, or the rest of the region).  The one
    set of rules for {!Tree.Make.recover} and the fsck audit. *)
val config_of_meta :
  Scm.Region.t -> int -> avail:int -> config -> (config, string) result

(** Persist the seven configuration words (one flush for all). *)
val write_config : Scm.Region.t -> meta:int -> kind:int -> config -> unit

(** Persist the status word that marks creation complete. *)
val mark_initialized : Scm.Region.t -> meta:int -> unit

(** [write_anchor r cell p]: committed pointer publish into a
    descriptor anchor or a group header, charged to [tree_meta]. *)
val write_anchor : Scm.Region.t -> int -> Pmem.Pptr.t -> unit
