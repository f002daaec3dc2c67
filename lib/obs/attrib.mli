(** SCM write attribution: a (component × op-kind) matrix of persist
    traffic charged by the instrumented [Scm.Region] paths.

    Call sites in [lib/fptree] / [lib/pmem] open ambient, domain-local
    scopes naming the component being persisted and the operation in
    progress; [Scm.Stats] charges every byte / line / flush / persist
    it counts to the matrix cell the ambient scope names.  Unscoped
    traffic lands in ([comp_other], [op_other]) rather than being
    dropped, so matrix sums equal the global [scm_*_total] counters
    exactly — the headline invariant, test- and bench-enforced.

    Scopes are allocation-free and gated on the [stats] bit of
    {!Gate}'s mode word (set by [Scm.Config.set_stats]): disabled,
    they cost one mask test.  See attrib.ml for
    the full discipline (striping, leak tolerance, gating). *)

(** {1 Component labels} (closed set; indices are wire-stable) *)

val comp_other : int
val comp_microlog : int
val comp_bitmap : int
val comp_fingerprint : int
val comp_kv : int
val comp_ool_key : int
val comp_alloc_meta : int
val comp_tree_meta : int
val comp_recovery : int
val comp_reclaim : int
val n_comps : int
val comp_name : string array

(** {1 Op kinds} *)

val op_other : int
val op_insert : int
val op_update : int
val op_delete : int
val op_find : int
val op_create : int
val op_recover : int
val op_reclaim : int
val n_ops : int
val op_name : string array

(** {1 Quantities} *)

val q_bytes : int
val q_lines : int
val q_flushes : int
val q_persists : int

(** {1 Scopes}

    [set_*] returns the previous ambient value (0 when disabled);
    [restore_*] puts it back.  Plain set/restore, not a stack — an
    exception between the two leaves the scope set until the next
    [set_*] (misattributes, never loses, charges). *)

val set_component : int -> int
val restore_component : int -> unit
val set_op : int -> int
val restore_op : int -> unit
val ambient_component : unit -> int

(** {1 Charging} — called by [Scm.Stats] on the instrumented path. *)

val add_bytes : int -> unit
val add_line : unit -> unit
val add_flush : unit -> unit
val add_persist : unit -> unit

(** {1 Read side} *)

(** [value ~comp ~op q]: one cell, summed over domain stripes. *)
val value : comp:int -> op:int -> int -> int

(** [comp_total ~comp q]: one component, summed over op kinds. *)
val comp_total : comp:int -> int -> int

(** [total q]: whole-matrix sum; equals the matching global
    [scm_*_total] counter on instrumented runs. *)
val total : int -> int

(** Non-zero cells of quantity [q] as [(comp, op, value)]. *)
val rows : int -> (int * int * int) list

val reset : unit -> unit
