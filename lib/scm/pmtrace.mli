(** Persistent-memory event trace — recorder for the pmcheck sanitizer.

    Enabled via {!Config.set_tracing} (the [tracing] bit of
    [Obs.Gate]'s mode word); every SCM store, flush,
    publication point, micro-log transition, and leaf-lock transition is
    appended (mutex-protected, safe under domains) with call-site
    attribution via per-domain scope labels.  See [lib/pmcheck] for the
    offline analyzer over these events and DESIGN.md §9 for the checked
    properties. *)

type kind =
  | Store of { off : int; len : int; silent : bool }
  | Flush of { off : int; len : int }
  | Fence
  | Publish of { off : int; len : int; what : string }
  | Link_write of { off : int; len : int }
  | Log_arm of { log : int }
  | Log_reset of { log : int }
  | Lock_acquire of { leaf : int }
  | Lock_release of { leaf : int }
  | Leaf_retired of { leaf : int }
  | Leaf_layout of { bytes : int }
  | Track_reset
  | Writer_begin
  | Writer_end
  | Fallback_lock
  | Fallback_unlock
  | Ver_begin of { leaf : int }
      (** Per-node version write phase on a leaf (writer inside). *)
  | Ver_end of { leaf : int }
  | Scope_begin of { op : string }
  | Scope_end of { op : string }

type event = {
  domain : int;   (** numeric id of the recording domain *)
  region : int;   (** region id; -1 for region-less events *)
  site : string;  (** innermost scope label of the domain, "" if none *)
  kind : kind;
}

val clear : unit -> unit
val size : unit -> int
val dropped : unit -> int

(** Snapshot of the recorded history, in append order. *)
val events : unit -> event array

(** Emitters — each tests the [tracing] bit inline before it builds
    its event, so call sites need no guard and a disabled emitter
    allocates nothing. *)

val store : region:int -> off:int -> len:int -> silent:bool -> unit
val flush : region:int -> off:int -> len:int -> unit
val fence : region:int -> unit
val publish : region:int -> off:int -> len:int -> string -> unit
val link_write : region:int -> off:int -> len:int -> unit
val log_arm : region:int -> log:int -> unit
val log_reset : region:int -> log:int -> unit
val lock_acquire : region:int -> leaf:int -> unit
val lock_release : region:int -> leaf:int -> unit
val leaf_retired : region:int -> leaf:int -> unit
val leaf_layout : region:int -> bytes:int -> unit
val track_reset : region:int -> unit
val writer_begin : unit -> unit
val writer_end : unit -> unit
val fallback_lock : unit -> unit
val fallback_unlock : unit -> unit
val ver_begin : region:int -> leaf:int -> unit
val ver_end : region:int -> leaf:int -> unit

val scoped : op:int -> (unit -> 'a) -> 'a
(** [scoped ~op f] runs [f] inside a scope labelled
    [Obs.Event.op_name op] ([Scope_begin] / [Scope_end] events, also
    when [f] raises); just [f ()] when tracing is off.  The analyzer
    bounds its dirty-at-publication checks by these scopes. *)
