(** The analyzer's view of a traced run, decoded from the flight
    recorder's ordered history ({!Obs.Flight.history}, or a dump of it
    written by [fptree_cli --trace]).  The persistence tags of
    {!Obs.Event} become {!kind}s; op records become scope edges. *)

type kind =
  | Store of { off : int; len : int; silent : bool }
      (** SCM write; [silent]: the bytes were already there. *)
  | Flush of { off : int; len : int }
      (** [Region.persist]: every overlapping line, then a fence. *)
  | Fence  (** Standalone [Region.fence]. *)
  | Publish of { off : int; len : int; what : string }
      (** A p-atomic commit made durable ([what]: its publish site),
          after the committing persist: no dirty word of the current
          scope may survive past it. *)
  | Link_write of { off : int; len : int }
      (** Leaf-list next-pointer overwrite: needs an armed micro-log
          of the same domain. *)
  | Log_arm of { log : int }      (** Micro-log fst set: entry armed. *)
  | Log_reset of { log : int }    (** Micro-log retired (idle again). *)
  | Lock_acquire of { leaf : int }
  | Lock_release of { leaf : int }
  | Leaf_retired of { leaf : int }
      (** Leaf freed: its extent is not lock-checked until locked. *)
  | Leaf_layout of { bytes : int }
      (** Leaf extent size of the region's tree (store -> leaf). *)
  | Track_reset
      (** Tree create/recover: forget the region's lock tracking. *)
  | Ver_begin of { leaf : int }
      (** A leaf's version write phase opens: optimistic readers of
          the leaf abort until the matching [Ver_end]. *)
  | Ver_end of { leaf : int }
  | Scope_begin of { op : string }
  | Scope_end of { op : string }

type event = {
  domain : int;   (** numeric id of the recording domain *)
  region : int;   (** region id; -1 for scope edges *)
  site : string;  (** innermost open op of the domain, "" if none *)
  kind : kind;
}

val decode : Obs.Flight.event list -> event array
(** Decode history records in order.  An [op_begin] opens a scope
    named by {!Obs.Event.op_name} and an [op_end] closes its domain's
    innermost one, except the unsampled find marker (an [op_end] with
    c = -1), which is never a scope edge.  Each event's [site] is its
    domain's innermost open scope after the edge, so a [Scope_end]
    carries the enclosing scope.  Records of other tags are skipped. *)

val load : string -> event array * int
(** Read a JSON flight dump and decode it, with its [dropped] count: a
    non-zero count means the history is truncated, and no analysis of
    it can certify the run.
    @raise Obs.Json.Parse_error, [Failure] on a malformed dump, or
    [Sys_error] on I/O failure. *)
