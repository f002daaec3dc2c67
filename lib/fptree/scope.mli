(** Attribution gateway: the one blessed caller of [Scm.Region.persist]
    inside lib/fptree (lint-enforced — see tools/lint.ml).

    Every persist the tree issues names the component being persisted,
    so the [Obs.Attrib] (component × op) matrix can answer {e which
    part of the structure caused the SCM traffic}: micro-log arms,
    bitmap commits, fingerprint bytes, KV cells, out-of-line keys, meta
    words.  Store-side byte attribution rides on the same ambient
    scope, so call sites that store and then persist wrap the whole
    sequence in {!enter}/{!leave} (nesting is fine: inner scopes
    restore the outer component).

    Cost discipline matches [Pmtrace]: with attribution off (fast
    mode), {!enter}/{!leave} are one [bool ref] load and a branch;
    enabled, two unsafe array accesses — never an allocation, so the
    hot-path minor-words pins hold.  No closures, no [Fun.protect]: an
    exception between {!enter} and {!leave} (crash injection) leaves
    the component set until the next scope overwrites it, which can
    misattribute a few post-crash charges but never lose one. *)

val enter : int -> int
(** [enter comp] makes [comp] the ambient component and returns the
    previous one, for {!leave}. *)

val leave : int -> unit

val persist : comp:int -> Scm.Region.t -> int -> int -> unit
(** [persist ~comp r off len]: [Scm.Region.persist] with its flush
    lines, persist count and line writes charged to [comp] (under the
    ambient op kind). *)

val persist_in_scope : Scm.Region.t -> int -> int -> unit
(** Raw persist for call sites already inside an {!enter}ed scope. *)
