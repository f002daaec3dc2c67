(** Prefix-truncated integer anchors: what a var-key inner node's
    anchors are ({!Inner.kind}, {!Keys.Var}).

    A node keeps the common prefix [p] of its separators once, and for
    each separator [k = p ^ s] one int: the first seven bytes of the
    suffix [s], big-endian and zero-padded, shifted left by four, with
    the suffix length in the low four bits (0–7, or 8 for "longer than
    7").  Two anchors taken against the same prefix compare as their
    keys do under [String.compare], except when they are equal and
    both long: those keys agree on seven suffix bytes and differ (if at
    all) later, so only then is a full key compared.  The node keeps
    the full key of a long separator only.

    Whatever the contents of its strings and arrays, no function here
    reads outside them, so a torn read of a node (a prefix, anchors and
    keys from different writes) can misroute but stays memory-safe. *)

val encode : string -> int -> int
(** [encode k pl] is the anchor of [k]'s suffix after its first [pl]
    bytes (0 when [pl >= String.length k]). *)

val is_long : int -> bool
(** The anchor's suffix is longer than seven bytes: the node keeps
    that separator in full. *)

val key : string -> int -> string
(** [key p a] is [p] followed by the suffix bytes of the short anchor
    [a] (a long anchor yields seven bytes: use the stored key). *)

val lcp : string -> string -> int
(** Length of the longest common prefix. *)

val search : string -> int array -> string array -> int -> string -> int
(** [search p anchors keys n k] is the first [i < n] with
    [k <= p ^ suffix i], or [n] when there is none, for a node whose
    [n] separators all start with [p]: [n] is clamped to the anchors'
    length (a negative [n] gives 0), a probe that leaves [p] inside it
    goes to the first or last child without an anchor, and the rest is
    a branch-free binary search over the unboxed anchors; only on an
    equal pair of long anchors is [k] compared with [keys.(i)] (within
    that array's length).  Allocation-free. *)

val has_prefix : string -> string -> bool
(** [has_prefix p k]: [k] starts with [p] (eight bytes per compare
    when [p] holds eight).  Allocation-free. *)
