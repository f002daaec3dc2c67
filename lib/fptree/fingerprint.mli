(** Fingerprinting (Section 4.2 of the paper): one-byte hashes of
    in-leaf keys, plus the closed-form expected-probe counts that
    Figure 4 plots. *)

(** One-byte fingerprint of an integer key. *)
val of_int : int -> int

(** One-byte fingerprint of a string key. *)
val of_string : string -> int

(** Expected in-leaf key probes of a successful search in a leaf of [m]
    entries: FPTree's E[T] = (1 + m / (n (1 - ((n-1)/n)^m))) / 2. *)
val expected_probes_fptree : int -> float

(** wBTree: binary search over the sorted slot array, log2 m. *)
val expected_probes_wbtree : int -> float

(** NV-Tree: reverse linear scan, (m+1)/2. *)
val expected_probes_nvtree : int -> float
