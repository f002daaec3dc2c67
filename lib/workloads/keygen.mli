(** Key generators for the micro-benchmarks (Section 6.2: uniformly
    distributed data; fixed keys are 8-byte integers, variable keys are
    16-byte strings). *)

val permutation : seed:int -> int -> int array
(** A deterministic shuffled permutation of [0, n): every key exactly
    once, in random order — the standard warm-up stream. *)

val string_key_16 : int -> string
(** 16-byte string key for an integer: zero-padded decimal with a
    fixed prefix (the paper's variable-size keys are 16-byte
    strings). *)

val string_key : len:int -> int -> string
(** String key of any length >= 8. *)
