(** Cache-line and word geometry of the simulated memory hierarchy.

    The simulator models an x86-like volatility chain (Figure 1 of the
    paper): stores land in a volatile cache and reach the persistence
    domain only when their cache line is explicitly flushed.  Lines are
    64 bytes; the p-atomic write unit is an aligned 8-byte word. *)

let line_size = 64
let word_size = 8
let words_per_line = line_size / word_size

let line_of_offset off = off / line_size
let word_of_offset off = off / word_size
let line_base off = off land lnot (line_size - 1)

let is_word_aligned off = off land (word_size - 1) = 0

(** [align_up off a] rounds [off] up to the next multiple of [a]
    ([a] must be a power of two). *)
let align_up off a = (off + a - 1) land lnot (a - 1)

(** Number of distinct cache lines overlapping [off, off+len). *)
let lines_spanned off len =
  if len <= 0 then 0
  else line_of_offset (off + len - 1) - line_of_offset off + 1

(** Number of distinct words overlapping [off, off+len). *)
let words_spanned off len =
  if len <= 0 then 0
  else word_of_offset (off + len - 1) - word_of_offset off + 1
