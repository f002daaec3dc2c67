(** Cache-line and word geometry of the simulated memory hierarchy:
    64-byte lines, 8-byte p-atomic words. *)

val line_size : int
val word_size : int
val words_per_line : int
val line_of_offset : int -> int
val word_of_offset : int -> int
val line_base : int -> int
val is_word_aligned : int -> bool

(** [align_up off a] rounds [off] up to the next multiple of the
    power-of-two [a]. *)
val align_up : int -> int -> int

val lines_spanned : int -> int -> int
val words_spanned : int -> int -> int
