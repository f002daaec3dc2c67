let stats = 1
let crash_tracking = 2
let delay_injection = 4
let tracing = 8
let model_check = 16
let observe = 32

(** The mode word.  Its initial value matches [Scm.Config.default]:
    counting and crash tracking on. *)
let word = ref (stats lor crash_tracking)

(** [any mask] is true iff at least one switch in [mask] is on. *)
let[@inline] any mask = !word land mask <> 0

(** Turn the switches in [mask] on or off; the others keep their
    state. *)
let set mask b = word := if b then !word lor mask else !word land lnot mask

let[@inline] enabled () = any observe
let set_enabled b = set observe b
