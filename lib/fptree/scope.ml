let[@inline] enter comp = Obs.Attrib.set_component comp
let[@inline] leave prev = Obs.Attrib.restore_component prev

(** [persist ~comp r off len]: [Scm.Region.persist] with its flush
    lines, persist count and line writes charged to [comp] (under the
    ambient op kind). *)
let[@inline] persist ~comp r off len =
  let prev = Obs.Attrib.set_component comp in
  Scm.Region.persist r off len;
  Obs.Attrib.restore_component prev

(** Raw persist for call sites already inside an {!enter}ed scope —
    the stores and the flush then charge the same component without a
    redundant inner set/restore. *)
let[@inline] persist_in_scope r off len = Scm.Region.persist r off len
