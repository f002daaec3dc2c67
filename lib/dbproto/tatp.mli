(** TATP (Telecom Application Transaction Processing) on the prototype
    single-level database (Section 6.4, Figure 12).

    The storage engine is dictionary-encoded and columnar: base data
    lives in SCM columns, and each table's dictionary index — the tree
    under test — maps a (composite) integer key to a row position.
    Population generates Subscriber ids SEQUENTIALLY, the highly skewed
    insertion pattern that forces the NV-Tree into repeated inner-node
    rebuilds (handled there with its large-leaf DB configuration).

    The benchmark runs the read-only TATP transactions with their
    standard relative weights: GET_SUBSCRIBER_DATA (35), GET_NEW_
    DESTINATION (10), GET_ACCESS_DATA (35), re-normalized to 100%. *)

type db = {
  kind : Index.kind;
  subscribers : int;
  cols : Scm.Region.t;
  (* Subscriber *)
  sub_index : Index.t;  (** s_id -> row *)
  sub_nbr : Column.t;
  sub_bits : Column.t;
  sub_vlr : Column.t;
  sub_msc : Column.t;
  (* Access_Info: key = s_id * 4 + (ai_type - 1) -> row *)
  ai_index : Index.t;
  ai_data12 : Column.t;
  ai_data34 : Column.t;
  (* Special_Facility: key = s_id * 4 + (sf_type - 1) -> row *)
  sf_index : Index.t;
  sf_active : Column.t;
  sf_data : Column.t;
  (* Call_Forwarding: key = (sf row) * 3 + start_time/8 -> row *)
  cf_index : Index.t;
  cf_end_time : Column.t;
  cf_numberx : Column.t;
  (* row allocation cursors *)
  mutable ai_rows : int;
  mutable sf_rows : int;
  mutable cf_rows : int;
}

(** {1 Keys and generated attributes} *)

val ai_key : int -> int -> int
(** [ai_key s_id ai_type]: the Access_Info index key. *)

val sf_key : int -> int -> int
(** [sf_key s_id sf_type]: the Special_Facility index key. *)

val cf_key : int -> int -> int
(** [cf_key sf_row start_slot]: the Call_Forwarding index key. *)

val attr : int -> int -> int -> int
(** The deterministic per-row attribute population writes. *)

(** {1 Population, transactions, restart} *)

val populate : ?arena_bytes:int -> subscribers:int -> Index.kind -> db

val get_subscriber_data : db -> int -> int
(** GET_SUBSCRIBER_DATA: point lookup + full row read. *)

val get_new_destination : db -> int -> int -> int -> int
(** GET_NEW_DESTINATION [db s_id sf_type start_slot]. *)

val get_access_data : db -> int -> int -> int
(** GET_ACCESS_DATA [db s_id ai_type]. *)

val run_benchmark : ?clients:int -> n_tx:int -> db -> float
(** Run [n_tx] transactions of the read-only mix over [clients]
    parallel workers; returns transactions per second. *)

val restart : ?workers:int -> db -> db * float
(** Simulate a crash-restart: recover every index (in parallel over
    [workers] domains) and sanity-scan the SCM columns; the transient
    STXTree's indexes are rebuilt from base data.  Returns the new db
    and the seconds it took. *)
