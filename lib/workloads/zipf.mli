(** Zipfian item generator (YCSB-style approximation): item 0 is the
    most popular. *)

type t

(** @raise Invalid_argument if [n < 1]. *)
val create : ?theta:float -> n:int -> seed:int -> unit -> t

(** Next item in [0, n). *)
val next : t -> int

