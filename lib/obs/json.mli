(** Minimal self-contained JSON: enough to serialize the metrics
    registry and parse its own dumps back (round-trip tests, the CLI's
    [metrics] pretty-printer).  Not a general-purpose parser: it
    accepts the standard grammar for objects, arrays, strings with the
    usual backslash escapes, ints, floats, booleans and null —
    everything the registry emits. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Serialize, pretty-printed by default. *)

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input or trailing garbage. *)

(** {1 Accessors} *)

val member : string -> t -> t
(** The field of an object, or [Null]. *)

val to_int : t -> int
val to_float : t -> float
val to_string_val : t -> string
val to_list : t -> t list
val keys : t -> string list
