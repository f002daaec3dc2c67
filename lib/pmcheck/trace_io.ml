(** JSON round-trip for {!Scm.Pmtrace} histories, so a traced CLI run
    can be analyzed offline ([fptree_cli --trace] / [fptree_cli
    pmcheck]).  Format: [{"version":1,"dropped":N,"events":[...]}],
    one flat object per event with a ["k"] kind tag. *)

module J = Obs.Json
module T = Scm.Pmtrace

let version = 1

let kind_fields = function
  | T.Store { off; len; silent } ->
    ("store", [ ("off", J.Int off); ("len", J.Int len); ("silent", J.Bool silent) ])
  | T.Flush { off; len } -> ("flush", [ ("off", J.Int off); ("len", J.Int len) ])
  | T.Fence -> ("fence", [])
  | T.Publish { off; len; what } ->
    ("publish", [ ("off", J.Int off); ("len", J.Int len); ("what", J.Str what) ])
  | T.Link_write { off; len } ->
    ("link", [ ("off", J.Int off); ("len", J.Int len) ])
  | T.Log_arm { log } -> ("log-arm", [ ("log", J.Int log) ])
  | T.Log_reset { log } -> ("log-reset", [ ("log", J.Int log) ])
  | T.Lock_acquire { leaf } -> ("lock-acquire", [ ("leaf", J.Int leaf) ])
  | T.Lock_release { leaf } -> ("lock-release", [ ("leaf", J.Int leaf) ])
  | T.Leaf_retired { leaf } -> ("leaf-retired", [ ("leaf", J.Int leaf) ])
  | T.Leaf_layout { bytes } -> ("leaf-layout", [ ("bytes", J.Int bytes) ])
  | T.Track_reset -> ("track-reset", [])
  | T.Writer_begin -> ("writer-begin", [])
  | T.Writer_end -> ("writer-end", [])
  | T.Fallback_lock -> ("fallback-lock", [])
  | T.Fallback_unlock -> ("fallback-unlock", [])
  | T.Ver_begin { leaf } -> ("ver-begin", [ ("leaf", J.Int leaf) ])
  | T.Ver_end { leaf } -> ("ver-end", [ ("leaf", J.Int leaf) ])
  | T.Scope_begin { op } -> ("scope-begin", [ ("op", J.Str op) ])
  | T.Scope_end { op } -> ("scope-end", [ ("op", J.Str op) ])

let event_to_json (e : T.event) =
  let k, fields = kind_fields e.T.kind in
  J.Obj
    ([ ("d", J.Int e.T.domain); ("r", J.Int e.T.region);
       ("s", J.Str e.T.site); ("k", J.Str k) ]
    @ fields)

exception Bad_trace of string

let geti j k = J.to_int (J.member k j)
let gets j k = J.to_string_val (J.member k j)

let getb j k =
  match J.member k j with
  | J.Bool b -> b
  | _ -> raise (Bad_trace (Printf.sprintf "expected bool %S" k))

let kind_of_json j =
  match gets j "k" with
  | "store" ->
    T.Store { off = geti j "off"; len = geti j "len"; silent = getb j "silent" }
  | "flush" -> T.Flush { off = geti j "off"; len = geti j "len" }
  | "fence" -> T.Fence
  | "publish" ->
    T.Publish { off = geti j "off"; len = geti j "len"; what = gets j "what" }
  | "link" -> T.Link_write { off = geti j "off"; len = geti j "len" }
  | "log-arm" -> T.Log_arm { log = geti j "log" }
  | "log-reset" -> T.Log_reset { log = geti j "log" }
  | "lock-acquire" -> T.Lock_acquire { leaf = geti j "leaf" }
  | "lock-release" -> T.Lock_release { leaf = geti j "leaf" }
  | "leaf-retired" -> T.Leaf_retired { leaf = geti j "leaf" }
  | "leaf-layout" -> T.Leaf_layout { bytes = geti j "bytes" }
  | "track-reset" -> T.Track_reset
  | "writer-begin" -> T.Writer_begin
  | "writer-end" -> T.Writer_end
  | "fallback-lock" -> T.Fallback_lock
  | "fallback-unlock" -> T.Fallback_unlock
  | "ver-begin" -> T.Ver_begin { leaf = geti j "leaf" }
  | "ver-end" -> T.Ver_end { leaf = geti j "leaf" }
  | "scope-begin" -> T.Scope_begin { op = gets j "op" }
  | "scope-end" -> T.Scope_end { op = gets j "op" }
  | k -> raise (Bad_trace (Printf.sprintf "unknown event kind %S" k))

let event_of_json j =
  { T.domain = geti j "d"; region = geti j "r"; site = gets j "s";
    kind = kind_of_json j }

let to_json ?(dropped = 0) (events : T.event array) =
  J.Obj
    [ ("version", J.Int version);
      ("dropped", J.Int dropped);
      ("events", J.Arr (Array.to_list (Array.map event_to_json events))) ]

let of_json j =
  (match J.member "version" j with
  | J.Int v when v = version -> ()
  | J.Int v -> raise (Bad_trace (Printf.sprintf "unsupported trace version %d" v))
  | _ -> raise (Bad_trace "missing trace version"));
  J.to_list (J.member "events" j) |> List.map event_of_json |> Array.of_list

let dropped_of_json j =
  match J.member "dropped" j with J.Int n -> n | _ -> 0

let save path ?dropped events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (J.to_string ~indent:false (to_json ?dropped events)))

let load path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let j = J.parse s in
  (of_json j, dropped_of_json j)
