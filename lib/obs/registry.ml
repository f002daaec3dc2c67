type metric =
  | Counter of Counter.t
  | Gauge of (unit -> int)
  | Histogram of Histogram.t
  | Labeled of (unit -> ((string * string) list * int) list)
      (** A read-through family of labeled series (e.g. the SCM
          attribution matrix): the non-zero [(label set, value)]
          pairs. *)

type entry = { name : string; help : string; metric : metric }

let entries : entry list ref = ref [] (* newest first *)
let lock = Mutex.create ()

let find name =
  List.find_opt (fun e -> e.name = name) !entries

let register name help metric =
  Mutex.lock lock;
  let r =
    match find name with
    | Some e -> e.metric
    | None ->
      entries := { name; help; metric } :: !entries;
      metric
  in
  Mutex.unlock lock;
  r

let counter ?(help = "") name =
  match register name help (Counter (Counter.make ())) with
  | Counter c -> c
  | _ -> invalid_arg (name ^ " is already registered as a non-counter")

let histogram ?(help = "") name =
  match register name help (Histogram (Histogram.make ())) with
  | Histogram h -> h
  | _ -> invalid_arg (name ^ " is already registered as a non-histogram")

let gauge ?(help = "") name f = ignore (register name help (Gauge f))

let labeled ?(help = "") name read = ignore (register name help (Labeled read))

let all () = List.rev !entries

(* ---- Prometheus-style text exposition ---- *)

let quantiles = [ 0.5; 0.9; 0.99 ]

let to_text () =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      if e.help <> "" then Printf.bprintf b "# HELP %s %s\n" e.name e.help;
      match e.metric with
      | Counter c ->
        Printf.bprintf b "# TYPE %s counter\n" e.name;
        Printf.bprintf b "%s %d\n" e.name (Counter.value c);
        List.iter
          (fun (s, v) -> Printf.bprintf b "%s{shard=\"%d\"} %d\n" e.name s v)
          (Counter.per_shard c)
      | Gauge f ->
        Printf.bprintf b "# TYPE %s gauge\n" e.name;
        Printf.bprintf b "%s %d\n" e.name (f ())
      | Labeled read ->
        Printf.bprintf b "# TYPE %s counter\n" e.name;
        List.iter
          (fun (labels, v) ->
            let ls =
              String.concat ","
                (List.map
                   (fun (k, lv) -> Printf.sprintf "%s=\"%s\"" k lv)
                   labels)
            in
            Printf.bprintf b "%s{%s} %d\n" e.name ls v)
          (read ())
      | Histogram h ->
        Printf.bprintf b "# TYPE %s histogram\n" e.name;
        let cum = ref 0 in
        List.iter
          (fun (_, hi, n) ->
            cum := !cum + n;
            Printf.bprintf b "%s_bucket{le=\"%d\"} %d\n" e.name hi !cum)
          (Histogram.nonzero_buckets h);
        Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" e.name !cum;
        Printf.bprintf b "%s_sum %d\n" e.name (Histogram.sum h);
        Printf.bprintf b "%s_count %d\n" e.name (Histogram.count h))
    (all ());
  Buffer.contents b

(* ---- JSON dump (round-trips through Json.parse) ---- *)

let json_of_metric = function
  | Counter c ->
    Json.Obj
      [
        ("type", Json.Str "counter");
        ("total", Json.Int (Counter.value c));
        ( "shards",
          Json.Obj
            (List.map
               (fun (s, v) -> (string_of_int s, Json.Int v))
               (Counter.per_shard c)) );
      ]
  | Gauge f -> Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Int (f ())) ]
  | Labeled read ->
    Json.Obj
      [
        ("type", Json.Str "labeled");
        ( "series",
          Json.Arr
            (List.map
               (fun (labels, v) ->
                 Json.Obj
                   [
                     ( "labels",
                       Json.Obj
                         (List.map (fun (k, lv) -> (k, Json.Str lv)) labels) );
                     ("value", Json.Int v);
                   ])
               (read ())) );
      ]
  | Histogram h ->
    Json.Obj
      [
        ("type", Json.Str "histogram");
        ("count", Json.Int (Histogram.count h));
        ("sum", Json.Int (Histogram.sum h));
        ("mean", Json.Float (Histogram.mean h));
        ( "quantiles",
          Json.Obj
            (List.map
               (fun q ->
                 (Printf.sprintf "p%g" (q *. 100.), Json.Int (Histogram.quantile h q)))
               quantiles) );
        ("max", Json.Int (Histogram.max_value h));
        ( "buckets",
          Json.Arr
            (List.map
               (fun (lo, hi, n) ->
                 Json.Obj
                   [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("n", Json.Int n) ])
               (Histogram.nonzero_buckets h)) );
      ]

let to_json_value () =
  Json.Obj
    [
      ( "metrics",
        Json.Obj
          (List.map
             (fun e ->
               ( e.name,
                 match json_of_metric e.metric with
                 | Json.Obj kvs when e.help <> "" ->
                   Json.Obj (kvs @ [ ("help", Json.Str e.help) ])
                 | j -> j ))
             (all ())) );
    ]

let to_json () = Json.to_string (to_json_value ())

(** Write the registry to [path] ('-' for stdout) in the given format. *)
let dump ?(format = `Json) path =
  let payload = match format with `Json -> to_json () | `Text -> to_text () in
  if path = "-" then print_string payload
  else begin
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc payload)
  end
