(** Entry point of the layered benchmark; see NOTES.md. *)

let () =
  let a = Harness.parse_args () in
  (match a.Harness.workload with
  | "kv-zipf" -> Kv_zipf.run a
  | "ingest-churn" -> Ingest_churn.run a
  | "tatp-ro" -> Tatp_ro.run a
  | w ->
    prerr_endline ("unknown workload: " ^ w);
    exit 2);
  Harness.print_result ()
