(** mc-benchmark-style driver (Section 6.4): a SET phase followed by a
    GET phase over uniformly random keys, issued by concurrent client
    workers.  The paper's setup is network-bound at 940 Mbit/s; the
    [net_cost_ns] knob injects an equivalent per-request cost so that
    the in-process harness reproduces the "concurrent trees saturate
    the pipeline" regime. *)

type result = {
  set_throughput : float;  (** SETs per second *)
  get_throughput : float;
}

val run :
  ?clients:int -> ?n_ops:int -> ?value_len:int -> ?net_cost_ns:float ->
  Cache.t -> result
(** [n_ops] SETs then [n_ops] GETs of [value_len]-byte values, issued
    by [clients] domains, each request paying [net_cost_ns]. *)
