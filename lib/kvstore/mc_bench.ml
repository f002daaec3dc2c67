type result = {
  set_throughput : float; (** SETs per second *)
  get_throughput : float;
}

let key_of i = Printf.sprintf "memc-%012d" i

let run ?(clients = 8) ?(n_ops = 100_000) ?(value_len = 32) ?(net_cost_ns = 0.)
    (cache : Cache.t) =
  let value = String.make value_len 'v' in
  let pay_network () = if net_cost_ns > 0. then Scm.Latency.busy_wait_ns net_cost_ns in
  let set_phase d =
    let lo, hi = Workloads.Domain_pool.slice ~domains:clients ~total:n_ops d in
    let rng = Random.State.make [| 77; d |] in
    for _ = lo to hi - 1 do
      let k = key_of (Random.State.int rng n_ops) in
      Cache.set_exn cache k value;
      pay_network ()
    done
  in
  let get_phase d =
    let lo, hi = Workloads.Domain_pool.slice ~domains:clients ~total:n_ops d in
    let rng = Random.State.make [| 78; d |] in
    for _ = lo to hi - 1 do
      ignore (Cache.get cache (key_of (Random.State.int rng n_ops)));
      pay_network ()
    done
  in
  let t_set = Workloads.Domain_pool.run ~domains:clients set_phase in
  let t_get = Workloads.Domain_pool.run ~domains:clients get_phase in
  {
    set_throughput = float_of_int n_ops /. t_set;
    get_throughput = float_of_int n_ops /. t_get;
  }
