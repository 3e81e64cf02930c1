type t = {
  bits : int;
  stabilize_every : float;
  finger_update_every : float;
  security_check_every : float;
  random_walk_every : float;
  lookup_every : float;
  proof_queue_len : int;
  bound_tolerance : float;
  table_freshness : float;
  dos_defense : bool;
  query_deadline : float;
  rpc_in_flight_cap : int;
  (* maintenance cadence *)
  gc_every : float;
  metrics_sample_every : float;
  churn_rejoin_delay : float;
  (* fault injection & graceful degradation *)
  fault_plan : Octo_sim.Fault.plan option;
  anon_path_retries : int;
  ring_repair : bool;
  (* hot-key result cache *)
  result_cache : bool;
  result_cache_ttl : float;
  result_cache_cap : int;
  (* CA admission defense (Sybil flooding) *)
  ca_admission : bool;
  ca_admission_rate : float;
  ca_admission_burst : int;
  ca_assign_ids : bool;
}

let default =
  {
    bits = 40;
    stabilize_every = 2.0;
    finger_update_every = 30.0;
    security_check_every = 60.0;
    random_walk_every = 15.0;
    lookup_every = 60.0;
    proof_queue_len = 6;
    bound_tolerance = 8.0;
    table_freshness = 10.0;
    dos_defense = false;
    query_deadline = 3.0;
    rpc_in_flight_cap = 0;
    gc_every = 60.0;
    metrics_sample_every = 5.0;
    churn_rejoin_delay = 2.0;
    fault_plan = None;
    anon_path_retries = 0;
    ring_repair = false;
    result_cache = false;
    result_cache_ttl = 30.0;
    result_cache_cap = 65536;
    ca_admission = false;
    ca_admission_rate = 0.25;
    ca_admission_burst = 4;
    ca_assign_ids = false;
  }

let num_fingers = 12
let list_size = 6
let walk_length = 3
let num_dummies = 6
let pool_target = 14
let pred_age_before_report = 10.0
let identification_grace = 90.0
let max_chain_depth = 10
