(** Octopus protocol and simulation parameters.

    Defaults follow the paper's evaluation setup (§5.1): 12 fingers, 6
    successors/predecessors, stabilization every 2 s, finger updates every
    30 s, security checks every 60 s, a random walk for relay selection
    every 15 s, one lookup per minute, 6 retained successor-list proofs,
    and a random delay of up to 100 ms added at the middle relay B.

    {!t} holds only the parameters that some experiment, CLI flag,
    test or benchmark driver actually varies:
    - the maintenance cadences [stabilize_every], [finger_update_every],
      [random_walk_every], [security_check_every], [lookup_every],
      [gc_every] and [metrics_sample_every]: the [scale] preset
      ([Scale.scale_cfg]) and the chaos and attack regimes;
    - [proof_queue_len] and [bound_tolerance]: the ablation sweeps;
    - [rpc_in_flight_cap]: the [load/burst] regime;
    - [dos_defense]: the selective-DoS security figures;
    - [fault_plan], [anon_path_retries] and [ring_repair]: the chaos
      regimes, plus [ring_repair] in [scale] and [attack];
    - [result_cache]: [load] and [attack/eclipse] under [--cache];
      [result_cache_ttl] and [result_cache_cap]: the cache tests;
    - [ca_admission], [ca_admission_rate], [ca_admission_burst] and
      [ca_assign_ids]: [attack/sybil], its tests and the admission
      bench kernel;
    - [bits], [table_freshness], [query_deadline] and
      [churn_rejoin_delay]: read by the benchmark drivers, and the last
      three by the [scale] grace computation.

    Every other protocol parameter is a constant. The ones that several
    modules read are exported below; the rest live, with their
    documentation, in the one module that reads them. *)

type t = {
  bits : int;  (** identifier space width *)
  stabilize_every : float;
  finger_update_every : float;  (** one full fingertable refresh per period *)
  security_check_every : float;  (** secret neighbor + finger surveillance *)
  random_walk_every : float;
  lookup_every : float;
  proof_queue_len : int;  (** retained signed successor lists *)
  bound_tolerance : float;  (** NISAN-style bound check slack, in gaps *)
  table_freshness : float;  (** max age of an accepted signed table *)
  dos_defense : bool;  (** receipts + witness statements *)
  query_deadline : float;  (** selective-DoS delivery deadline *)
  rpc_in_flight_cap : int;  (** per-destination cap; [0] = unbounded *)
  gc_every : float;  (** per-node garbage-collection period *)
  metrics_sample_every : float;
  churn_rejoin_delay : float;  (** downtime before a churned node rejoins *)
  fault_plan : Octo_sim.Fault.plan option;
      (** fault-injection schedule installed at world build time; [None]
          (the default) leaves the network fast path untouched and keeps
          traces byte-identical to a build without fault support *)
  anon_path_retries : int;
      (** times an anonymous lookup step may fall back to a fresh relay
          pair after its path dies; [0] (the default) gives up on the
          first dead path. The paper-figure runs measure that path:
          at [2], Table 3's Octopus lookups go from 568/600 to 600/600
          correct and [load/steady] from 88.3 % to 100 % (DESIGN.md
          "Fault model & graceful degradation") *)
  ring_repair : bool;
      (** when set, nodes remember peers lost to timeout eviction and
          probe them during stabilization, re-merging their successor
          lists once they respond — the post-partition re-convergence
          path — and every stabilization round also pulls the
          successor's predecessor list. Off by default because that
          pull is extra traffic in every round: turned on, the
          [trace/honest] run emits 15 % more events and Table 3's
          Octopus mean lookup latency goes from 4.44 s to 5.43 s
          (DESIGN.md "Fault model & graceful degradation") *)
  result_cache : bool;
      (** when set, initiators remember the owners their own lookups
          resolved and answer repeats of the same key locally until the
          entry expires; off by default so traces stay byte-identical to
          cacheless builds. Cached answers never feed routing or
          verification state, and the whole cache is flushed whenever a
          certificate is revoked (like the verification cache). *)
  result_cache_ttl : float;
      (** seconds a cached lookup result stays servable; expiry is
          strict (an entry hit exactly [ttl] after it was stored is
          already a miss) *)
  result_cache_cap : int;
      (** entry cap across all nodes; on overflow the cache resets,
          mirroring the verification cache's bounded-memory policy *)
  ca_admission : bool;
      (** arm the CA's certificate-admission defense: per-source token-
          bucket rate limiting plus admission-cost accounting
          ({!Ca.request_admission}). Off by default — the admission path
          is only exercised by attack scenarios, and disabled
          configurations never touch the limiter state, so ordinary runs
          stay byte-identical to defenseless builds *)
  ca_admission_rate : float;
      (** sustained certificate grants per second per source once its
          burst allowance is spent *)
  ca_admission_burst : int;
      (** token-bucket depth: certificates a single source may obtain
          back-to-back before the rate limit bites *)
  ca_assign_ids : bool;
      (** when set, the CA ignores the requested identifier and assigns a
          uniform random one — the classic anti-Sybil placement defense
          (an attacker can no longer craft identifiers surrounding a
          victim key; see EXPERIMENTS.md "Active adversaries") *)
}

val default : t

(** {1 Shared protocol constants} *)

val num_fingers : int

val list_size : int
(** successor/predecessor list length *)

val walk_length : int
(** hops per random-walk phase (l) *)

val num_dummies : int
(** dummy queries per lookup *)

val pool_target : int
(** relay pairs kept available *)

val pred_age_before_report : float
(** how long a predecessor must be known before surveillance may report
    it (suppresses join-race false positives); the CA applies the same
    grace when weighing a report *)

val identification_grace : float
(** how long the CA may take to identify a reported node before the
    reporter counts the report as unresolved *)

val max_chain_depth : int
(** investigation chain length bound *)
