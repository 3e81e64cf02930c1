(** Active-adversary campaigns as gated regimes (EXPERIMENTS.md "Active
    adversaries").

    Where the chaos regimes degrade the {e network}, these degrade the
    {e membership}: each runs a deterministic attacker campaign inside a
    live scenario, measures the lookup workload under it, and gates on a
    documented success floor plus the online invariant checker — the
    attack counterpart of the chaos suite, and part of the pre-merge
    gate via [bin/main.exe run attack].

    - {b sybil}: colluding sources flood {!Octopus.Ca.request_admission}
      with identifiers crafted around a victim key, against the CA's
      token-bucket admission defense with assigned identifiers; admitted
      Sybils join live from reserved address slots. Fields: the measured
      admission counters ([sybil_requests], [sybils_admitted],
      [sybil_refused]), the documented campaign ceiling [sybil_cap]
      (admissions beyond it fail the regime), and the analytic cost
      curve — per defense setting ([crafted/open], [crafted/limited],
      [assigned/open], [assigned/limited]) the [requests] spent, Sybils
      [admitted] and victim successor-set slots [owned] out of
      [list_size] — summarised by [cost_factor], the requests needed
      once the CA assigns identifiers over those needed when crafting
      them freely.
    - {b eclipse}: colluders switch on Bias table-serving timed around a
      partition heal, so victims re-converging from the partition learn
      poisoned entries; the eclipse watch ({!Octopus.Invariant.check_eclipse})
      samples the poisoning at its peak ([eclipsed_peak]) and must read
      zero at the end — post-heal recovery with no honest node left
      fully surrounded. [params.cache] enables the hot-key result cache,
      whose [cache_flushes] must keep up with the [revocations].
    - {b churn-range}: the Appendix III range-estimation attack replayed
      against a churning ring: the adversary calibrates a
      {!Octo_anonymity.Ring_model} snapshot mid-run and applies the
      estimator to lookups observed immediately ([fresh_total] estimates,
      [fresh_hits] containing the true owner) and much later
      ([stale_total], [stale_hits]), measuring how membership drift
      degrades estimator accuracy; the regime fails without fresh
      estimates. *)

val regimes : Regime.t list
(** [attack/sybil], [attack/eclipse] and [attack/churn-range] (defaults
    n = 60, 240 s). *)
