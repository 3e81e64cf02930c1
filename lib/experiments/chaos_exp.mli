(** Chaos scenarios: the full lookup workload under each fault regime.

    Each {!regime} names one fault-injection schedule; {!with_faults}
    installs it and arms the graceful-degradation paths —
    anonymous-path fallback ([anon_path_retries]) and post-heal ring
    repair ([ring_repair]). The default config keeps both off because
    the paper-figure runs measure the off paths: ring repair's extra
    predecessor-list pull in every stabilization round, and the
    fallback's extra relay pairs, each change Table 3 and the [trace]
    and [load] regimes (see {!Octopus.Config.t}). A run drives the standard maintained workload, counts
    lookup outcomes, and closes with {!Regime.finish}: the post-heal
    convergence check and the corrupted-documents-never-accepted audit.

    Same seed, same regime ⇒ byte-identical traces: all fault decisions
    come from the engine RNG in message-send order. *)

type regime = Partition_heal | Corruption | Dup_reorder | Crash_burst | Regional_outage

val with_faults :
  regime -> n:int -> duration:float -> Octopus.Config.t -> Octopus.Config.t
(** [cfg] with the regime's fault schedule (windows placed as fractions
    of the run so bootstrap settles first and re-convergence has a tail)
    plus [anon_path_retries = 2] and [ring_repair]. *)

val regimes : Regime.t list
(** [chaos/partition], [chaos/corrupt], [chaos/dup-reorder],
    [chaos/crash] and [chaos/outage] (defaults n = 60, 240 s). Fields:
    the fault layer's [drops], [corruptions], [duplicates], [reorders]
    and [crashes] counters. *)
