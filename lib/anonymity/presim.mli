(** Pre-simulated probability distributions (§6.2 / Appendix III).

    The adversary's estimators weight hypotheses by statistics "obtained
    via pre-simulations of the lookup": [xi] (the minimum node-distance
    from a lookup's linkable queries to its target), [gamma] (where in an
    estimation range the target actually falls), and [chi] (how many
    linkable queries a lookup exposes jointly with the largest virtual-hop
    statistic). All three are empirical histograms over sampled lookups
    with Bernoulli per-query linkability. *)

type t

val build : Ring_model.t -> ?samples:int -> p_link:float -> unit -> t

val xi : t -> int -> float
(** [xi t d]: probability that the minimum rank distance from linkable
    queried nodes to the target is (bucketed) [d], for the target's own
    lookup. Smoothed; never 0. *)

val gamma : t -> loc:int -> size:int -> float
(** [gamma t ~loc ~size]: probability that the target is the [loc]-th node
    (1-based, clockwise) of an estimation range of [size] nodes. *)

val chi : t -> count:int -> largest_hop:int -> float
(** [chi t ~count ~largest_hop]: plausibility that a filtered subset with
    [count] queries and the given largest virtual hop is the true linkable
    non-dummy set. *)

val mean_path_length : t -> float
(** Average number of (non-dummy) queries per lookup in the model. *)
