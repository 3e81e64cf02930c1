(** Gated regimes: the one definition of a scenario the harness runs,
    gates and reports.

    Every suite — [trace], [chaos], [attack], [load], [scale] — exports
    its scenarios as a [t list]. A regime's [body] runs one simulation
    and returns an {!outcome}; {!passed} gates it and {!render} / {!json}
    report it, identically for every suite. Bodies share two helpers:
    {!start} opens the trace sink and hands back the hook that attaches
    the invariant checker and the [Lookup_done] counter, and {!finish}
    runs the end-of-run checks and closes the sink. *)

type value = Int of int | Float of float

type outcome = {
  trace : Octo_sim.Trace.t;
  checker : Octopus.Invariant.t;  (** finished: end-of-run checks ran *)
  lookups_done : int;
  lookups_converged : int;
  fields : (string * value) list;  (** named report fields, in print order *)
  conditions : (string * bool) list;
      (** extra pass conditions beyond the floor (e.g. the Sybil
          admission cap); a false one fails {!passed} *)
}

type params = {
  n : int;
  duration : float;  (** simulated seconds ([load] derives its own from [queries]) *)
  seed : int;
  queries : int;  (** open-loop arrivals ([load] only) *)
  cache : bool;  (** hot-key result cache ([load], [attack/eclipse]) *)
  chaos : bool;  (** dup-reorder fault overlay ([load] only) *)
}

type t = {
  suite : string;
  name : string;
  floor : float option;
      (** documented success-rate floor (EXPERIMENTS.md); [None] for
          regimes gated only by the invariant checker *)
  min_n : int;
  default_n : int;
  default_duration : float;
  body : params -> outcome;
}

val id : t -> string
(** ["SUITE/REGIME"], the name the CLI and the registry use. *)

(** {1 Running a body} *)

type probe

val start : ?grace:float -> capacity:int -> unit -> probe * (Octopus.World.t -> unit)
(** Create and install a trace sink of [capacity] events. The returned
    hook creates the invariant checker (with [grace], see
    {!Octopus.Invariant.create}), attaches it, and subscribes the
    [Lookup_done] counter; call it before maintenance starts (from
    {!Scenario.on_init}) so both observe the scheduling of the periodic
    loops. *)

val checker : probe -> Octopus.Invariant.t
(** The attached checker (for mid-run samples such as the eclipse
    watch). Raises if the hook has not run yet. *)

val finish : probe -> outcome
(** End of run: {!Octopus.Invariant.check_convergence},
    [check_eclipse ~allowed:0] and {!Octopus.Invariant.finish}, then
    uninstall the sink. The outcome carries the counted lookups and no
    fields or conditions; bodies add their own. *)

(** {1 Gating and reporting} *)

val success_rate : outcome -> float
(** Converged fraction of finished lookups ([0.0] when none finished). *)

val passed : t -> outcome -> bool
(** Every condition holds and, when the regime has a floor, at least
    one lookup finished and {!success_rate} meets it. Invariant
    violations are gated separately through [outcome.checker]. *)

val int_field : outcome -> string -> int
val float_field : outcome -> string -> float
(** Look a named field up; raise [Not_found] if absent or of the other
    kind. *)

val render : check:bool -> t -> outcome -> string
(** The text report: one headline with the lookup counts, floor and
    trace volume, the fields by name, a [FAILED] line per unmet gate,
    and (with [check]) the invariant checker's report. *)

val json : (t * params * outcome) list -> string
(** The [octopus-run/v1] JSON document for one invocation's runs.
    Non-finite numbers render as [null]. *)
