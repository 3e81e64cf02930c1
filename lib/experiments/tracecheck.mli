(** A small end-to-end scenario run with tracing on and the online
    invariant checker attached — the pre-merge correctness gate shared by
    [bin/main.exe run trace], [bench/main.exe --check-invariants], and
    the test suite. *)

val run :
  ?n:int -> ?duration:float -> ?seed:int -> ?revoke_one:bool -> unit -> Regime.outcome
(** Honest network of [n] (default 80) nodes with full maintenance
    (stabilization, walks, periodic anonymous lookups, surveillance) for
    [duration] (default 120) simulated seconds, closed by
    {!Regime.finish}. [revoke_one] revokes one node mid-run to exercise
    the revoked-identity invariant. *)

val regimes : Regime.t list
(** [trace/honest]: {!run} with no floor; only the checker gates it. *)
